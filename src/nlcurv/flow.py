"""Area-constrained gradient descent on the nonlocal bending energy.

The constraint area == 1 is kept active by exact rescaling after every
trial step; descent directions come from central finite differences of
B_{s,p} with respect to vertex positions.  Moving one vertex moves only
the quadrature samples of its star, so each perturbed energy is the base
mesh's kernel sums with the star's columns swapped and the star's rows
recomputed: O(S |star|) work instead of a full O(S^2) evaluation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, MeshDegenerationError, ParseError, StallError
from .functionals import (
    _PAIR_CUTOFF,
    _incidence,
    _inner_data,
    _kernel_sums,
    _sample_exclusions,
    bending_energy,
    get_workers,
)
from .quadrature import _element_samples, build_scheme
from .surface import (
    DiscreteHypersurface,
    EnergyParameters,
    _segment_geometry,
    _triangle_geometry,
)

__all__ = [
    "FlowState",
    "energy_gradient",
    "project_area",
    "minimize",
    "best_fit_sphere",
    "hausdorff_to_best_sphere",
]


@dataclass(frozen=True)
class FlowState:
    mesh: DiscreteHypersurface
    iteration: int
    energy: float
    area: float
    grad_norm: float
    step: float
    trajectory: tuple = field(default_factory=tuple)
    # trajectory rows: (iteration, energy, area, grad_norm, hausdorff)


def _bending(mesh, params, order, policy, workers):
    scheme = build_scheme(mesh, order, policy)
    return bending_energy(mesh, scheme, params, workers=workers).energy


def _diameters_without(V):
    """Per vertex i, the diameter of the vertex set without vertex i."""
    n = len(V)
    block = max(1, (1 << 16) // n)
    first, second = np.empty(n), np.empty(n)
    far = np.empty(n, int)
    for a in range(0, n, block):
        d2 = ((V[a:a + block, None, :] - V[None, :, :]) ** 2).sum(-1)
        rows = np.arange(len(d2))
        far[a:a + len(d2)] = j = d2.argmax(1)
        first[a:a + len(d2)] = d2[rows, j]
        d2[rows, j] = -1.0
        second[a:a + len(d2)] = d2.max(1)
    # without column i, row j keeps its largest entry unless that was i
    out = np.empty(n)
    for a in range(0, n, block):
        i = np.arange(a, min(a + block, n))
        d2 = np.where(far[None, :] == i[:, None], second, first)
        d2[np.arange(len(i)), i] = -1.0
        out[i] = d2.max(1)
    return np.sqrt(out)


def energy_gradient(mesh, params, h=1e-4, order="gauss3",
                    diagonal_policy="skip_vertex_star", workers=None):
    """Central-difference gradient of B_{s,p} w.r.t. vertex positions.

    The per-vertex step is h times the mean incident edge length, so the
    stencil scales with local resolution.  Each perturbed energy is
    evaluated star-locally.  With a the kernel sums of the base mesh and
    J the samples of vertex i's star elements,

        E' = sum_{x not in J} w_x |c_s (b_x + sum_{y in J} K'(x,y) w'_y)|^p
           + sum_{x in J} w'_x |c_s a'_x|^p,

    where b_x = a_x - sum_{y in J} K(x,y) w_y is shared by the vertex's
    perturbations and a'_x is a full row against the perturbed samples.
    The exclusions, the pair cutoff (against the perturbed diameter) and
    the element-measure check are those of the perturbed mesh.

    The work runs in one thread whatever ``workers`` says (it is still
    validated): threads over vertices measured no faster, as each
    vertex's numpy calls are small.
    """
    if h <= 0:
        raise InvalidParams("finite-difference step must be positive")
    get_workers(workers)
    V = mesh.vertices
    e = mesh.edges
    elen = np.linalg.norm(V[e[:, 0]] - V[e[:, 1]], axis=1)
    ends = e.T.ravel()
    deg = np.bincount(ends, minlength=len(V))
    local = np.bincount(ends, np.tile(elen, 2), len(V)) / np.maximum(deg, 1)

    scheme = build_scheme(mesh, order, diagonal_policy)
    Y, W, N, mode = inner = _inner_data(mesh, scheme, params.codim_mode)
    excl = _sample_exclusions(mesh, scheme)
    expo = mesh.dim_d + 1 + params.s
    cutoff = _PAIR_CUTOFF * mesh.diameter
    # |A|_s sums (pairing power 1) at every sample, in one thread
    a = _kernel_sums(Y, excl, inner, cutoff, expo, 1.0, 1)
    stars = _incidence(mesh)
    diam = _diameters_without(V)
    geometry = _segment_geometry if mesh.dim_d == 1 else _triangle_geometry
    k = scheme.n_per_element

    def perturbed_energy(i, Vp, star):
        el, J, out, b, excl_cols, excl_rows = star
        nrm, meas = geometry(Vp, el)
        if meas.min() <= 0:
            raise ParseError("degenerate element with non-positive measure")
        if mode == "projection":
            nrm = (Vp[el[:, 1]] - Vp[el[:, 0]]) / meas[:, None]
        d2 = ((Vp[i] - V) ** 2).sum(-1)
        d2[i] = 0.0
        cut = _PAIR_CUTOFF * max(diam[i], np.sqrt(d2.max()))
        Ys, Ws = _element_samples(Vp, el, meas, order)
        Ns = np.repeat(nrm, k, axis=0)
        Yp, Wp, Np = Y.copy(), W.copy(), N.copy()
        Yp[J], Wp[J], Np[J] = Ys, Ws, Ns
        ap = np.empty_like(a)
        ap[out] = b + _kernel_sums(Y[out], excl_cols, (Ys, Ws, Ns, mode),
                                   cut, expo, 1.0, 1)
        ap[J] = _kernel_sums(Ys, excl_rows, (Yp, Wp, Np, mode), cut, expo,
                             1.0, 1)
        return float(np.abs(params.c_s * ap) ** params.p @ Wp)

    grad = np.empty_like(V)
    for i in range(len(V)):
        el = stars.indices[stars.indptr[i]:stars.indptr[i + 1]]
        J = (el[:, None] * k + np.arange(k)).ravel()
        out = np.setdiff1d(np.arange(len(W)), J)
        excl_cols = excl[out][:, el].toarray()
        b = a[out] - _kernel_sums(Y[out], excl_cols, (Y[J], W[J], N[J], mode),
                                  cutoff, expo, 1.0, 1)
        star = (mesh.elements[el], J, out, b, excl_cols, excl[J].toarray())
        step = h * local[i]
        for c in range(mesh.ambient_n):
            Vp = V.copy()
            Vp[i, c] += step
            ep = perturbed_energy(i, Vp, star)
            Vp[i, c] -= 2 * step
            em = perturbed_energy(i, Vp, star)
            grad[i, c] = (ep - em) / (2 * step)
    return grad


def project_area(mesh: DiscreteHypersurface) -> DiscreteHypersurface:
    """Rescale about the area centroid so the total measure is exactly 1."""
    lam = mesh.area ** (-1.0 / mesh.dim_d)
    c = mesh.area_centroid
    return mesh.with_vertices(c + lam * (mesh.vertices - c))


def best_fit_sphere(points):
    """Algebraic least-squares sphere fit: center and radius."""
    X = np.asarray(points, float)
    A = np.c_[2 * X, np.ones(len(X))]
    b = np.einsum("ik,ik->i", X, X)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    c = sol[:-1]
    r = np.sqrt(sol[-1] + c @ c)
    return c, float(r)


def hausdorff_to_best_sphere(mesh) -> float:
    c, r = best_fit_sphere(mesh.vertices)
    return float(np.max(np.abs(np.linalg.norm(mesh.vertices - c, axis=1) - r)))


def _smooth_tangential(mesh, eta):
    """Umbrella smoothing restricted to the tangent planes."""
    V = mesh.vertices
    e = mesh.edges
    acc = np.zeros_like(V)
    np.add.at(acc, e[:, 0], V[e[:, 1]])
    np.add.at(acc, e[:, 1], V[e[:, 0]])
    deg = np.bincount(e.T.ravel(), minlength=len(V))
    u = acc / deg[:, None] - V
    n = mesh.vertex_normals
    u -= np.einsum("ik,ik->i", u, n)[:, None] * n
    return V + eta * u


def minimize(mesh, params: EnergyParameters, max_iter=100, step0=1e-2,
             shrink=0.5, grow=2.0, grad_tol=1e-3, min_step=1e-12,
             smoothing=False, smoothing_eta=0.5, fd_h=1e-4, order="gauss3",
             diagonal_policy="skip_vertex_star", workers=None,
             callback=None) -> FlowState:
    """Backtracking gradient descent on B_{s,p} under area == 1.

    Each trial applies the step (and optional tangential smoothing), then
    projects back to unit area; a trial is accepted only if the energy
    strictly decreases, so the accepted-energy sequence is monotone.
    """
    if not params.subcritical(mesh.dim_d):
        warnings.warn("p <= d/s: energy is not subcritical; descent may "
                      "not be meaningful", stacklevel=2)
    workers = get_workers(workers)
    mesh = project_area(mesh)
    min_measure0 = mesh.element_measures.min()
    energy = _bending(mesh, params, order, diagonal_policy, workers)
    step = step0
    traj = []

    def record(it, en, gn):
        traj.append((it, en, mesh.area, gn, hausdorff_to_best_sphere(mesh)))
        if callback is not None:
            callback(traj[-1], mesh)

    it = 0
    gnorm = np.inf
    for it in range(1, max_iter + 1):
        grad = energy_gradient(mesh, params, fd_h, order, diagonal_policy,
                               workers)
        gnorm = float(np.linalg.norm(grad, axis=1).max())
        if it == 1:
            record(0, energy, gnorm)
        if gnorm < grad_tol:
            break
        accepted = False
        while step >= min_step:
            Vt = mesh.vertices - step * grad
            trial = mesh.with_vertices(Vt)
            if smoothing:
                trial = trial.with_vertices(
                    _smooth_tangential(trial, smoothing_eta))
            trial = project_area(trial)
            if trial.element_measures.min() < 1e-10 * min_measure0:
                raise MeshDegenerationError(
                    f"element collapsed at iteration {it}")
            e_trial = _bending(trial, params, order, diagonal_policy, workers)
            if e_trial < energy:
                mesh, energy = trial, e_trial
                accepted = True
                step = min(step * grow, 1e3 * step0)
                break
            step *= shrink
        if not accepted:
            raise StallError(f"no descent step found at iteration {it} "
                             f"(energy {energy:.6g})")
        record(it, energy, gnorm)
    return FlowState(mesh, it, energy, mesh.area, gnorm, step, tuple(traj))
