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
    _inner_data,
    _kernel_sums,
    _neighbourhoods,
    _rows,
    _stars,
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


_FD_STEP = 1e-4  # central-difference step, times the mean incident edge


def energy_gradient(mesh, params, order="gauss3",
                    diagonal_policy="skip_vertex_star"):
    """Central-difference gradient of B_{s,p} w.r.t. vertex positions.

    The per-vertex step is _FD_STEP times the mean incident edge length,
    so the stencil scales with local resolution.  Each perturbed energy is
    evaluated star-locally.  With a the kernel sums of the base mesh and
    J the samples of vertex i's star elements,

        E' = sum_{x not in J} w_x |c_s (b_x + sum_{y in J} K'(x,y) w'_y)|^p
           + sum_{x in J} w'_x |c_s a'_x|^p,

    where b_x = a_x - sum_{y in J} K(x,y) w_y is shared by the vertex's
    perturbations and a'_x is a full row against the perturbed samples.
    The exclusions and the element-measure check are those of the
    perturbed mesh; its pair cutoff uses the base diameter plus the step,
    a bound on its own diameter.  The work runs in one thread: threads
    over vertices measured no faster, as each vertex's calls are small.
    """
    V = mesh.vertices
    e = mesh.edges
    elen = np.linalg.norm(V[e[:, 0]] - V[e[:, 1]], axis=1)
    ends = e.T.ravel()
    deg = np.bincount(ends, minlength=len(V))
    local = np.bincount(ends, np.tile(elen, 2), len(V)) / np.maximum(deg, 1)

    scheme = build_scheme(mesh, order, diagonal_policy)
    Y, W, N, mode, k = inner = _inner_data(mesh, scheme)
    near = _neighbourhoods(mesh, diagonal_policy)
    expo = mesh.dim_d + 1 + params.s
    cutoff = _PAIR_CUTOFF * mesh.diameter
    # |A|_s sums (pairing power 1) at every sample, in one thread
    a = _kernel_sums(Y, _rows(near, scheme.element_of), inner, cutoff,
                     [(expo, 1.0)], 1)[0]
    star_ptr, star_els = _stars(mesh)
    geometry = _segment_geometry if mesh.dim_d == 1 else _triangle_geometry

    def perturbed_energy(Vp):  # the star is that of the loop's vertex i
        nrm, meas = geometry(Vp, el)
        if meas.min() <= 0:
            raise ParseError("degenerate element with non-positive measure")
        if mode == "projection":
            nrm = (Vp[el[:, 1]] - Vp[el[:, 0]]) / meas[:, None]
        Ys, Ws = _element_samples(Vp, el, meas, order)
        Ns = np.repeat(nrm, k, axis=0)
        Yp, Wp, Np = Y.copy(), W.copy(), N.copy()
        Yp[J], Wp[J], Np[J] = Ys, Ws, Ns
        ap = np.empty_like(a)
        ap[out] = b + _kernel_sums(Y[out], excl_cols, (Ys, Ws, Ns, mode, k),
                                   cut, [(expo, 1.0)], 1)[0]
        ap[J] = _kernel_sums(Ys, excl_rows, (Yp, Wp, Np, mode, k), cut,
                             [(expo, 1.0)], 1)[0]
        return float(np.abs(params.c_s * ap) ** params.p @ Wp)

    grad = np.empty_like(V)
    for i in range(len(V)):
        star = star_els[star_ptr[i]:star_ptr[i + 1]]
        J = (star[:, None] * k + np.arange(k)).ravel()
        out = np.setdiff1d(np.arange(len(W)), J)
        # the star elements' exclusions: one row per star element
        block = np.zeros((len(star), mesh.n_elements), bool)
        block[_rows(near, star)] = True
        excl_cols = block.T[scheme.element_of[out]].nonzero()
        excl_rows = np.repeat(block, k, axis=0).nonzero()
        b = a[out] - _kernel_sums(Y[out], excl_cols,
                                  (Y[J], W[J], N[J], mode, k), cutoff,
                                  [(expo, 1.0)], 1)[0]
        el = mesh.elements[star]
        step = _FD_STEP * local[i]
        cut = _PAIR_CUTOFF * (mesh.diameter + step)
        for c in range(mesh.ambient_n):
            Vp = V.copy()
            Vp[i, c] += step
            ep = perturbed_energy(Vp)
            Vp[i, c] -= 2 * step
            em = perturbed_energy(Vp)
            grad[i, c] = (ep - em) / (2 * step)
    return grad


def project_area(mesh: DiscreteHypersurface) -> DiscreteHypersurface:
    """Rescale about the area centroid so the total measure is exactly 1."""
    lam = mesh.area ** (-1.0 / mesh.dim_d)
    c = mesh.area_centroid
    return mesh.with_vertices(c + lam * (mesh.vertices - c))


def _best_fit_sphere(points):
    """Algebraic least-squares sphere fit: center and radius."""
    X = np.asarray(points, float)
    A = np.c_[2 * X, np.ones(len(X))]
    b = np.einsum("ik,ik->i", X, X)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    c = sol[:-1]
    r = np.sqrt(sol[-1] + c @ c)
    return c, float(r)


def hausdorff_to_best_sphere(mesh) -> float:
    c, r = _best_fit_sphere(mesh.vertices)
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


# line search: a rejected trial multiplies the step by _SHRINK, an accepted
# one by _GROW (capped at 1e3 step0); below _MIN_STEP the search stalls
_SHRINK, _GROW, _MIN_STEP = 0.5, 2.0, 1e-12
_SMOOTHING_ETA = 0.5  # fraction of the tangential umbrella move per trial


def minimize(mesh, params: EnergyParameters, max_iter=100, step0=1e-2,
             grad_tol=1e-3, smoothing=False, order="gauss3",
             diagonal_policy="skip_vertex_star", workers=None,
             callback=None) -> FlowState:
    """Backtracking gradient descent on B_{s,p} under area == 1.

    Each trial applies the step (and optional tangential smoothing), then
    projects back to unit area; a trial is accepted only if the energy
    strictly decreases, so the accepted-energy sequence is monotone.
    """
    if not (0.0 < step0 < np.inf) or not np.isfinite(grad_tol):
        raise InvalidParams("step0 must be finite and positive and grad_tol "
                            "finite")
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
        grad = energy_gradient(mesh, params, order, diagonal_policy)
        gnorm = float(np.linalg.norm(grad, axis=1).max())
        if it == 1:
            record(0, energy, gnorm)
        if gnorm < grad_tol:
            break
        accepted = False
        while step >= _MIN_STEP:
            Vt = mesh.vertices - step * grad
            trial = mesh.with_vertices(Vt)
            if smoothing:
                trial = trial.with_vertices(
                    _smooth_tangential(trial, _SMOOTHING_ETA))
            trial = project_area(trial)
            if trial.element_measures.min() < 1e-10 * min_measure0:
                raise MeshDegenerationError(
                    f"element collapsed at iteration {it}")
            e_trial = _bending(trial, params, order, diagonal_policy, workers)
            if e_trial < energy:
                mesh, energy = trial, e_trial
                accepted = True
                step = min(step * _GROW, 1e3 * step0)
                break
            step *= _SHRINK
        if not accepted:
            raise StallError(f"no descent step found at iteration {it} "
                             f"(energy {energy:.6g})")
        record(it, energy, gnorm)
    return FlowState(mesh, it, energy, mesh.area, gnorm, step, tuple(traj))
