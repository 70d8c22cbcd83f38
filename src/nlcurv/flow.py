"""Area-constrained gradient descent on the nonlocal bending energy.

The constraint area == 1 is kept active by exact rescaling after every
trial step; descent directions come from central finite differences of
B_{s,p} with respect to vertex positions.  Moving one vertex moves only
the quadrature samples of its star, so each perturbed energy is the base
mesh's kernel sums with the star's columns swapped and the star's rows
recomputed: O(S |star|) work instead of a full O(S^2) evaluation.  A
vertex's perturbations share each kernel pass as groups of one weight
matrix, and the vertices split between worker processes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometry, InvalidParams, ParseError, StallError
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
    _check_int,
    _element_geometry,
    _fork_map,
    _positive,
)

__all__ = [
    "FlowState",
    "energy_gradient",
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
                    diagonal_policy="skip_vertex_star", workers=None):
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
    a bound on its own diameter.

    The 2n perturbed stars of every vertex come from one stacked geometry
    and sample call, one group per perturbation, and a vertex's 2n
    energies take three kernel passes: b, the sums over J with one weight
    column per group, and every group's rows a' against the samples
    outside J.  Where the policy keeps pairs inside the star
    (skip_same_element), a fourth pass adds the rows against the stack,
    each group's rows reading its own column and excluding the other
    groups' elements.  The base sums and then the vertex rows split
    between up to `workers` processes (surface._fork_map), each row
    computed on its own, so the gradient is bitwise equal for any worker
    count.
    """
    workers = get_workers(workers)
    V = mesh.vertices
    e = mesh.edges
    elen = np.linalg.norm(V[e[:, 0]] - V[e[:, 1]], axis=1)
    ends = e.T.ravel()
    deg = np.bincount(ends, minlength=len(V))
    local = np.bincount(ends, np.tile(elen, 2), len(V)) / np.maximum(deg, 1)

    scheme = build_scheme(mesh, order, diagonal_policy)
    Y, W, N, mode, k = inner = _inner_data(mesh, scheme)
    near = _neighbourhoods(mesh, diagonal_policy)
    terms = [(mesh.dim_d + 1 + params.s, 1.0)]  # |A|_s: pairing power 1
    cutoff = _PAIR_CUTOFF * mesh.diameter
    a = _kernel_sums(Y, _rows(near, scheme.element_of), inner, cutoff, terms,
                     workers)[0]
    star_ptr, star_els = _stars(mesh)
    n, M = mesh.ambient_n, mesh.n_elements
    G = 2 * n  # perturbations per vertex: +step, -step along each axis
    groups = np.arange(G)
    step = _FD_STEP * local
    # every star element once per group, with its vertex moved by the
    # group's step: (G, star entries, corners, n), corners unshared
    owner = np.repeat(np.arange(len(V)), np.diff(star_ptr))
    corners = mesh.elements[star_els]
    moved = np.repeat(V[owner][None], G, axis=0)
    moved[groups, :, groups // 2] += np.tile([1.0, -1.0], n)[:, None] \
        * step[owner]
    P = np.repeat(V[corners][None], G, axis=0)
    P[:, corners == owner[:, None]] = moved
    P = P.reshape(-1, n)
    el = np.arange(len(P)).reshape(-1, corners.shape[1])
    nrm, meas, tangents = _element_geometry(P, el)
    if mode == "projection":
        nrm = tangents
    Ys, Ws = _element_samples(P, el, meas, order)
    Ys, Ws = Ys.reshape(G, -1, n), Ws.reshape(G, -1)
    Ns = np.repeat(nrm, k, axis=0).reshape(G, -1, n)

    def vertex_row(i):
        star = star_els[star_ptr[i]:star_ptr[i + 1]]
        m = len(star)
        J = (star[:, None] * k + np.arange(k)).ravel()
        rest = np.ones(M, bool)
        rest[star] = False
        out = np.repeat(rest, k).nonzero()[0]
        # the star elements' exclusions: one row per star element
        block = np.zeros((m, M), bool)
        block[_rows(near, star)] = True
        cols = block.T[scheme.element_of[out]]
        b = a[out] - _kernel_sums(Y[out], cols.nonzero(),
                                  (Y[J], W[J], N[J], mode, k), cutoff,
                                  terms, 1)[0]
        # the vertex's 2n perturbed stars, stacked by group
        mine = slice(star_ptr[i] * k, star_ptr[i + 1] * k)
        ys, ws = Ys[:, mine].reshape(-1, n), Ws[:, mine]
        ns = Ns[:, mine].reshape(-1, n)
        Wg = np.zeros((G, m * k, G))  # group g's weights in column g
        Wg[groups, :, groups] = ws
        Wg = Wg.reshape(-1, G)
        cut = _PAIR_CUTOFF * (mesh.diameter + step[i])
        delta = _kernel_sums(Y[out], np.tile(cols, G).nonzero(),
                             (ys, Wg, ns, mode, k), cut, terms, 1)[0]
        # a' of group g: its star rows against the samples outside J, then
        # against its own group's samples where the policy keeps such pairs
        rows = _kernel_sums(ys, np.tile(np.repeat(block[:, rest], k, axis=0),
                                        (G, 1)).nonzero(),
                            (Y[out], W[out], N[out], mode, k), cut, terms,
                            1)[0].reshape(G, m * k)
        own = block[:, star]
        if not own.all():  # other groups' elements are excluded outright
            excl = np.where(np.eye(G, dtype=bool)[:, None, :, None],
                            own[None, :, None], True).reshape(G * m, G * m)
            rows += _kernel_sums(ys, np.repeat(excl, k, axis=0).nonzero(),
                                 (ys, Wg, ns, mode, k), cut, terms, 1)[0] \
                .reshape(G, m * k, G)[groups, :, groups]
        ap = np.empty((G, len(W)))
        ap[:, out] = (b[:, None] + delta).T
        ap[:, J] = rows
        wp = np.tile(W, (G, 1))
        wp[:, J] = ws
        energy = np.einsum("gs,gs->g", np.abs(params.c_s * ap) ** params.p, wp)
        return (energy[0::2] - energy[1::2]) / (2 * step[i])

    def share(sl):
        return np.array([vertex_row(i) for i in range(sl.start, sl.stop)])

    # the b pass and each perturbation's two passes: about |J| S pairs each
    cost = np.diff(star_ptr) * k * len(W) * (2 * G + 1)
    return _fork_map(share, cost, n, workers)


def _project_area(mesh: DiscreteHypersurface) -> DiscreteHypersurface:
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
    strictly decreases, so the accepted-energy sequence is monotone.  A
    trial whose step moves coordinates out of range, collapses or
    degenerates an element, or brings two samples together is rejected
    like one that raises the energy.
    """
    _check_int("max_iter", max_iter, 1)
    _positive("step0", step0)
    if not np.isfinite(grad_tol):
        raise InvalidParams(f"grad_tol must be finite, got {grad_tol}")
    if not params.subcritical(mesh.dim_d):
        warnings.warn("p <= d/s: energy is not subcritical; descent may "
                      "not be meaningful", stacklevel=2)
    workers = get_workers(workers)
    mesh = _project_area(mesh)
    min_measure0 = mesh.element_measures.min()
    energy = _bending(mesh, params, order, diagonal_policy, workers)
    step = step0
    traj = []

    def record(it, en, gn):
        traj.append((it, en, mesh.area, gn, hausdorff_to_best_sphere(mesh)))
        if callback is not None:
            callback(traj[-1], mesh)

    for it in range(1, max_iter + 1):
        grad = energy_gradient(mesh, params, order, diagonal_policy, workers)
        gnorm = float(np.linalg.norm(grad, axis=1).max())
        if it == 1:
            record(0, energy, gnorm)
        if gnorm < grad_tol:
            break
        accepted = False
        while step >= _MIN_STEP:
            try:
                trial = mesh.with_vertices(mesh.vertices - step * grad)
                if smoothing:
                    trial = trial.with_vertices(
                        _smooth_tangential(trial, _SMOOTHING_ETA))
                trial = _project_area(trial)
                collapsed = trial.element_measures.min() < 1e-10 * min_measure0
                e_trial = np.inf if collapsed else _bending(
                    trial, params, order, diagonal_policy, workers)
            except (ParseError, DegenerateGeometry):
                e_trial = np.inf
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
