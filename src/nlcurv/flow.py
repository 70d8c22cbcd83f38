"""Area-constrained gradient descent on the nonlocal bending energy.

The constraint area == 1 is kept active by exact rescaling after every
trial step; descent directions come from central finite differences of
B_{s,p} with respect to vertex positions.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams, MeshDegenerationError, StallError
from .functionals import bending_energy, get_workers
from .quadrature import build_scheme
from .surface import DiscreteHypersurface, EnergyParameters

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


def energy_gradient(mesh, params, h=1e-4, order="gauss3",
                    diagonal_policy="skip_vertex_star", workers=None):
    """Central-difference gradient of B_{s,p} w.r.t. vertex positions.

    The per-vertex step is h times the mean incident edge length, so the
    stencil scales with local resolution.
    """
    if h <= 0:
        raise InvalidParams("finite-difference step must be positive")
    workers = get_workers(workers)
    V = mesh.vertices
    e = mesh.edges
    elen = np.linalg.norm(V[e[:, 0]] - V[e[:, 1]], axis=1)
    ends = e.T.ravel()
    deg = np.bincount(ends, minlength=len(V))
    local = np.bincount(ends, np.tile(elen, 2), len(V)) / np.maximum(deg, 1)

    jobs = [(i, k) for i in range(len(V)) for k in range(mesh.ambient_n)]
    grad = np.zeros_like(V)

    def do(job):
        i, k = job
        step = h * local[i]
        Vp = V.copy()
        Vp[i, k] += step
        ep = _bending(mesh.with_vertices(Vp), params, order, diagonal_policy, 1)
        Vp[i, k] -= 2 * step
        em = _bending(mesh.with_vertices(Vp), params, order, diagonal_policy, 1)
        grad[i, k] = (ep - em) / (2 * step)

    if workers == 1:
        for j in jobs:
            do(j)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(do, jobs))
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
