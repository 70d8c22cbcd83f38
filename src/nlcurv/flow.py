"""Area-constrained gradient descent on the nonlocal bending energy.

The constraint area == 1 is kept active by exact rescaling after every
trial step; descent directions come from central finite differences of
B_{s,p} with respect to vertex positions.  Moving one vertex moves only
the quadrature samples of its star, so each perturbed energy is the base
mesh's kernel sums with the star's columns swapped and the star's rows
recomputed: O(S |star|) work instead of a full O(S^2) evaluation.  A
vertex's perturbations share one star pass, which computes each pair
between the star, moved or not, and the rest of the mesh once, for the
rest's sums over the star and the moved star's rows alike.  The base
sums are the rows of the latest full B pass, which minimize hands over,
and the vertices split between worker processes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometry, InvalidParams, ParseError, StallError
from .functionals import (
    _PAIR_CUTOFF,
    _TILE_PAIRS,
    _blocks,
    _energies,
    _inner_data,
    _inv_power,
    _kernel_sums,
    _neighbourhoods,
    _rows,
    _stars,
    get_workers,
)
# unused here, kept as flow.bending_energy for bench/tracer.py to rebind
from .functionals import bending_energy  # noqa: F401
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


def _bending(mesh, params, order, policy, workers, bound=None):
    """(B, kernel rows a) of mesh: a are the |A|_s sums per sample, the
    gradient's base sums.  With a bound, B is +inf, and a holds +inf rows,
    as soon as the rows summed so far show that B exceeds it
    (functionals._energies)."""
    scheme = build_scheme(mesh, order, policy)
    reports, sums = _energies(mesh, scheme, ["bending"], workers, params,
                              bound=bound, rows=True)
    return reports[0].energy, sums[0]


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

    The 2n perturbed stars J' of every vertex come from one stacked
    geometry and sample call, one group per perturbation.  A vertex's 2n
    energies take one star pass (_star_pass) over the pairs between the
    samples outside J and J or J': it gives b, the sums over J' with one
    weight column per group, and every group's rows a' against the
    samples outside J.  Where the policy keeps pairs inside the star
    (skip_same_element), a kernel pass adds the rows against the stack,
    each group's rows reading its own column and excluding the other
    groups' elements.  The base sums a are the rows of a full B pass,
    which minimize hands over from its latest one.  The vertex rows split
    between up to `workers` processes (surface._fork_map), each row
    computed on its own, so the gradient is bitwise equal for any worker
    count.
    """
    workers = get_workers(workers)
    a = _bending(mesh, params, order, diagonal_policy, workers)[1]
    return _gradient(mesh, params, order, diagonal_policy, workers, a)


def _star_exclusions(mesh, near, stars, k):
    """Per vertex, as CSR over the vertices: the (row, q) pairs in row order
    where row r of the samples outside its star, numbered in element
    order, is excluded from the star element at position q; and the
    (q, q') pairs of star elements that exclude each other."""
    star_ptr, star_els = stars
    V, M = mesh.n_vertices, mesh.n_elements
    owner = np.repeat(np.arange(V), np.diff(star_ptr))
    at, f = _rows(near, star_els)  # star entry, an element it excludes
    i, q = owner[at], at - star_ptr[owner[at]]
    keys = owner * M + star_els  # increasing: each star in element order
    pos = np.searchsorted(keys, i * M + f)
    inside = keys[np.minimum(pos, len(keys) - 1)] == i * M + f
    o = ~inside  # pos - star_ptr star elements come before f
    row = ((f[o] - pos[o] + star_ptr[i[o]]) * k)[:, None] + np.arange(k)
    vi, qi = np.repeat(i[o], k), np.repeat(q[o], k)
    order = np.lexsort((row.ravel(), vi))
    return ((np.searchsorted(vi[order], np.arange(V + 1)),
             row.ravel()[order], qi[order]),
            (np.searchsorted(i[inside], np.arange(V + 1)), q[inside],
             pos[inside] - star_ptr[i[inside]]))


def _tile_sums(P, w, tile):
    """P @ w as _kernel_sums sums a block: one C-contiguous product per
    tile of P's columns, added in order from zero."""
    total = np.zeros(P.shape[:1] + w.shape[1:])
    for c in range(0, len(w), tile):
        total = total + np.ascontiguousarray(P[:, c:c + tile]) @ w[c:c + tile]
    return total


def _star_pass(outer, star, wJ, Wg, excl, mode, k, expo, cutoffs):
    """One vertex's kernel sums between the samples outside its star and
    the star's columns, its samples J then the G groups of moved samples
    J': b's sums over J (weights wJ), delta's over J' (weight column g for
    group g, Wg) and rows, each J' sample's sum over the outer samples.

    outer is (positions, pairing directions, weights) of the outer
    samples, star the (positions, pairing directions) of J and J', excl
    the (outer row, star position) pairs that the star's elements
    exclude, and cutoffs the pair cutoffs of J and of J'.  Each sum is
    _kernel_sums' over the same pairs, bit for bit: each BLAS product
    keeps that pass's operands, shape, C order and blocks (_blocks), and
    rows' GEMV reads C-contiguous copies of the reverse products.
    """
    X, WX = outer[0], outer[2]
    R = np.empty((len(X), len(star[0]) - len(wJ)))
    b, delta = _star_forward(outer, star, wJ, Wg, excl, mode, k, expo,
                             cutoffs, R)
    tile, block = _blocks(R.shape[1], len(X), k)
    rows = [_tile_sums(R[:, c:c + block].T, WX, tile)
            for c in range(0, R.shape[1], block)]
    return b, delta, np.concatenate(rows)


def _star_forward(outer, star, wJ, Wg, excl, mode, k, expo, cutoffs, R):
    """_star_pass' b and delta; fills R with the reverse products
    |<c - x, n(x)>| r^-expo of the J' columns c.

    Each pair's difference, r^2, exclusion, cutoff check and r^-expo are
    computed once, in blocks of outer rows with four buffers of half a
    tile each.  The forward pairing <x - c, n(c)> is taken for every star
    column, the reverse one as <x - c, n(x)>: the same products with the
    opposite sign, so the same |pairing| (in projection mode, the same
    square), both before exclusion parks r^2 at +inf.  The forward
    products fill the operands of b's GEMV, blocks of
    min(|out|, 2^16 // |J|) rows, and delta's GEMM, blocks of
    2^16 // (G |J|) rows, each run once its block is full.
    """
    X, NX, _ = outer
    C, NC = star
    nX, nJ, ncol = len(X), len(wJ), len(C)
    GJ, m = ncol - nJ, nJ // k
    ex_r, ex_q = excl
    Ct, NCt = C.T.copy(), NC.T.copy()
    b, delta = np.empty(nX), np.empty((nX, Wg.shape[1]))
    products = []  # (operand, its rows, star columns, weights, tile, sums)
    for cols, w, sums in ((slice(0, nJ), wJ, b),
                          (slice(nJ, None), Wg, delta)):
        tile, rows = _blocks(nX, len(w), k)
        products.append((np.empty((rows, len(w))), rows, cols, w, tile,
                         sums))
    limits = [c * c for c in cutoffs]
    step = max(1, min(nX, _TILE_PAIRS // (2 * ncol)))
    buf = np.empty((4, step * ncol))
    for lo in range(0, nX, step):
        hi = min(lo + step, nX)
        diff, r2, dot, tmp = (v.reshape(hi - lo, ncol)
                              for v in buf[:, :(hi - lo) * ncol])
        rev = R[lo:hi]
        trev = buf[3, :(hi - lo) * GJ].reshape(hi - lo, GJ)  # tmp's memory
        for j, (x, c, t, u) in enumerate(zip(X[lo:hi].T, Ct, NCt,
                                             NX[lo:hi].T)):
            np.subtract(x[:, None], c, out=diff)
            if j == 0:
                np.multiply(diff, t, out=dot)
                np.multiply(diff[:, nJ:], u[:, None], out=rev)
                np.multiply(diff, diff, out=r2)
            else:
                dot += np.multiply(diff, t, out=tmp)
                rev += np.multiply(diff[:, nJ:], u[:, None], out=trev)
                r2 += np.multiply(diff, diff, out=tmp)
        if mode == "projection":
            for d, sq, r in ((dot, tmp, r2), (rev, trev, r2[:, nJ:])):
                np.subtract(r, np.multiply(d, d, out=sq), out=sq)
                np.sqrt(np.maximum(sq, 0.0, out=sq), out=d)
        e0, e1 = np.searchsorted(ex_r, (lo, hi))
        r2.reshape(hi - lo, -1, m, k)[ex_r[e0:e1] - lo, :, ex_q[e0:e1]] = \
            np.inf
        if r2.min() < max(limits) and (r2[:, :nJ].min() < limits[0] or
                                       r2[:, nJ:].min() < limits[1]):
            raise DegenerateGeometry("non-excluded sample pair closer than "
                                     "the cutoff")
        kern = _inv_power(r2, expo, diff)
        np.abs(np.multiply(rev, kern[:, nJ:], out=rev), out=rev)
        for operand, rows, cols, w, tile, sums in products:
            a = lo
            while a < hi:  # rows a:z of the block starting at row first
                first = a - a % rows
                z = min(first + rows, hi)
                part = operand[a - first:z - first]
                np.abs(np.multiply(dot[a - lo:z - lo, cols],
                                   kern[a - lo:z - lo, cols], out=part),
                       out=part)
                if z == min(first + rows, nX):
                    sums[first:z] = _tile_sums(operand[:z - first], w, tile)
                a = z
    return b, delta


def _moved_stars(mesh, stars, step, order, mode):
    """Every star once per group g, with its vertex moved by +step (even
    g) or -step (odd g) along axis g // 2: sample positions (G, star
    samples, n), weights (G, star samples) and the moved elements'
    pairing directions (G, star entries, n)."""
    star_ptr, star_els = stars
    V, n = mesh.vertices, mesh.ambient_n
    groups = np.arange(2 * n)
    # (G, star entries, corners, n), corners unshared
    owner = np.repeat(np.arange(len(V)), np.diff(star_ptr))
    corners = mesh.elements[star_els]
    moved = np.repeat(V[owner][None], 2 * n, axis=0)
    moved[groups, :, groups // 2] += np.tile([1.0, -1.0], n)[:, None] \
        * step[owner]
    P = np.repeat(V[corners][None], 2 * n, axis=0)
    P[:, corners == owner[:, None]] = moved
    P = P.reshape(-1, n)
    el = np.arange(len(P)).reshape(-1, corners.shape[1])
    nrm, meas, tangents = _element_geometry(P, el)
    Ys, Ws = _element_samples(P, el, meas, order)
    return (Ys.reshape(2 * n, -1, n), Ws.reshape(2 * n, -1),
            (tangents if mode == "projection" else nrm).reshape(2 * n, -1, n))


def _gradient(mesh, params, order, policy, workers, a):
    """energy_gradient from the base sums a of the mesh's full B pass."""
    V = mesh.vertices
    e = mesh.edges
    elen = np.linalg.norm(V[e[:, 0]] - V[e[:, 1]], axis=1)
    ends = e.T.ravel()
    deg = np.bincount(ends, minlength=len(V))
    local = np.bincount(ends, np.tile(elen, 2), len(V)) / deg

    scheme = build_scheme(mesh, order, policy)
    Y, W, N, mode, k = _inner_data(mesh, scheme)
    near = _neighbourhoods(mesh, policy)
    expo = mesh.dim_d + 1 + params.s
    terms = [(expo, 1.0)]  # |A|_s: pairing power 1
    cutoff = _PAIR_CUTOFF * mesh.diameter
    star_ptr, star_els = stars = _stars(mesh)
    (ex_ptr, ex_row, ex_pos), (own_ptr, own_q, own_r) = \
        _star_exclusions(mesh, near, stars, k)
    n, M = mesh.ambient_n, mesh.n_elements
    G = 2 * n  # perturbations per vertex: +step, -step along each axis
    groups = np.arange(G)
    step = _FD_STEP * local
    Ys, Ws, Ns = _moved_stars(mesh, stars, step, order, mode)

    def vertex_row(i):
        star = star_els[star_ptr[i]:star_ptr[i + 1]]
        m = len(star)
        J = (star[:, None] * k + np.arange(k)).ravel()
        rest = np.ones(M, bool)
        rest[star] = False
        out = np.repeat(rest, k).nonzero()[0]
        # the vertex's 2n perturbed stars, stacked by group
        mine = slice(star_ptr[i] * k, star_ptr[i + 1] * k)
        ys, ws = Ys[:, mine].reshape(-1, n), Ws[:, mine]
        ns = np.repeat(Ns[:, star_ptr[i]:star_ptr[i + 1]], k, axis=1) \
            .reshape(-1, n)
        Wg = np.zeros((G, m * k, G))  # group g's weights in column g
        Wg[groups, :, groups] = ws
        Wg = Wg.reshape(-1, G)
        cut = _PAIR_CUTOFF * (mesh.diameter + step[i])
        e0, e1 = ex_ptr[i:i + 2]
        b, delta, rows = _star_pass(
            (Y[out], N[out], W[out]),
            (np.concatenate([Y[J], ys]), np.concatenate([N[J], ns])), W[J],
            Wg, (ex_row[e0:e1], ex_pos[e0:e1]), mode, k, expo,
            (cutoff, cut))
        rows = rows.reshape(G, m * k)
        own = np.zeros((m, m), bool)
        own[own_q[own_ptr[i]:own_ptr[i + 1]],
            own_r[own_ptr[i]:own_ptr[i + 1]]] = True
        if not own.all():  # other groups' elements are excluded outright
            excl = np.where(np.eye(G, dtype=bool)[:, None, :, None],
                            own[None, :, None], True).reshape(G * m, G * m)
            rows += _kernel_sums(ys, np.repeat(excl, k, axis=0).nonzero(),
                                 (ys, Wg, ns, mode, k), cut, terms, 1)[0] \
                .reshape(G, m * k, G)[groups, :, groups]
        ap = np.empty((G, len(W)))
        ap[:, out] = ((a[out] - b)[:, None] + delta).T
        ap[:, J] = rows
        wp = np.tile(W, (G, 1))
        wp[:, J] = ws
        energy = np.einsum("gs,gs->g", np.abs(params.c_s * ap) ** params.p, wp)
        return (energy[0::2] - energy[1::2]) / (2 * step[i])

    def share(sl):
        return np.array([vertex_row(i) for i in range(sl.start, sl.stop)])

    # one star pass: about (G + 1) |J| S pairs
    cost = np.diff(star_ptr) * k * len(W) * (G + 1)
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
    like one that raises the energy.  B is a sum of non-negative rows, so
    a trial's pass stops as soon as the rows summed so far exceed the
    current energy (functionals._energies' bound): it rejects the trials
    that the full pass would, and an accepted energy and its rows are the
    full pass's, bit for bit.  So each gradient takes its base sums from
    the latest full pass, the initial energy's or the accepted trial's,
    and a run makes one unbounded pass over all the samples.
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
    energy, base = _bending(mesh, params, order, diagonal_policy, workers)
    step = step0
    traj = []

    def record(it, en, gn):
        traj.append((it, en, mesh.area, gn, hausdorff_to_best_sphere(mesh)))
        if callback is not None:
            callback(traj[-1], mesh)

    for it in range(1, max_iter + 1):
        grad = _gradient(mesh, params, order, diagonal_policy, workers, base)
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
                e_trial, rows = (np.inf, None) if collapsed else _bending(
                    trial, params, order, diagonal_policy, workers, energy)
            except (ParseError, DegenerateGeometry):
                e_trial, rows = np.inf, None
            if e_trial < energy:
                mesh, energy, base = trial, e_trial, rows
                accepted = True
                step = min(step * _GROW, 1e3 * step0)
                break
            step *= _SHRINK
        if not accepted:
            raise StallError(f"no descent step found at iteration {it} "
                             f"(energy {energy:.6g})")
        record(it, energy, gnorm)
    return FlowState(mesh, it, energy, mesh.area, gnorm, step, tuple(traj))
