"""Worker processes of the kernel passes, the geodesic search, the patch
probe and the flow gradient.

Outputs are bitwise equal for any worker count, a failing share raises
its typed error in the caller, and no child outlives the call.  The
`forks` fixture counts the forks, to show that each test takes the fork
path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_bumpy_polygon, traced_peak
from nlcurv import functionals, surface
from nlcurv.errors import DegenerateGeometry, DisconnectedMesh, InvalidParams
from nlcurv.flow import _FD_STEP, energy_gradient
from nlcurv.functionals import _energies, bending_energy, pointwise_curvature
from nlcurv.geodesics import _SOURCE_BLOCK, intrinsic_distances
from nlcurv.probes import patch_radii
from nlcurv.quadrature import build_scheme
from nlcurv.seminorms import ScalarField, _seminorms
from nlcurv.surface import EnergyParameters, build_surface, make_primitive

WORKERS = (1, 2, 3)
PARAMS = EnergyParameters(s=0.5, p=5.0)


def _perturbed(sub):
    return make_primitive("perturbed_sphere", amplitude=0.05, seed=3,
                          subdivisions=sub)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The list of fork calls made by this process during the test."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


def test_patch_radii_equal_for_any_worker_count(forks, monkeypatch):
    mesh = _perturbed(2)
    # a coarse grid leaves some vertices no patch, and its 81 nodes per
    # vertex fork only under a smaller budget
    monkeypatch.setattr(surface, "_PAIR_BUDGET", 2048)
    radii = []
    for w in WORKERS:
        radii.append(patch_radii(mesh, workers=w, grid_step=0.15))
        assert_no_children()
    assert forks and np.isnan(radii[0]).any()
    for r in radii[1:]:
        assert np.array_equal(r, radii[0], equal_nan=True)


def test_intrinsic_seminorms_equal_for_any_worker_count(forks):
    mesh = _perturbed(3)
    field = ScalarField(mesh, mesh.vertices[:, 2] ** 2)
    alpha, q, beta = 0.25, 3.0, 0.75
    got = []
    for w in WORKERS:
        got.append(_seminorms(field, alpha, q, beta, "intrinsic", w))
        assert_no_children()
    assert forks
    assert got[1] == got[0] and got[2] == got[0]

    D = intrinsic_distances(mesh)
    np.fill_diagonal(D, np.inf)
    f, w = field.values, mesh.vertex_measures
    df = np.abs(f[:, None] - f)
    inner = (df ** q / D ** (mesh.dim_d + alpha * q) * w).sum(axis=1)
    assert got[0] == (float(inner @ w) ** (1 / q),
                      float(np.max(df / D ** beta)))


def test_disconnected_mesh_raises_its_type_from_the_workers(forks):
    circle = make_primitive("circle", n=128)
    n = circle.n_vertices
    two = build_surface(np.vstack([circle.vertices, 2.0 * circle.vertices]),
                        np.vstack([circle.elements, circle.elements + n]))
    field = ScalarField(two, two.vertices[:, 0])
    with pytest.raises(DisconnectedMesh):
        _seminorms(field, 0.5, 2.0, 0.5, "intrinsic", 2)
    assert forks
    assert_no_children()


@pytest.mark.parametrize("name", ["perturbed_sub1", "polygon2d",
                                  "polygon3d"])
def test_gradient_equal_for_any_worker_count(forks, name):
    mesh = (_perturbed(1) if name == "perturbed_sub1"
            else make_bumpy_polygon(int(name[-2])))
    got = []
    for w in WORKERS:
        got.append(energy_gradient(mesh, PARAMS, workers=w))
        assert_no_children()
    assert forks
    for g in got[1:]:
        assert np.array_equal(g, got[0])


def test_gradient_degenerate_star_raises_from_a_child_share(forks):
    # a triangle loop beside the circle holds a copy of segment (i, i + 1)
    # with vertex i moved by its gradient step along x, so the perturbed
    # star of i, a vertex of the second share, has samples coinciding with
    # the loop's; the unperturbed mesh has none
    circle = make_primitive("circle", n=128)
    V, n, i = circle.vertices, circle.n_vertices, 100
    local = np.linalg.norm(V[[i, i - 1]] - V[[i + 1, i]], axis=1).sum() / 2
    moved = V[i].copy()
    moved[0] += _FD_STEP * local
    loop = [moved, V[i + 1], 1.3 * (V[i] + V[i + 1])]
    mesh = build_surface(np.vstack([V, loop]),
                         np.vstack([circle.elements,
                                    [[n, n + 1], [n + 1, n + 2], [n + 2, n]]]))
    for w in (1, 2):
        with pytest.raises(DegenerateGeometry):
            energy_gradient(mesh, PARAMS, workers=w)
        assert_no_children()
    assert forks


def test_energies_and_curvature_equal_for_any_worker_count(forks,
                                                           monkeypatch):
    # a smaller fork threshold lets sub2's passes fork; its 68-row blocks
    # give each share several
    mesh = _perturbed(2)
    sc = build_scheme(mesh)
    monkeypatch.setattr(functionals, "_FORK_PAIRS", 1 << 12)
    got = []
    for w in WORKERS:
        reports = _energies(mesh, sc, ["bending", "willmore",
                                       "tangent_point"], w, PARAMS, 4.0, 6.0)
        got.append(([r.energy for r in reports],
                    pointwise_curvature(mesh, sc, PARAMS, kind="H",
                                        workers=w),
                    pointwise_curvature(mesh, sc, PARAMS, kind="A",
                                        workers=w)))
        assert_no_children()
    assert forks
    for energies, H, A in got[1:]:
        assert energies == got[0][0]
        assert np.array_equal(H, got[0][1]) and np.array_equal(A, got[0][2])


def test_kernel_degenerate_pair_raises_from_a_child_share(forks):
    # a triangle loop beside the circle holds a copy of segment 800, whose
    # two samples coincide with the copy's: of the 2054 rows (blocks of
    # 31), rows 1600-1601 and the loop's last six lie in the second share,
    # and the caller's share is clean
    circle = make_primitive("circle", n=1024)
    V, n, i = circle.vertices, circle.n_vertices, 800
    loop = [V[i], V[i + 1], 1.3 * (V[i] + V[i + 1])]
    mesh = build_surface(np.vstack([V, loop]),
                         np.vstack([circle.elements,
                                    [[n, n + 1], [n + 1, n + 2], [n + 2, n]]]))
    sc = build_scheme(mesh)
    assert sc.n_samples == 2054
    for w in (1, 2):
        with pytest.raises(DegenerateGeometry):
            bending_energy(mesh, sc, PARAMS, workers=w)
        assert_no_children()
    assert forks


def test_small_energy_makes_no_fork(forks):
    # the flow's line search: S = 240 samples, 57,600 pairs, far less than
    # a fork costs
    mesh = _perturbed(1)
    sc = build_scheme(mesh)
    assert sc.n_samples == 240
    bending_energy(mesh, sc, PARAMS, workers=2)
    assert forks == []


@pytest.mark.parametrize("bad", [0, -1, "two", 2.5, True])
def test_worker_count_validated(sphere1, bad):
    field = ScalarField(sphere1, sphere1.vertices[:, 0])
    sc = build_scheme(sphere1)
    with pytest.raises(InvalidParams):
        patch_radii(sphere1, workers=bad)
    with pytest.raises(InvalidParams):
        _seminorms(field, 0.5, 2.0, 0.5, "intrinsic", bad)
    with pytest.raises(InvalidParams):
        energy_gradient(sphere1, PARAMS, workers=bad)
    with pytest.raises(InvalidParams):
        _energies(sphere1, sc, ["bending", "tangent_point"], bad, PARAMS,
                  4.0, 6.0)
    with pytest.raises(InvalidParams):
        pointwise_curvature(sphere1, sc, PARAMS, workers=bad)


def _rows(sl):
    return np.arange(sl.start, sl.stop, dtype=float)[:, None] * [1.0, -1.0]


def test_map_rows_do_not_depend_on_the_split(forks):
    for skew in (1, 5, 40):  # the first row costs skew times the others
        cost = np.full(11, surface._PAIR_BUDGET)
        cost[0] *= skew
        for w in WORKERS:
            assert np.array_equal(surface._fork_map(_rows, cost, 2, w),
                                  _rows(slice(0, 11)))
            assert_no_children()
    assert forks


def test_map_shares_split_the_cost(forks):
    # 15 units in two shares: the caller's share ends after 7 units, at
    # row 3, where equal row counts would end it at row 5
    seen = []

    def rows(sl):
        seen.append(sl)
        return _rows(sl)

    cost = np.full(11, surface._PAIR_BUDGET)
    cost[0] *= 5
    assert np.array_equal(surface._fork_map(rows, cost, 2, 2),
                          _rows(slice(0, 11)))
    assert forks and seen == [slice(0, 3)]
    assert_no_children()


def test_map_reruns_a_failed_child_share_in_the_caller(forks):
    def late_rows_fail(sl):
        if sl.stop > 5:
            raise DegenerateGeometry("rows 5 and on are degenerate")
        return _rows(sl)

    with pytest.raises(DegenerateGeometry):
        surface._fork_map(late_rows_fail, np.full(10, surface._PAIR_BUDGET),
                          2, 2)
    assert forks
    assert_no_children()


def test_map_stays_in_one_process_below_the_budget(forks):
    cost = np.full(4, surface._PAIR_BUDGET // 2)
    assert np.array_equal(surface._fork_map(_rows, cost, 2, 2),
                          _rows(slice(0, 4)))
    assert forks == []


def test_map_compares_the_cost_with_the_processes_it_starts(forks,
                                                           monkeypatch):
    # 4 budgets of cost on 2 cores: two processes pay for their fork
    # whether 2 or 8 workers are asked for
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    cost = np.full(8, surface._PAIR_BUDGET // 2)
    for w in (2, 8):
        del forks[:]
        assert np.array_equal(surface._fork_map(_rows, cost, 2, w),
                              _rows(slice(0, 8)))
        assert len(forks) == 1
        assert_no_children()


def test_intrinsic_seminorms_memory_is_one_search_block():
    # the (V, V) distance matrix they used to hold is 52 MB here
    mesh = _perturbed(4)
    mesh.edges
    field = ScalarField(mesh, mesh.vertices[:, 2] ** 2)
    V, E = mesh.n_vertices, len(mesh.edges)
    peak, _ = traced_peak(
        lambda: _seminorms(field, 0.5, 2.0, 0.5, "intrinsic", 1))
    assert peak <= 8 * _SOURCE_BLOCK * ((V + E) + 4 * V)


def test_map_runs_a_share_here_when_fork_fails(monkeypatch):
    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    cost = np.full(6, surface._PAIR_BUDGET)
    assert np.array_equal(surface._fork_map(_rows, cost, 2, 2),
                          _rows(slice(0, 6)))


# run in a fresh interpreter: the BLAS thread count of each share while
# the map runs, and this process's before and after it
_BLAS_CODE = """
import ctypes, glob, json, os
import numpy as np
from nlcurv import surface
libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                              "numpy.libs", "libscipy_openblas64_*.so"))
try:
    get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
except (IndexError, OSError, AttributeError):
    get = None
before = get and get()
rows = before and surface._fork_map(
    lambda sl: np.full((sl.stop - sl.start, 1), float(get())),
    np.full(2, 2 * surface._PAIR_BUDGET), 1, 2).ravel().tolist()
print(json.dumps([before, rows, get and get()]))
"""


def test_map_runs_one_blas_thread_per_process():
    env = {k: v for k, v in os.environ.items() if k not in (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(surface.__file__).resolve().parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _BLAS_CODE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, rows, after = json.loads(proc.stdout)
    if before is None:
        pytest.skip("numpy's OpenBLAS thread symbols are missing")
    cores = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if before < 2 or cores < 2:
        pytest.skip("one BLAS thread or one core: nothing to budget")
    assert rows == [1.0, 1.0] and after == before
