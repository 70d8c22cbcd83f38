"""Worker processes of the geodesic search and the patch probe.

Outputs are bitwise equal for any worker count, a failing share raises
its typed error in the caller, and no child outlives the call.  The
`forks` fixture counts the forks, to show that each test takes the fork
path.
"""

import os

import numpy as np
import pytest
import scipy.sparse.csgraph  # noqa: F401  (imported outside the traces)

from conftest import traced_peak
from nlcurv import surface
from nlcurv.errors import DegenerateGeometry, DisconnectedMesh, InvalidParams
from nlcurv.geodesics import _SOURCE_BLOCK, intrinsic_distances
from nlcurv.probes import patch_radii
from nlcurv.seminorms import ScalarField, _seminorms
from nlcurv.surface import build_surface, make_primitive

WORKERS = (1, 2, 3)


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


@pytest.mark.parametrize("bad", [0, -1, "two"])
def test_worker_count_validated(sphere1, bad):
    field = ScalarField(sphere1, sphere1.vertices[:, 0])
    with pytest.raises(InvalidParams):
        patch_radii(sphere1, workers=bad)
    with pytest.raises(InvalidParams):
        _seminorms(field, 0.5, 2.0, 0.5, "intrinsic", bad)


def _rows(sl):
    return np.arange(sl.start, sl.stop, dtype=float)[:, None] * [1.0, -1.0]


def test_map_rows_do_not_depend_on_the_split(forks):
    cost = np.full(11, surface._PAIR_BUDGET)
    for w in WORKERS:
        assert np.array_equal(surface._fork_map(_rows, cost, 2, w),
                              _rows(slice(0, 11)))
        assert_no_children()
    assert forks


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
