"""Property-based invariants (hypothesis): relabelling the vertices or the
elements, a rigid motion and a mirror leave the energies where they are,
a mirror, which flips the orientation, negates H_s, a dilation by lambda
scales the energies by lambda^(d - sp), and the worker count moves no
bit."""

import functools

import numpy as np
import pytest
from conftest import make_bumpy_polygon
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcurv import (
    bending_energy,
    build_scheme,
    functionals,
    pointwise_curvature,
    willmore_energy,
)
from nlcurv.surface import (EnergyParameters, build_surface, make_primitive,
                            rescale)

PARAMS = EnergyParameters(s=0.5, p=5.0)
BUMPY = make_primitive("perturbed_sphere", amplitude=0.05, seed=3,
                       subdivisions=1)
SCHEMES = [("gauss3", "skip_vertex_star"), ("gauss7", "skip_vertex_star"),
           ("gauss7", "skip_same_element"), ("centroid", "skip_vertex_star"),
           ("centroid", "skip_same_element")]
FEW = settings(max_examples=5, derandomize=True, database=None,
               deadline=None)


def energies(mesh, order="gauss3", policy="skip_vertex_star",
             params=PARAMS):
    """(B, W) of the mesh."""
    scheme = build_scheme(mesh, order, policy)
    return np.array([bending_energy(mesh, scheme, params).energy,
                     willmore_energy(mesh, scheme, params).energy])


def rotation(angles):
    """The rotation about x, then y, then z by the three angles."""
    out = np.eye(3)
    for axis, t in enumerate(angles):
        i, j = [a for a in range(3) if a != axis]
        r = np.eye(3)
        r[[i, i, j, j], [i, j, i, j]] = np.cos(t), -np.sin(t), np.sin(t), \
            np.cos(t)
        out = r @ out
    return out


@pytest.mark.parametrize("order,policy", SCHEMES)
@FEW
@given(perm=st.permutations(range(BUMPY.n_vertices)))
def test_vertex_relabelling_leaves_the_energies_bitwise(order, policy, perm):
    inverse = np.argsort(perm)
    relabelled = build_surface(BUMPY.vertices[perm], inverse[BUMPY.elements])
    assert np.array_equal(energies(relabelled, order, policy),
                          energies(BUMPY, order, policy))


@pytest.mark.parametrize("order,policy", SCHEMES)
@FEW
@given(perm=st.permutations(range(BUMPY.n_elements)))
def test_element_relabelling_moves_the_energies_by_roundoff(order, policy,
                                                            perm):
    relabelled = build_surface(BUMPY.vertices, BUMPY.elements[perm])
    want = energies(BUMPY, order, policy)
    got = energies(relabelled, order, policy)
    assert np.all(np.abs(got / want - 1) <= 1e-12)


@FEW
@given(angles=st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3),
       shift=st.lists(st.floats(-10, 10), min_size=3, max_size=3))
def test_rigid_motion_moves_the_energies_by_roundoff(angles, shift):
    moved = build_surface(BUMPY.vertices @ rotation(angles).T + shift,
                          BUMPY.elements)
    assert np.all(np.abs(energies(moved) / energies(BUMPY) - 1) <= 1e-12)


@pytest.mark.parametrize("mesh", [BUMPY, make_bumpy_polygon()],
                         ids=["sub1", "polygon"])
@FEW
@given(data=st.data())
def test_mirror_negates_h_and_keeps_the_energies(mesh, data):
    axis = data.draw(st.integers(0, mesh.ambient_n - 1))
    order, policy = data.draw(st.sampled_from(SCHEMES))
    flip = np.ones(mesh.ambient_n)
    flip[axis] = -1.0
    mirrored = mesh.with_vertices(mesh.vertices * flip)
    assert np.array_equal(energies(mirrored, order, policy),
                          energies(mesh, order, policy))
    for kind, sign in (("H", -1.0), ("A", 1.0)):
        want, got = (pointwise_curvature(m, build_scheme(m, order, policy),
                                         PARAMS, kind=kind)
                     for m in (mesh, mirrored))
        assert np.abs(got - sign * want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("mesh", [BUMPY, make_bumpy_polygon()],
                         ids=["sub1", "polygon"])
@FEW
@given(lam=st.floats(0.01, 100), s=st.floats(0.05, 0.95),
       p=st.floats(0.5, 8))
def test_dilation_scales_the_energies_by_the_scaling_law(mesh, lam, s, p):
    params = EnergyParameters(s=s, p=p)
    want = energies(mesh, params=params) * lam ** (mesh.dim_d - s * p)
    got = energies(rescale(mesh, lam), params=params)
    assert np.all(np.abs(got / want - 1) <= 1e-12)


# S = 960 gauss3 samples: the energies' S^2 pairs fork at two workers
SUB2 = make_primitive("perturbed_sphere", amplitude=0.05, seed=3,
                      subdivisions=2)


@functools.cache
def sub2_values(workers):
    """B, W and H_s at every vertex of SUB2."""
    scheme = build_scheme(SUB2)
    return [bending_energy(SUB2, scheme, PARAMS, workers=workers).energy,
            willmore_energy(SUB2, scheme, PARAMS, workers=workers).energy,
            *pointwise_curvature(SUB2, scheme, PARAMS, kind="H",
                                 workers=workers)]


@FEW
@given(workers=st.integers(2, 16))
def test_worker_count_moves_no_bit(workers):
    assert (3 * SUB2.n_elements) ** 2 > 2 * functionals._FORK_PAIRS
    assert np.array_equal(sub2_values(workers), sub2_values(1))
