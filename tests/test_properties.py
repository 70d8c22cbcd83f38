"""Property-based invariants (hypothesis): relabelling the vertices or the
elements, a rigid motion and a mirror leave the energies where they are,
and a mirror, which flips the orientation, negates H_s."""

import numpy as np
import pytest
from conftest import make_bumpy_polygon
from hypothesis import given, settings
from hypothesis import strategies as st

from nlcurv import (
    bending_energy,
    build_scheme,
    pointwise_curvature,
    willmore_energy,
)
from nlcurv.surface import EnergyParameters, build_surface, make_primitive

PARAMS = EnergyParameters(s=0.5, p=5.0)
BUMPY = make_primitive("perturbed_sphere", amplitude=0.05, seed=3,
                       subdivisions=1)
SCHEMES = [("gauss3", "skip_vertex_star"), ("gauss7", "skip_vertex_star"),
           ("gauss7", "skip_same_element"), ("centroid", "skip_vertex_star"),
           ("centroid", "skip_same_element")]
FEW = settings(max_examples=5, derandomize=True, database=None,
               deadline=None)


def energies(mesh, order="gauss3", policy="skip_vertex_star"):
    """(B, W) of the mesh."""
    scheme = build_scheme(mesh, order, policy)
    return np.array([bending_energy(mesh, scheme, PARAMS).energy,
                     willmore_energy(mesh, scheme, PARAMS).energy])


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
