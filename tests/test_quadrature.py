import numpy as np
import pytest

from nlcurv.errors import InvalidParams
from nlcurv.quadrature import DIAGONAL_POLICIES, ORDERS, build_scheme


@pytest.mark.parametrize("order", ORDERS)
def test_weights_partition_measure(sphere2, order):
    sc = build_scheme(sphere2, order=order)
    per_el = np.zeros(sphere2.n_elements)
    np.add.at(per_el, sc.element_of, sc.weights)
    assert np.allclose(per_el, sphere2.element_measures, rtol=1e-13)


@pytest.mark.parametrize("order,k", [("centroid", 1), ("gauss3", 3),
                                     ("gauss7", 7)])
def test_sample_counts_triangles(sphere1, order, k):
    sc = build_scheme(sphere1, order=order)
    assert sc.n_per_element == k
    assert sc.n_samples == k * sphere1.n_elements
    assert np.array_equal(sc.element_of,
                          np.repeat(np.arange(sphere1.n_elements), k))


@pytest.mark.parametrize("order,k", [("centroid", 1), ("gauss3", 2),
                                     ("gauss7", 4)])
def test_sample_counts_segments(circle128, order, k):
    sc = build_scheme(circle128, order=order)
    assert sc.n_per_element == k
    assert sc.points.shape == (128 * k, 2)


def test_points_inside_elements(sphere1):
    sc = build_scheme(sphere1, order="gauss7")
    P = sphere1.vertices[sphere1.elements[sc.element_of]]
    # solve for barycentric coordinates of each sample in its own triangle
    e1 = P[:, 1] - P[:, 0]
    e2 = P[:, 2] - P[:, 0]
    d = sc.points - P[:, 0]
    g11 = np.einsum("ij,ij->i", e1, e1)
    g12 = np.einsum("ij,ij->i", e1, e2)
    g22 = np.einsum("ij,ij->i", e2, e2)
    b1 = np.einsum("ij,ij->i", d, e1)
    b2 = np.einsum("ij,ij->i", d, e2)
    det = g11 * g22 - g12 * g12
    u = (g22 * b1 - g12 * b2) / det
    v = (g11 * b2 - g12 * b1) / det
    assert np.all(u > -1e-12) and np.all(v > -1e-12)
    assert np.all(u + v < 1 + 1e-12)


@pytest.mark.parametrize("order", ORDERS)
def test_linear_exactness_segments(flat_strip, order):
    # integral of x over [0,1] along the strip is 1/2 at every order
    sc = build_scheme(flat_strip, order=order)
    assert abs(sc.points[:, 0] @ sc.weights - 0.5) < 1e-14


def test_quadratic_exactness_triangles(flat_square):
    # gauss3 (edge midpoints) integrates quadratics exactly on the square
    sc = build_scheme(flat_square, order="gauss3")
    val = (sc.points[:, 0] ** 2) @ sc.weights
    assert abs(val - 1.0 / 3.0) < 1e-13
    sc1 = build_scheme(flat_square, order="centroid")
    val1 = (sc1.points[:, 0] ** 2) @ sc1.weights
    assert abs(val1 - 1.0 / 3.0) > 1e-6  # centroid rule is only linear


def test_degree_four_exactness_gauss7(flat_square):
    sc = build_scheme(flat_square, order="gauss7")
    val = (sc.points[:, 0] ** 4) @ sc.weights
    assert abs(val - 0.2) < 1e-13


def test_policies_recorded(sphere1):
    for pol in DIAGONAL_POLICIES:
        sc = build_scheme(sphere1, order="gauss7", diagonal_policy=pol)
        assert sc.diagonal_policy == pol
        assert sc.descriptor()["diagonal_policy"] == pol


def test_invalid_inputs(sphere1):
    with pytest.raises(InvalidParams):
        build_scheme(sphere1, order="gauss99")
    with pytest.raises(InvalidParams):
        build_scheme(sphere1, diagonal_policy="keep_everything")


def test_gauss3_same_element_rejected_on_triangles(sphere1, circle128):
    # gauss3 triangle samples are edge midpoints shared by neighbours
    with pytest.raises(InvalidParams, match="gauss7"):
        build_scheme(sphere1, "gauss3", "skip_same_element")
    # Gauss-Legendre segment nodes are interior, so curves keep gauss3
    sc = build_scheme(circle128, "gauss3", "skip_same_element")
    assert sc.n_per_element == 2


def test_immutable(sphere1):
    sc = build_scheme(sphere1)
    with pytest.raises(ValueError):
        sc.points[0, 0] = 1.0
