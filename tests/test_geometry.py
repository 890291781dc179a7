"""Tests for the min-norm-point and Caratheodory pruning helpers."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import nnls
from scipy.spatial import ConvexHull

from atomless_mdp.geometry import (
    TOL,
    _affine_minimizer,
    affine_complement,
    caratheodory_prune,
    distance_to_hull,
    min_norm_point,
)


def nnls_projection(points, target, rho=1e6):
    """Independent oracle: penalized NNLS for the simplex-constrained projection."""
    A = np.vstack([points.T, rho * np.ones(points.shape[0])])
    b = np.concatenate([target, [rho]])
    lam, _ = nnls(A, b)
    lam = lam / lam.sum()
    return lam @ points


def test_min_norm_simple_segment():
    pts = np.array([[1.0, 1.0], [1.0, -1.0]])
    x, lam = min_norm_point(pts)
    assert x == pytest.approx([1.0, 0.0], abs=1e-10)
    assert lam.tolist() == pytest.approx([0.5, 0.5], abs=1e-10)


def test_min_norm_contains_origin():
    pts = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
    x, lam = min_norm_point(pts)
    assert np.linalg.norm(x) <= 1e-10
    assert lam.sum() == pytest.approx(1.0)
    assert np.all(lam >= 0)


def test_min_norm_single_point():
    x, lam = min_norm_point(np.array([[2.0, 3.0]]))
    assert x.tolist() == [2.0, 3.0]
    assert lam.tolist() == [1.0]


def test_distance_matches_nnls_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        pts = rng.normal(size=(rng.integers(2, 12), rng.integers(1, 4)))
        target = rng.normal(size=pts.shape[1]) * 2
        d, proj, lam = distance_to_hull(pts, target)
        oracle = nnls_projection(pts, target)
        assert d == pytest.approx(np.linalg.norm(oracle - target), abs=1e-5)
        assert lam @ pts == pytest.approx(proj, abs=1e-9)
        assert lam.sum() == pytest.approx(1.0)


def polygon_distance(points, target):
    """Independent oracle: exact distance from a 2-d target to the convex polygon."""
    hull = ConvexHull(points)
    if np.all(hull.equations[:, :2] @ target + hull.equations[:, 2] <= 0.0):
        return 0.0
    best = np.inf
    for i, j in hull.simplices:
        a, ab = points[i], points[j] - points[i]
        u = np.clip((target - a) @ ab / (ab @ ab), 0.0, 1.0)
        best = min(best, float(np.linalg.norm(target - a - u * ab)))
    return best


def test_distance_near_hull_with_near_duplicate_points():
    # hull generators found on nearby submodels differ by about 1e-5; with the
    # target within 1e-5 of the hull, a stopping slack on |x|^2 that does not
    # shrink with |x| accepts projections up to 2e-6 from the true one
    rng = np.random.default_rng(5)
    for _ in range(300):
        base = rng.normal(size=(4, 2))
        near = base[rng.integers(0, 4, size=3)] + rng.normal(size=(3, 2)) * 1e-5
        pts = np.vstack([base, near])
        a, b = near[0], base[rng.integers(0, 4)]
        normal = np.array([a[1] - b[1], b[0] - a[0]]) / np.linalg.norm(b - a)
        target = (a + rng.uniform(0.05, 0.95) * (b - a)
                  + normal * rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9, -5))
        d, _, _ = distance_to_hull(pts, target)
        assert d == pytest.approx(polygon_distance(pts, target), abs=1e-12)
    # the vertex vectors of one alpha_hat membership test, minus its target:
    # the origin is inside their hull, and a fixed slack stops at |x| = 4.8e-7
    pts = np.array([
        [-0.8353016514483093, -1.2488181786584125],
        [6.387801735563414e-05, -3.066141948437906e-05],
        [-1.0801169777974255, -0.09246371296399958],
        [-0.23475964669400107, 0.11073942318314711],
        [-0.23475699997549415, 0.11074515039604305],
        [6.68282398814668e-05, -2.624854822974587e-05],
    ])
    assert np.linalg.norm(min_norm_point(pts)[0]) <= 1e-10


def test_min_norm_point_looks_past_the_corral():
    # the corral (0, 1, 2) ends 5.0100e-9 from the origin, where the values
    # <x, p> of its own points scatter by 1e-16 around ||x||^2 = 2.5e-17; one
    # of them fell below row 3's, 1.7e-8 from row 0, and the search stopped
    # there.  The minimum, 4.8170064925e-9 in 50-digit arithmetic, has the
    # corral (1, 2, 3)
    pts = np.array([
        [-0.05885241933303256, -0.012093176273600958, -0.19008158348577336,
         -0.032013501336571326, 0.12746283339985387],
        [-0.650570323467161, 0.027041582043404233, -0.03060173968213724,
         -0.22495703106797243, 0.20592652291077218],
        [0.15963750202058147, -0.006394042394079036, 0.01061964417618659,
         0.05539383578673565, -0.052337754392564384],
        [-0.05885241104719477, -0.012093173998730555, -0.19008157175116186,
         -0.032013508816240765, 0.1274628374913777],
    ])
    x, lam = min_norm_point(pts)
    assert float(np.linalg.norm(x)) == pytest.approx(4.8170064925e-9, abs=1e-12)
    assert np.flatnonzero(lam).tolist() == [1, 2, 3]


def exact_segment_distance(p, q) -> Fraction:
    """Squared distance from the origin to the segment pq, in exact arithmetic."""
    p, q = [Fraction(float(c)) for c in p], [Fraction(float(c)) for c in q]
    d = [b - a for a, b in zip(p, q)]
    t = min(max(-sum(a * c for a, c in zip(p, d)) / sum(c * c for c in d), Fraction(0)),
            Fraction(1))
    return sum((a + t * c) ** 2 for a, c in zip(p, d))


@pytest.mark.parametrize("seed", [11, 19, 38, 59, 68])
def test_min_norm_point_finds_a_vertex_just_beyond_the_face(seed):
    # a face 1.2e-8 from the origin between points of size one, and a third
    # point 1e-9 to 9e-9 beyond it: the affine minimizer's rounding along
    # the face, of order eps |p0|, hid that point from the stop test, which
    # returned the face's distance; the origin lies outside the triangle
    rng = np.random.default_rng(seed)
    delta = rng.uniform(1e-9, 9e-9)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    turn = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    left, right = rng.uniform(-2.0, -0.2), rng.uniform(0.2, 2.0)
    pts = np.array([[left, 1.2e-8], [right, 1.2e-8],
                    [rng.uniform(left, right), 1.2e-8 - delta]]) @ turn.T
    exact = min(exact_segment_distance(pts[i], pts[(i + 1) % 3]) for i in range(3))
    x, _ = min_norm_point(pts)
    # min_norm_point's accuracy: TOL sqrt(scale), here 1e-12 to 2.3e-12
    slack = TOL * np.sqrt(1.0 + (pts * pts).sum(axis=1).max())
    assert abs(float(np.linalg.norm(x)) - float(exact) ** 0.5) <= slack


def test_affine_minimizer_on_affinely_dependent_rows():
    # three collinear rows 1e-17 apart: the differences have rank 1, and the
    # weights must still sum to 1 and reproduce the line's min-norm point
    pts = np.array([[1.0, -1e-17], [1.0, 1e-17], [1.0, 0.0]])
    alphas, x = _affine_minimizer(pts)
    assert x == pytest.approx([1.0, 0.0], abs=1e-15)
    assert alphas.sum() == pytest.approx(1.0, abs=1e-15)
    assert alphas @ pts == pytest.approx(x, abs=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_affine_complement_has_the_numerical_rank(dim):
    # N + 1 points of one hyperplane in R^N, off it by at most 1e-15: their
    # differences have rank N only by rounding, and the one column left is
    # the hyperplane's normal; a simplex leaves none
    rng = np.random.default_rng(70 + dim)
    normal = rng.normal(size=dim)
    normal /= np.linalg.norm(normal)
    basis = np.linalg.svd(normal[None, :])[2][1:]           # spans the hyperplane
    pts = 0.3 * normal + rng.normal(size=(dim + 1, dim - 1)) @ basis
    pts += rng.uniform(-1e-15, 1e-15, size=(dim + 1, 1)) * normal
    perp, sv = affine_complement(pts)
    assert perp.shape == (dim, 1) and sv.size == dim
    assert abs(abs(float(perp[:, 0] @ normal)) - 1.0) <= 1e-12
    assert np.abs((pts[1:] - pts[0]) @ perp).max() <= 1e-12
    simplex = np.vstack([np.zeros(dim), np.eye(dim)])
    assert affine_complement(simplex)[0].shape == (dim, 0)


def test_caratheodory_prune_preserves_point():
    rng = np.random.default_rng(4)
    for n_dim in (1, 2, 3):
        pts = rng.normal(size=(10, n_dim))
        lam = rng.dirichlet(np.ones(10))
        target = lam @ pts
        pruned = caratheodory_prune(pts, lam, n_dim + 1)
        assert np.count_nonzero(pruned) <= n_dim + 1
        assert pruned.sum() == pytest.approx(1.0)
        assert np.all(pruned >= 0)
        assert pruned @ pts == pytest.approx(target, abs=1e-9)
