"""Tests for the min-norm-point and Caratheodory pruning helpers."""

import numpy as np
import pytest
from scipy.optimize import nnls
from scipy.spatial import ConvexHull

from atomless_mdp.geometry import caratheodory_prune, distance_to_hull, min_norm_point


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
        assert d == pytest.approx(polygon_distance(pts, target), abs=1e-8)
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
