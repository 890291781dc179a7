"""Small-dimension convex geometry: min-norm points over hulls, normals of
affine hulls and Caratheodory pruning of convex combinations.

The min-norm-point routine is Wolfe's algorithm: it terminates after finitely
many affine-minimization steps on point sets and is exact up to linear-algebra
rounding, which matters here because hull-membership decisions feed root
solves downstream.  Its affine steps solve least squares on differences of
points, never on a Gram matrix, which would square their condition number.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-12  # relative accuracy of min-norm points; see min_norm_point


def _affine_minimizer(points: np.ndarray):
    """Min-norm point of the affine hull of the rows; returns (alphas, point).

    x = p0 + c @ (rows[1:] - p0) with c by least squares, so the weights
    [1 - sum c, c] sum to 1 even when the rows are affinely dependent.
    Formed so, x carries rounding of order eps |p0| along the hull, which
    at |x| ~ 1e-8 swamps the stop test's <x, p> - |x|^2; one more
    least-squares step on x itself removes that component.
    """
    base = points[0]
    diffs = points[1:] - base
    coef, *_ = np.linalg.lstsq(diffs.T, -base, rcond=None)
    x = base + coef @ diffs
    delta, *_ = np.linalg.lstsq(diffs.T, -x, rcond=None)
    return np.concatenate(([1.0 - coef.sum() - delta.sum()], coef + delta)), x + delta @ diffs


def min_norm_point(points):
    """Minimum-norm point of conv(rows): returns (x, lambdas) with lambdas >= 0,
    summing to 1, supported on at most dim+1 rows.

    Wolfe's major/minor cycles do the work.  They stop once every point
    satisfies <x, p> >= ||x||^2 - eps ||x|| with eps = TOL * sqrt(scale), which
    certifies ||x|| within eps of the true minimum norm, or once ||x|| <= eps.
    The slack scales with ||x|| because a fixed slack in ||x||^2 bounds the
    error in ||x|| only by slack / ||x||, which exceeds ||x|| itself at the
    small distances that membership decisions turn on.  The test looks past
    the corral: its own values equal ||x||^2 only up to rounding, which at
    ||x|| ~ 1e-8 can hide a point beyond the corral's face.  A major cycle
    that does not shrink ||x|| ends the search at the point before it, which
    rounding alone can cause.  Each affine step works on the differences from
    one corral point: the bordered Gram system squares their conditioning,
    and with generators 1e-5 apart it missed by 2.5e-9.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("need a nonempty 2-d point array")
    m = pts.shape[0]
    sq = (pts * pts).sum(axis=1)
    scale = float(sq.max()) + 1.0
    eps = TOL * np.sqrt(scale)

    active = [int(np.argmin(sq))]
    lambdas = np.array([1.0])
    x = pts[active[0]]

    for _ in range(16 * m + 64):
        vals = pts @ x
        vals[active] = np.inf
        j = int(np.argmin(vals))
        norm = math.sqrt(x @ x)
        if norm <= eps or vals[j] >= norm * norm - eps * norm:
            break
        saved = active, lambdas, x
        active = active + [j]
        lambdas = np.append(lambdas, 0.0)
        # minor cycles: pull the affine minimizer back into the simplex
        for _ in range(16 * m + 64):
            alphas, y = _affine_minimizer(pts[active])
            if alphas.min() >= -1e-12:
                lambdas = np.maximum(alphas, 0.0)
                x = y
                break
            neg = alphas < lambdas
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(neg, lambdas / (lambdas - alphas), np.inf)
            theta = float(min(1.0, np.min(ratios)))
            lambdas = theta * alphas + (1.0 - theta) * lambdas
            lambdas[lambdas < 1e-14] = 0.0
            keep = lambdas > 0.0
            if not np.any(keep):
                keep[int(np.argmax(alphas))] = True
                lambdas[keep] = 1.0
            active = [a for a, k in zip(active, keep) if k]
            lambdas = lambdas[keep]
            x = lambdas @ pts[active]
        else:
            break
        if not x @ x < norm * norm:
            active, lambdas, x = saved
            break

    full = np.zeros(m)
    total = lambdas.sum()
    full[np.asarray(active, dtype=int)] = lambdas / (total if total > 0 else 1.0)
    return full @ pts, full


def distance_to_hull(points, target):
    """Euclidean distance from target to conv(rows) plus the witness combination."""
    pts = np.asarray(points, dtype=float)
    t = np.asarray(target, dtype=float)
    x, lambdas = min_norm_point(pts - t)
    return float(np.linalg.norm(x)), t + x, lambdas


def affine_complement(points):
    """Orthonormal columns orthogonal to the rows' numerical affine hull, and
    the singular values of the rows' differences from the first row.

    The hull's rank counts the singular values above 1e-10 times the largest,
    so N + 1 points on one hyperplane of R^N, off it by rounding only, give
    that hyperplane's normal; a full-dimensional set of rows gives no column.
    """
    u, s, _ = np.linalg.svd((points[1:] - points[0]).T)
    return u[:, int(np.sum(s > 1e-10 * s.max(initial=0.0))):], s


def caratheodory_prune(points, lambdas, max_terms: int):
    """Reduce a convex combination to at most ``max_terms`` points with the same sum.

    Repeatedly finds an affine dependence among the active points and walks the
    weights along it until one hits zero.  For points in R^N any combination
    prunes to N+1 terms.
    """
    pts = np.asarray(points, dtype=float)
    lam = np.asarray(lambdas, dtype=float).copy()
    if max_terms < 1:
        raise ValueError("max_terms must be positive")
    while True:
        idx = np.flatnonzero(lam > 0.0)
        if idx.size <= max_terms:
            break
        stacked = np.vstack([pts[idx].T, np.ones(idx.size)])
        if idx.size <= stacked.shape[0]:
            raise ValueError("cannot prune below dimension + 1 terms")
        # more points than rows: the last right-singular vector is an exact
        # affine dependence (sums to zero, combination of points is zero)
        _, _, vh = np.linalg.svd(stacked)
        gamma = vh[-1]
        pos = gamma > 1e-15
        if not np.any(pos):
            gamma = -gamma
            pos = gamma > 1e-15
        theta = float(np.min(lam[idx][pos] / gamma[pos]))
        new = lam[idx] - theta * gamma
        new[int(np.argmin(np.abs(new)))] = 0.0
        lam[idx] = np.clip(new, 0.0, None)
        lam /= lam.sum()
    return lam
