"""Small-dimension convex geometry: min-norm points over hulls and
Caratheodory pruning of convex combinations.

The min-norm-point routine is Wolfe's algorithm: it terminates after finitely
many affine-minimization steps on point sets and is exact up to linear-algebra
rounding, which matters here because hull-membership decisions feed bisection
loops downstream.
"""

from __future__ import annotations

import numpy as np


def _affine_minimizer(points: np.ndarray):
    """Min-norm point of the affine hull of the rows; returns (alphas, point)."""
    k = points.shape[0]
    gram = points @ points.T
    lhs = np.zeros((k + 1, k + 1))
    lhs[:k, :k] = gram
    lhs[:k, k] = 1.0
    lhs[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    sol, *_ = np.linalg.lstsq(lhs, rhs, rcond=None)
    alphas = sol[:k]
    s = alphas.sum()
    if abs(s - 1.0) > 1e-9:  # degenerate lstsq solution; renormalize
        alphas = alphas / s if s != 0 else np.full(k, 1.0 / k)
    return alphas, alphas @ points


def _simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    return np.maximum(v - css[rho] / (rho + 1), 0.0)


def _fista_refine(pts: np.ndarray, lam: np.ndarray, iters: int) -> np.ndarray:
    """Accelerated projected gradient for min ||lam @ pts|| over the simplex."""
    lip = float(np.linalg.norm(pts, 2)) ** 2
    if lip == 0.0:
        return lam
    y, prev, t_k = lam.copy(), lam.copy(), 1.0
    for _ in range(iters):
        grad = pts @ (y @ pts)
        cur = _simplex_project(y - grad / lip)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_k * t_k))
        y = cur + ((t_k - 1.0) / t_next) * (cur - prev)
        prev, t_k = cur, t_next
    return prev


def min_norm_point(points, tol: float = 1e-12):
    """Minimum-norm point of conv(rows): returns (x, lambdas) with lambdas >= 0,
    summing to 1, supported on at most dim+1 rows.

    Wolfe's major/minor cycles do the work.  They stop once every point
    satisfies <x, p> >= ||x||^2 - eps ||x|| with eps = tol * sqrt(scale), which
    certifies ||x|| within eps of the true minimum norm, or once ||x|| <= eps.
    The slack scales with ||x|| because a fixed slack in ||x||^2 bounds the
    error in ||x|| only by slack / ||x||, which exceeds ||x|| itself at the
    small distances that membership decisions turn on.  If the cycles stall
    far short of optimality, a FISTA pass over the simplex repairs the
    projection.  Downstream bisections rely on these distances being
    trustworthy, not merely approximate.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("need a nonempty 2-d point array")
    m = pts.shape[0]
    scale = float((pts * pts).sum(axis=1).max()) + 1.0
    eps = tol * np.sqrt(scale)

    active = [int(np.argmin((pts * pts).sum(axis=1)))]
    lambdas = np.array([1.0])
    x = pts[active[0]]

    for _ in range(16 * m + 64):
        j = int(np.argmin(pts @ x))
        norm = float(np.linalg.norm(x))
        if norm <= eps or float(pts[j] @ x) >= norm * norm - eps * norm:
            break
        if j in active:
            break
        active.append(j)
        lambdas = np.append(lambdas, 0.0)
        # minor cycles: pull the affine minimizer back into the simplex
        for _ in range(16 * m + 64):
            alphas, y = _affine_minimizer(pts[active])
            if np.all(alphas >= -1e-12):
                lambdas = np.clip(alphas, 0.0, None)
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

    full = np.zeros(m)
    total = lambdas.sum()
    full[np.asarray(active, dtype=int)] = lambdas / (total if total > 0 else 1.0)
    x = full @ pts

    if float(np.min(pts @ x)) < float(x @ x) - 10.0 * tol * scale:
        full = _fista_refine(pts, full, 3000)
        x = full @ pts
    return x, full


def distance_to_hull(points, target, tol: float = 1e-12):
    """Euclidean distance from target to conv(rows) plus the witness combination."""
    pts = np.asarray(points, dtype=float)
    t = np.asarray(target, dtype=float)
    x, lambdas = min_norm_point(pts - t, tol)
    return float(np.linalg.norm(x)), t + x, lambdas


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
