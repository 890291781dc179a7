"""Reference computations made apart from the program.

Nothing here imports the program.  The evaluator and the integrator work on
the benchmark's own input arrays and on the plain breakpoint/action arrays
of the program's outputs.
"""

from __future__ import annotations

import numpy as np


def overlap(points: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """overlap[k, i] = length of (interval k of ``points``) intersected with (cell i of ``grid``)."""
    lo = np.maximum(points[:-1, None], grid[None, :-1])
    hi = np.minimum(points[1:, None], grid[None, 1:])
    return np.clip(hi - lo, 0.0, None)


def cell_weights(spec, points: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Length-averaged action probabilities per grid cell, shape (M, A)."""
    share = overlap(points, spec.points) / np.diff(spec.points)[None, :]
    return share.T @ probs


def one_hot(actions: np.ndarray, count: int) -> np.ndarray:
    probs = np.zeros((actions.size, count))
    probs[np.arange(actions.size), actions] = 1.0
    return probs


def evaluate(spec, points: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """v = mu (I - P_w)^{-1} r_w by one dense solve; exact up to rounding."""
    w = cell_weights(spec, points, probs)
    p_w = np.einsum("ia,iaj->ij", w, spec.kernel)
    r_w = np.einsum("ia,ian->in", w, spec.rewards)
    visits = np.linalg.solve(np.eye(len(w)) - p_w.T, spec.initial)
    return visits @ r_w


def integrate(vs, intervals) -> np.ndarray:
    """Exact integral of a step density over a finite union of intervals."""
    if not intervals:
        return np.zeros(vs.densities.shape[1])
    bounds = np.array(intervals, dtype=float)
    length = np.clip(np.minimum(bounds[:, 1:2], vs.points[None, 1:])
                     - np.maximum(bounds[:, 0:1], vs.points[None, :-1]), 0.0, None)
    base = length.sum(axis=0) / np.diff(vs.points) * vs.masses
    return vs.densities.T @ base


# ---------------------------------------------------------------------------
# structural checks: each returns None when the property holds, else a reason
# ---------------------------------------------------------------------------


def check_deterministic(spec, phi, policy_type) -> str | None:
    """phi is a DeterministicPolicy whose partition tiles [0,1] and whose
    action is available on every grid cell each interval meets."""
    if type(phi) is not policy_type:
        return f"returned {type(phi).__name__}, not a deterministic policy"
    pts, acts = np.asarray(phi.partition.points), np.asarray(phi.actions)
    if pts[0] != 0.0 or pts[-1] != 1.0 or np.any(np.diff(pts) <= 0.0):
        return "partition does not tile [0,1]"
    meets = overlap(pts, spec.points) > 0.0
    for k, a in enumerate(acts):
        for i in np.flatnonzero(meets[k]):
            if int(a) not in spec.available[i]:
                return f"interval {k} uses unavailable action {int(a)} in cell {i}"
    return None


def check_interval_set(intervals) -> str | None:
    """Sorted, pairwise disjoint, nonempty intervals inside [0, 1]."""
    prev = 0.0
    for lo, hi in intervals:
        if not (0.0 <= lo < hi <= 1.0):
            return f"bad interval ({lo}, {hi})"
        if lo < prev:
            return "intervals not sorted and disjoint"
        prev = hi
    return None
