"""Vector-measure ranges on [0,1] via the one-step control reduction.

A nonnegative vector density over an atomless base measure induces the set
W = {integral of the density over B : B Borel}.  Encoding set membership as a
two-action one-step decision problem (take the density's reward or zero,
then stop) makes W the performance set of an MDP whose policies are interval
partitions, so the range is convex and every point of it is attained by a
finite union of intervals, found constructively by the derandomizer.
``range_hull`` sandwiches the range, at any number of criteria, between the
hull of support-oracle vertices and their supporting half-spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertifiedFailure, ModelFormatError
from .geometry import affine_complement, distance_to_hull
from .measure import PieceMeasure
from .model import AtomlessMDP, DeterministicPolicy, _onestep, weighted_transform
from .derandomize import _fold, _terms, distance_to_performance_set
from .scalar_dp import SubmodelSpec, support

__all__ = [
    "VectorMeasure",
    "IntervalSet",
    "RangeHull",
    "as_onestep_mdp",
    "range_hull",
    "find_set",
    "brute_force_range",
]

_PROBABILITY_TOL = 1e-12


class VectorMeasure:
    """Atomless vector measure: nonnegative cellwise densities over a base measure."""

    __slots__ = ("base", "densities")

    def __init__(self, base: PieceMeasure, densities):
        dens = np.asarray(densities, dtype=float)
        if dens.ndim != 2 or dens.shape[0] != base.partition.cell_count:
            raise ValueError("densities must be (cells, criteria)")
        if np.any(dens < 0) or not np.all(np.isfinite(dens)):
            raise ValueError("densities must be finite and nonnegative")
        if abs(base.total - 1.0) > _PROBABILITY_TOL:
            raise ValueError("base measure must be a probability measure")
        dens = dens.copy()
        dens.setflags(write=False)
        self.base = base
        self.densities = dens

    @property
    def criteria(self) -> int:
        return self.densities.shape[1]

    def total(self) -> np.ndarray:
        return self.densities.T @ self.base.masses

    def integrate(self, sets: "IntervalSet") -> np.ndarray:
        """Exact integral of the densities over the interval union, read off
        the cumulative integral at the intervals' ends."""
        part, cum = self.base.partition, self.base._cum
        ends = np.clip(np.reshape(sets.intervals, (-1, 2)), 0.0, 1.0)
        cell = np.minimum(np.searchsorted(part.points, ends, side="right") - 1, part.cell_count - 1)
        parts = self.base.masses[:, None] * self.densities
        before = np.concatenate((np.zeros((1, self.criteria)), np.cumsum(parts, axis=0)))
        # the integral up to each end: the cells before its cell, then its share of that cell
        upto = before[cell] + (np.interp(ends, part.points, cum) - cum[cell])[..., None] \
            * self.densities[cell]
        return (upto[:, 1] - upto[:, 0]).sum(axis=0)


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of disjoint, sorted subintervals of [0,1]."""

    intervals: tuple

    def __post_init__(self):
        prev = -1.0
        for lo, hi in self.intervals:
            if not (0.0 <= lo < hi <= 1.0):
                raise ValueError(f"bad interval ({lo}, {hi})")
            if lo < prev:
                raise ValueError("intervals must be sorted and disjoint")
            prev = hi

    @classmethod
    def from_policy(cls, policy: DeterministicPolicy, action: int = 1) -> "IntervalSet":
        phi = policy.canonical()
        pts = phi.partition.points
        rows = [
            (float(pts[k]), float(pts[k + 1]))
            for k in range(phi.partition.cell_count)
            if phi.actions[k] == action
        ]
        return cls(tuple(rows))

    def measure(self) -> float:
        return sum(hi - lo for lo, hi in self.intervals)

    def complement(self) -> "IntervalSet":
        out, cursor = [], 0.0
        for lo, hi in self.intervals:
            if lo > cursor:
                out.append((cursor, lo))
            cursor = hi
        if cursor < 1.0:
            out.append((cursor, 1.0))
        return IntervalSet(tuple(out))


def as_onestep_mdp(vm: VectorMeasure) -> AtomlessMDP:
    """Two actions everywhere: collect the density vector and stop, or just stop.

    The performance set of the result is exactly the range of the vector
    measure.  Large densities are tamed by the weight 1 + sum of densities,
    which preserves performance vectors policy by policy.
    """
    model = _onestep(vm.base.partition, vm.densities, vm.base)
    if float(vm.densities.sum(axis=1).max(initial=0.0)) > 100.0:
        model = weighted_transform(model, 1.0 + vm.densities.sum(axis=1))
    return model


@dataclass
class RangeHull:
    """Inner and outer approximations of a vector-measure range."""

    directions: np.ndarray          # (k, N) unit directions
    support_values: np.ndarray      # h(b) per direction
    direction_vertices: np.ndarray  # (k, N) attained vertex per direction
    vertices: np.ndarray            # deduplicated inner points (subset of the range)
    vertex_policies: list           # one-step policies attaining the inner points
    gap: float                      # certified Hausdorff gap outer vs inner

    def contains_in_outer(self, point, tol: float = 1e-9) -> bool:
        return bool(np.all(self.directions @ point <= self.support_values + tol))


def range_hull(vm: VectorMeasure, direction_count: int = 64) -> RangeHull:
    """Sandwich the range: hull of attained vertices inside, supporting
    half-spaces outside, plus the Hausdorff gap between the two.

    At most ``direction_count`` support queries: the 2N axes, then, round by
    round, the outward normals of inner-hull facets not yet queried (facet
    refinement, Rote 1992, on Quickhull).  Where none is left before the
    budget is spent, a full-dimensional range equals its inner hull.
    """
    sub = SubmodelSpec.full(as_onestep_mdp(vm))
    n = vm.criteria
    dirs, answers = np.empty((0, n)), []
    candidates = np.vstack([np.eye(n), -np.eye(n)])
    while len(dirs) < direction_count:
        asked = len(dirs)
        for b in candidates:
            fresh = np.linalg.norm(dirs - b, axis=1).min(initial=1.0) > 1e-9
            if fresh and len(dirs) < direction_count:
                dirs = np.vstack([dirs, b])
                answers.append(support(sub, b))
        if len(dirs) == asked:
            break
        candidates = _outward_normals(np.array([v for _, _, v in answers]))
    values = np.array([h for h, _, _ in answers])
    verts = np.array([v for _, _, v in answers])
    keep = np.sort(np.unique(np.round(verts, 12), axis=0, return_index=True)[1])
    gap = _hausdorff_gap(dirs, values, verts[keep])
    return RangeHull(dirs, values, verts, verts[keep], [answers[i][1] for i in keep], gap)


def _outward_normals(points) -> np.ndarray:
    """Outward unit normals of the points' hull facets; where qhull refuses the
    points, plus and minus the normals of their affine hull (none if full)."""
    from scipy.spatial import ConvexHull, QhullError

    if points.shape[1] > 1:
        try:
            return ConvexHull(points).equations[:, :-1]
        except QhullError:
            pass
    perp = affine_complement(points)[0].T
    return np.vstack([perp, -perp])


def _hausdorff_gap(dirs, values, verts) -> float:
    """Largest distance from an outer-polytope vertex to the inner hull; inf
    where not all 2N axes were queried (the outer set may be unbounded), the
    inner vertices' centroid is not clearly interior, or qhull refuses."""
    dim = dirs.shape[1]
    if len(dirs) < 2 * dim:
        return float("inf")
    if dim == 1:
        return float(max(values[0] - verts.max(), verts.min() + values[1], 0.0))
    from scipy.spatial import HalfspaceIntersection, QhullError

    centre = verts.mean(axis=0)
    if not (values - dirs @ centre).min() > 1e-12:
        return float("inf")
    try:
        outer = HalfspaceIntersection(np.column_stack([dirs, -values]), centre).intersections
    except QhullError:
        return float("inf")
    return float(max(distance_to_hull(verts, p)[0] for p in outer))


def find_set(vm: VectorMeasure, target, tol: float = 1e-8) -> IntervalSet:
    """Interval union whose vector integral hits the target within tol.

    The hull iteration runs at 0.1 tol, relative to tol, so it works at any
    scale of the densities.  Its vertex indicator policies and weights, within 0.5 tol of the
    target, are folded pairwise through the mixer at 0.8 tol
    (``derandomize``'s fold) into a deterministic threshold policy whose
    action-one region is the set.  Every call self-checks the returned set
    by direct integration and raises ``CertifiedFailure`` when it misses by
    more than tol; there is no fallback.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    target = np.asarray(target, dtype=float)
    if target.shape != (vm.criteria,):
        raise ValueError("target dimension mismatch")
    if not np.all(np.isfinite(target)):
        raise ModelFormatError("target", "non-finite entry")
    model = as_onestep_mdp(vm)
    res = distance_to_performance_set(SubmodelSpec.full(model), target, tol=0.1 * tol)
    if res.g > 0.5 * tol:
        if res.lower > 0.5 * tol:
            raise ModelFormatError(
                "target",
                f"outside the attainable range by at least {res.lower:.3e}",
            )
        raise ModelFormatError(
            "target",
            f"undecidable at this resolution (distance within [{res.lower:.1e}, {res.g:.1e}])",
        )

    phi, _ = _fold(model, _terms(res, vm.criteria), res.projection, 0.8 * tol)
    out = IntervalSet.from_policy(phi, action=1)
    residual = float(np.linalg.norm(vm.integrate(out) - target))
    if residual > tol:
        raise CertifiedFailure("returned set misses the target", residual=residual)
    return out


def brute_force_range(vm: VectorMeasure, max_cells: int = 12) -> np.ndarray:
    """All integrals over unions of whole base cells (2^M points).

    A test oracle: the returned points all lie in the range, and their hull
    is an inner polytope of it.
    """
    m = vm.base.partition.cell_count
    if m > max_cells:
        raise ValueError(f"brute force limited to {max_cells} cells, got {m}")
    contributions = vm.densities * vm.base.masses[:, None]   # (cells, N)
    subsets = ((np.arange(2**m)[:, None] >> np.arange(m)) & 1).astype(float)
    return subsets @ contributions
