"""Finite measures with piecewise-uniform densities on interval partitions of [0,1].

Every measure here is atomless by construction: the density is constant on
each partition cell, so singletons and degenerate intervals carry zero mass.
Sub-interval masses split linearly, which makes refinement, CDF/quantile
evaluation and total-variation distances exact up to float rounding; there
is no discretization error anywhere in this module.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMeasureError, PartitionMismatchError

# Breakpoints closer than this are considered identical and merged.
MERGE_TOL = 1e-12


class StatePartition:
    """Strictly increasing breakpoints t_0 < ... < t_K with t_0 = 0, t_K = 1."""

    __slots__ = ("points", "widths")

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("a partition needs a 1-d sequence of at least two breakpoints")
        # written so that a NaN fails each test
        if not (abs(pts[0]) <= MERGE_TOL and abs(pts[-1] - 1.0) <= MERGE_TOL):
            raise ValueError("partition must start at 0 and end at 1")
        pts = pts.copy()
        pts[0], pts[-1] = 0.0, 1.0
        widths = np.diff(pts)
        if not np.all(widths > 0):
            raise ValueError("breakpoints must be finite and strictly increasing")
        pts.setflags(write=False)
        widths.setflags(write=False)
        self.points = pts
        self.widths = widths

    @property
    def cell_count(self) -> int:
        return self.points.size - 1

    def refine(self, other: "StatePartition") -> "StatePartition":
        """Coarsest common refinement: sorted union of breakpoints, merged at MERGE_TOL.

        Raises PartitionMismatchError when the union refines neither side: a
        chain of breakpoints, each within MERGE_TOL of the next, merges into
        one breakpoint farther than MERGE_TOL from some of them.
        """
        both = np.concatenate((self.points, other.points))
        pts = merge_breakpoints(both)
        _, found = locate_breakpoints(pts, both)
        if not found.all():
            raise PartitionMismatchError(
                f"breakpoint {float(both[np.argmin(found)])!r} is within {MERGE_TOL} of "
                "another breakpoint but not of the breakpoint they merge to")
        return StatePartition(pts)

    def with_point(self, b: float) -> "StatePartition":
        """This partition with breakpoint b added, or itself when a breakpoint
        lies within MERGE_TOL of b.  Existing breakpoints are never merged, so
        cells closer together than MERGE_TOL keep their identity.  The result
        is built unchecked: b lies more than MERGE_TOL inside one cell of this
        checked partition, so the breakpoints stay strictly increasing."""
        pts = self.points
        k = int(np.searchsorted(pts, b))
        if not 0 < k < pts.size or min(b - pts[k - 1], pts[k] - b) <= MERGE_TOL:
            return self
        pts = np.concatenate((pts[:k], [b], pts[k:]))
        widths = np.diff(pts)
        pts.setflags(write=False)
        widths.setflags(write=False)
        part = StatePartition.__new__(StatePartition)
        part.points, part.widths = pts, widths
        return part

    def refines(self, coarser: "StatePartition") -> bool:
        """True if every breakpoint of ``coarser`` appears here (within MERGE_TOL)."""
        return bool(locate_breakpoints(self.points, coarser.points)[1].all())

    def index_map_from(self, coarser: "StatePartition") -> np.ndarray:
        """For each of this partition's cells, the index of the covering cell of ``coarser``."""
        left, right = self.points[:-1], self.points[1:]
        mids = 0.5 * (left + right)
        # the midpoint of a cell one ulp wide can round onto its right end,
        # which may open the next coarse cell; the left end is inside the cell
        mids = np.where(mids < right, mids, left)
        # np.minimum/np.maximum: a third of np.clip's call overhead on short arrays
        k = np.searchsorted(coarser.points, mids, side="right") - 1
        return np.minimum(np.maximum(k, 0), coarser.cell_count - 1)

    def rebin_from(self, coarser: "StatePartition") -> tuple[np.ndarray, np.ndarray]:
        """(owner, frac): each cell's covering cell of ``coarser`` and its share
        of that cell's width.  Raises ValueError unless this partition refines
        ``coarser``."""
        if not self.refines(coarser):
            raise ValueError("partition does not refine the coarser partition")
        owner = self.index_map_from(coarser)
        return owner, self.widths / coarser.widths[owner]

    # equality is within MERGE_TOL, which no hash can respect: not hashable
    def __eq__(self, other):
        return isinstance(other, StatePartition) and self.points.size == other.points.size and bool(
            np.all(np.abs(self.points - other.points) <= MERGE_TOL)
        )

    def __repr__(self):
        return f"StatePartition({self.points.tolist()})"


def merge_breakpoints(*arrays) -> np.ndarray:
    """Sorted union of breakpoint arrays with near-duplicates (< MERGE_TOL apart) merged."""
    pts = np.sort(np.concatenate([np.asarray(a, dtype=float) for a in arrays]))
    keep = np.empty(pts.size, dtype=bool)
    keep[0] = True
    np.greater(np.diff(pts), MERGE_TOL, out=keep[1:])
    out = pts[keep]
    out[0], out[-1] = 0.0, 1.0
    return out


def locate_breakpoints(points: np.ndarray, x):
    """Index of the breakpoint equal to each x (within MERGE_TOL, the lower one
    when two qualify) and a mask of the x that match one."""
    x = np.asarray(x, dtype=float)
    i = np.searchsorted(points, x)
    below = np.maximum(i - 1, 0)
    above = np.minimum(i, points.size - 1)
    use_below = (i > 0) & (np.abs(points[below] - x) <= MERGE_TOL)
    found = use_below | ((i < points.size) & (np.abs(points[above] - x) <= MERGE_TOL))
    return np.where(use_below, below, above), found


def place_rows(points, lo, hi, mass, slot, slots: int, unplaced):
    """The breakpoints ``points`` refined to every endpoint of the rows
    (lo, hi, mass), and the (slots, cells) masses of the rows on them, row r
    in ``slot[r]``.  A row longer than one cell spreads its mass in
    proportion to cell width; every cell receives its additions in row
    order, so the sums are bitwise those of adding the rows one at a time.
    Raises ``unplaced(r, x)`` for the first row r with an endpoint x within
    MERGE_TOL of another but not of the breakpoint they merge to."""
    part = StatePartition(merge_breakpoints(points, lo, hi))
    start, found_lo = locate_breakpoints(part.points, lo)
    end, found_hi = locate_breakpoints(part.points, hi)
    found = found_lo & found_hi
    if not found.all():
        r = int(np.argmin(found))
        raise unplaced(r, float(lo[r] if not found_lo[r] else hi[r]))
    span = end - start
    first = np.cumsum(span) - span           # position of each row's first share
    row = np.repeat(np.arange(span.size), span)
    cell = start[row] + np.arange(row.size) - first[row]
    share = mass[row]
    for r in np.flatnonzero(span > 1):
        w = part.widths[start[r]:end[r]]
        share[first[r]:first[r] + span[r]] = mass[r] * w / w.sum()
    cells = part.cell_count
    out = np.bincount(slot[row] * cells + cell, weights=share, minlength=slots * cells)
    return part, out.reshape(slots, cells)


class PieceMeasure:
    """Finite nonnegative measure with piecewise-uniform density.

    ``masses[k]`` is the mass of cell [t_k, t_{k+1}); the density on the cell
    is masses[k] / (t_{k+1} - t_k).
    """

    __slots__ = ("partition", "masses", "_cum")

    def __init__(self, partition: StatePartition, masses):
        m = np.asarray(masses, dtype=float)
        if m.shape != (partition.cell_count,):
            raise ValueError(
                f"expected {partition.cell_count} masses, got shape {m.shape}"
            )
        if np.any(m < 0) or not np.all(np.isfinite(m)):
            raise ValueError("masses must be finite and nonnegative")
        m = m.copy()
        m.setflags(write=False)
        self.partition = partition
        self.masses = m
        cum = np.concatenate(([0.0], np.cumsum(m)))
        cum.setflags(write=False)
        self._cum = cum

    @classmethod
    def uniform(cls, total: float = 1.0) -> "PieceMeasure":
        return cls(StatePartition([0.0, 1.0]), [total])

    @classmethod
    def from_intervals(cls, rows) -> "PieceMeasure":
        """Build from (lo, hi, mass) rows; the rows need not tile [0,1]."""
        lo, hi, mass = np.array(rows, dtype=float).reshape(-1, 3).T
        if np.any(hi <= lo):
            k = int(np.argmax(hi <= lo))
            raise ValueError(f"empty interval ({lo[k]}, {hi[k]})")
        if np.any(mass < 0):
            raise ValueError("interval mass must be nonnegative")
        part, masses = place_rows(
            [0.0, 1.0], lo, hi, mass, np.zeros(mass.size, dtype=int), 1,
            lambda r, x: ValueError(f"{x} is not a breakpoint of the partition"))
        return cls(part, masses[0])

    @property
    def total(self) -> float:
        return float(self._cum[-1])

    def densities(self) -> np.ndarray:
        return self.masses / self.partition.widths

    def cdf(self, b: float) -> float:
        """Unnormalized CDF: mass of [0, b].  Piecewise linear, continuous."""
        if b < 0.0 or b > 1.0:
            raise ValueError(f"coordinate {b} outside [0,1]")
        return float(np.interp(b, self.partition.points, self._cum))

    def mass_below(self, b: float) -> float:
        return self.cdf(b)

    def mass_of(self, lo: float, hi: float) -> float:
        if hi < lo:
            raise ValueError("interval reversed")
        return self.cdf(hi) - self.cdf(lo)

    def quantile(self, alpha: float) -> tuple[float, float]:
        """Generalized inverse of the normalized CDF.

        Returns (b_min, b_max) with F(b_min) = F(b_max) = alpha and zero mass
        strictly between them; b_min < b_max exactly when the CDF is flat at
        level alpha.
        """
        return self.lower_quantile(alpha), self._solve_max(alpha * self.total)

    def lower_quantile(self, alpha: float) -> float:
        """``quantile(alpha)[0]``, the smallest b with F(b) = alpha."""
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"fraction {alpha} outside [0,1]")
        if self.total <= 0.0:
            raise DegenerateMeasureError("quantile of a zero-mass measure")
        # smallest b with cum(b) >= target; exact within the linear piece
        target = alpha * self.total
        cum, pts = self._cum, self.partition.points
        k = int(np.searchsorted(cum, target, side="left"))
        if k == 0:
            return float(pts[0])
        k -= 1  # piece [t_k, t_{k+1}] with cum[k] < target <= cum[k+1]
        return self._solve_in_cell(k, target)

    def _solve_max(self, target: float) -> float:
        cum, pts = self._cum, self.partition.points
        k = int(np.searchsorted(cum, target, side="right"))
        if k == cum.size:
            return float(pts[-1])
        # piece [t_{k-1}, t_k] with cum[k-1] <= target < cum[k]
        k -= 1
        if k < 0:
            return float(pts[0])
        return self._solve_in_cell(k, target)

    def _solve_in_cell(self, k: int, target: float) -> float:
        # cumsum rounding can leave cum[k+1] - cum[k] above masses[k]; on a
        # cell of tiny mass the linear step would then overshoot the cell
        pts = self.partition.points
        step = (target - self._cum[k]) / self.masses[k] * (pts[k + 1] - pts[k])
        return float(min(max(pts[k] + step, pts[k]), pts[k + 1]))

    def split_at(self, b: float) -> "PieceMeasure":
        """Same measure on the partition refined by breakpoint b (no-op if present)."""
        if b < 0.0 or b > 1.0:
            raise ValueError(f"coordinate {b} outside [0,1]")
        part = self.partition.with_point(b)
        if part is self.partition or part == self.partition:
            return self
        return self.refined_to(part)

    def refined_to(self, finer: StatePartition) -> "PieceMeasure":
        """Re-express on a finer partition; masses split in proportion to length."""
        if finer == self.partition:
            return self
        owner, frac = finer.rebin_from(self.partition)
        return PieceMeasure(finer, self.masses[owner] * frac)

    def coarsened_to(self, coarser: StatePartition) -> "PieceMeasure":
        """Aggregate masses onto a coarser partition (exact for any coarser grid)."""
        cum = np.interp(coarser.points, self.partition.points, self._cum)
        return PieceMeasure(coarser, np.diff(cum))

    def __eq__(self, other):
        if not isinstance(other, PieceMeasure):
            return NotImplemented
        return total_variation(self, other) == 0.0

    def __repr__(self):
        return f"PieceMeasure(total={self.total:.6g}, cells={self.partition.cell_count})"


def total_variation(m1: PieceMeasure, m2: PieceMeasure) -> float:
    """|m1 - m2|(X), computed exactly on the common refinement."""
    part = m1.partition.refine(m2.partition)
    a = m1.refined_to(part).masses
    b = m2.refined_to(part).masses
    return float(np.abs(a - b).sum())
