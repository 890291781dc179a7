"""Constructive derandomization of stationary policies.

The pipeline realizes any target performance vector of a two-policy submodel
by a deterministic threshold construction:

* the occupancy measure q of the half/half average of the two policies orders
  the state space, and quantile thresholds of q cut out policies phi_alpha
  that interpolate continuously (in occupancy total variation) between the
  endpoints;
* for one criterion the threshold hits any intermediate value exactly
  (intermediate value theorem); across one interval of the pair's partition
  the path's value is a rank-one update in closed form, which proposes the
  root, and a certified evaluation accepts it;
* for several criteria, the largest alpha whose frozen submodel still attains
  the target admits a supporting direction there; keeping only the actions
  that conserve the scalarized optimum pins one coordinate affinely to the
  others and drops the dimension by one.

A general stationary policy is first decomposed into a convex combination of
at most N+1 deterministic vertex policies (Caratheodory over the support
oracle) and then folded pairwise through the mixer.  Every stage verifies its
own output; failures carry the best achieved residual, never silence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import CertifiedFailure
from .geometry import affine_complement, caratheodory_prune, distance_to_hull
from .measure import PieceMeasure, StatePartition
from .model import (
    AtomlessMDP,
    DeterministicPolicy,
    StationaryPolicy,
    validate_policy,
)
from .occupancy import RankOnePath, cell_weights, evaluate_weights, performance, rank_one_path
from .scalar_dp import SubmodelSpec, conserving_submodel, support, value_iteration

__all__ = [
    "TwoPolicyContext",
    "MixCertificate",
    "make_context",
    "path_policy",
    "path_value",
    "tv_modulus",
    "distance_to_performance_set",
    "DistanceResult",
    "alpha_hat",
    "mix_pair",
    "caratheodory",
    "derandomize",
]

EVAL_TOL = 1e-12          # certified marginal error for performance evaluations
DISTANCE_CAP = 200        # support calls per distance iteration
SCALAR_ITERS = 220        # threshold root-solve steps for one criterion
FACE_ITERS = 40           # secant steps of one witness-face root solve


def _perf_key(policy) -> tuple:
    """The policy's digest in ``model._perf_cache``."""
    values = policy.actions if isinstance(policy, DeterministicPolicy) else policy.probs
    return policy.partition.points.tobytes(), values.tobytes()


def _perf(model: AtomlessMDP, policy) -> np.ndarray:
    """Tight-tolerance performance evaluation, cached on the model by policy digest."""
    key = _perf_key(policy)
    hit = model._perf_cache.get(key)
    if hit is None:
        hit = performance(model, policy, tol=EVAL_TOL)
        model._perf_cache[key] = hit
    return hit


# ---------------------------------------------------------------------------
# two-policy context and the threshold path
# ---------------------------------------------------------------------------


class PathSplit(NamedTuple):
    """``TwoPolicyContext.pair.partition`` with one threshold added, per interval."""

    partition: StatePartition
    rows: np.ndarray        # the interval's index in the pair's partition
    frac: np.ndarray        # its width over its base cell's width
    below: np.ndarray       # it lies left of the threshold
    actions: np.ndarray     # phi1's action below the threshold, phi0's from it on


@dataclass
class TwoPolicyContext:
    """Shared data for constructions over the submodel {phi0(x), phi1(x)}.

    ``pair`` allows exactly the actions ``a0`` (phi0's) and ``a1`` (phi1's)
    on each interval of ``pair.partition``, the common refinement of both
    policies and the base grid; ``pair.owner`` and ``pair.frac`` give each
    interval's base cell and its share of that cell's width.
    """

    pair: SubmodelSpec
    a0: np.ndarray
    a1: np.ndarray
    q: PieceMeasure                # state occupancy of the half/half average

    def threshold(self, alpha: float) -> float:
        return self.q.lower_quantile(alpha)

    def split(self, alpha: float) -> PathSplit:
        """The arrays split at the alpha-threshold, which is added as a
        breakpoint unless one lies within MERGE_TOL of it (StatePartition.with_point)."""
        t = self.threshold(alpha)
        pair = self.pair
        part = pair.partition.with_point(t)
        rows, frac = np.arange(pair.partition.cell_count), pair.frac
        if part is not pair.partition:
            # interval j of the pair's partition is cut in two
            j = int(np.searchsorted(pair.partition.points, t)) - 1
            pieces = part.widths[j:j + 2] / pair.model.grid.widths[pair.owner[j]]
            rows = np.concatenate((rows[:j + 1], rows[j:]))
            frac = np.concatenate((frac[:j], pieces, frac[j + 1:]))
        below = 0.5 * (part.points[:-1] + part.points[1:]) < t
        actions = np.where(below, self.a1[rows], self.a0[rows])
        return PathSplit(part, rows, frac, below, actions)

    def submodel_at(self, alpha: float) -> SubmodelSpec:
        """Action sets with phi1 forced below the alpha-threshold of q."""
        s = self.split(alpha)
        allowed = self.pair.allowed[s.rows]
        allowed[s.below] = False
        allowed[s.below, s.actions[s.below]] = True
        return self.pair._child(s.partition, self.pair.owner[s.rows], s.frac, allowed)

    # Within pair interval j the threshold is affine in alpha, and a policy
    # continued across it changes one cell's weights: the threshold's
    # position s there (its offset from the interval's start over the base
    # cell's width) moves weight s from the policy's action to a1.

    def position(self, alpha: float, j: int) -> float:
        """The alpha-threshold's position s in pair interval j, clipped to it."""
        pair = self.pair
        s = (self.threshold(alpha) - pair.partition.points[j]) / pair.model.grid.widths[pair.owner[j]]
        return min(max(s, 0.0), float(pair.frac[j]))

    def fraction(self, j: int, s: float) -> float:
        """The alpha whose threshold has position s in pair interval j."""
        pair = self.pair
        t = pair.partition.points[j] + s * pair.model.grid.widths[pair.owner[j]]
        return self.q.cdf(min(float(t), 1.0)) / self.q.total

    def paths(self, j: np.ndarray, above: np.ndarray) -> RankOnePath:
        """RankOnePath of the policies k that take a1 on the pair intervals
        before j[k] and the actions above[k] (one per pair interval) from it
        on, as the threshold crosses interval j[k]."""
        pair, model = self.pair, self.pair.model
        acts = np.where(np.arange(pair.partition.cell_count) < j[:, None], self.a1, above)
        w = np.stack([cell_weights(model, pair.owner, pair.frac, a) for a in acts])
        return rank_one_path(model, w, pair.owner[j], self.a1[j], above[np.arange(j.size), j])


def _context(pair: SubmodelSpec, a0, a1) -> TwoPolicyContext:
    """The context over a checked pair submodel that allows exactly a0 and a1."""
    model, half = pair.model, 0.5 * pair.frac
    w = cell_weights(model, pair.owner, half, a0) + cell_weights(model, pair.owner, half, a1)
    q = PieceMeasure(model.grid, evaluate_weights(model, w, EVAL_TOL)[0])
    return TwoPolicyContext(pair, a0, a1, q)


def make_context(model: AtomlessMDP, phi0: DeterministicPolicy,
                 phi1: DeterministicPolicy) -> TwoPolicyContext:
    validate_policy(model, phi0)
    validate_policy(model, phi1)
    return _context(*SubmodelSpec._pair(model, phi0, phi1))


def path_policy(ctx: TwoPolicyContext, alpha: float) -> DeterministicPolicy:
    """Threshold policy on ctx.pair.partition with the alpha-quantile t of q added:
    phi1 strictly below t, phi0 from it on."""
    s = ctx.split(alpha)
    return DeterministicPolicy(s.partition, s.actions)


def path_value(ctx: TwoPolicyContext, alpha: float):
    """Cell weights w and performance vector v of path_policy(ctx, alpha),
    without building the policy, and a bound on each coordinate's error.

    w is bitwise ``cell_action_weights(model, path_policy(ctx, alpha))``, so v
    is what ``performance`` returns for that policy.
    """
    model = ctx.pair.model
    s = ctx.split(alpha)
    w = cell_weights(model, ctx.pair.owner[s.rows], s.frac, s.actions)
    _, err, v = evaluate_weights(model, w, EVAL_TOL)
    return w, v, err * float(np.abs(model.rewards).max(initial=0.0))


def tv_modulus(ctx: TwoPolicyContext, delta: float) -> float:
    """Certified bound on d_TV between occupancy measures of path policies
    whose alpha parameters differ by delta.

    The policies disagree on a set of q-mass q(X) * delta; cutting the series
    at any horizon l bounds the difference by twice the certified tail plus
    the doubling estimate 2^l times the disagreement mass, and the modulus
    minimizes over the cut.
    """
    delta = abs(float(delta))
    cert = ctx.pair.model.certificate()
    q_total = ctx.q.total
    best, level = np.inf, 0
    # cut at most 64 steps past the survival profile's end, computing the
    # profile only as far as the cuts tried need it
    while len(cert.profile_through(level - 64)) > level - 64:
        grow = (2.0**level) * q_total * delta
        if grow >= best:
            break
        best = min(best, 2.0 * (cert.tail(level) + grow))
        level += 1
    return float(best)


# ---------------------------------------------------------------------------
# distance to a performance set via the support oracle
# ---------------------------------------------------------------------------


@dataclass
class DistanceResult:
    g: float                                   # certified upper bound on the distance
    lower: float                               # certified lower bound
    weights: np.ndarray                        # min-norm lambda, aligned with ``vertices``
    direction: np.ndarray | None               # the direction that attained ``lower``
    projection: np.ndarray                     # nearest achieved point
    vertices: list = field(default_factory=list)   # [(policy, vector)] hull generators
    support_calls: int = 0                     # support-oracle calls made


def _embed(b_active: np.ndarray, active, n: int) -> np.ndarray:
    full = np.zeros(n)
    full[list(active)] = b_active
    return full


def distance_to_performance_set(sub: SubmodelSpec, target, tol: float = 1e-8,
                                active=None, seeds=None,
                                decide: float | None = None) -> DistanceResult:
    """Euclidean distance from ``target`` to the submodel's performance set.

    Alternates exact projections onto the hull of collected vertex policies
    with support-oracle calls in the projection direction; each call either
    certifies the projection (no vertex lies beyond the supporting hyperplane)
    or strictly improves the hull.  Terminates once the upper and lower
    distance bounds agree within ``tol``.  With a decision level ``decide``
    it returns as soon as a bound settles whether the distance is at most
    ``decide``: the upper bound at or below it, or the lower bound above it.
    The upper bound never increases, so the answer ``g <= decide`` equals
    the full iteration's from the same seeds.

    Each step certifies, adds a vertex or raises ``CertifiedFailure``: the
    query direction is never zero, and a support vertex that is already in
    the hull (deduplicated at a fraction of ``tol``, since seed policies
    from nearby submodels differ by far less than the decision tolerance)
    means the oracle can add nothing, so the bounds cannot close.  Every
    return therefore has ``g`` at most ``tol`` (or 1e-14, whichever is
    larger), ``g - lower`` at most ``tol``, or ``lower`` above ``decide``.
    ``seeds`` are (policy, vector) pairs with the vector on the active
    coordinates, like ``DistanceResult.vertices``.  ``direction`` is the
    queried b whose support call attained ``lower`` > 0, so that h(b) <=
    <b, target> - lower; None while no lower bound is positive.
    ``support_calls`` counts the oracle calls the iteration made.
    """
    n = sub.model.criteria
    active = tuple(range(n)) if active is None else tuple(active)
    t_active = np.asarray(target, dtype=float)[list(active)]
    dedupe = max(1e-12, 1e-3 * tol)

    verts: list = []     # (policy, active-coordinate vector)
    seen = set()

    def add_vertex(policy, v_active):
        key = np.round(v_active / dedupe).astype(np.int64).tobytes()
        if key in seen:
            return False
        seen.add(key)
        verts.append((policy, v_active))
        return True

    seeds = list(seeds or ())
    if len(seeds) > 32:
        # keep the seeds whose performance sits closest to the target
        dist = np.linalg.norm(np.array([v for _, v in seeds]) - t_active, axis=1)
        seeds = [seeds[i] for i in np.argsort(dist, kind="stable")[:32]]
    for policy, v_active in seeds:
        add_vertex(policy, v_active)
    calls = 0
    if not verts:
        calls += 1
        _, policy, v = support(sub, _embed(np.ones(len(active)) / np.sqrt(len(active)), active, n))
        add_vertex(policy, v[list(active)])

    lower, b_low = 0.0, None
    for _ in range(DISTANCE_CAP):
        mat = np.array([v for _, v in verts])
        d, proj, lam = distance_to_hull(mat, t_active)
        if d <= max(tol, 1e-14) or (decide is not None and d <= decide):
            return DistanceResult(d, lower, lam, b_low, proj, verts, calls)
        # the component of t - p0 orthogonal to the corral's affine hull (p0 a
        # corral point) is t - proj in exact arithmetic, but formed from O(1)
        # vectors, not by cancelling them down to d, so it separates where d ~ tol
        corral = mat[lam > 0.0]
        b = t_active - corral[0]
        if corral.shape[0] > 1:
            perp = affine_complement(corral)[0]
            b = perp @ (perp.T @ b)
        norm = float(np.linalg.norm(b))
        if not norm > 0.0:
            raise CertifiedFailure("distance iteration found no direction off the hull",
                                   residual=d)
        b = b / norm
        calls += 1
        h, policy, v = support(sub, _embed(b, active, n))
        sep = float(b @ t_active) - h
        if sep > lower:
            lower, b_low = sep, b
        if lower > d:
            lower = d          # rounding guard; bounds must nest
        if d - lower <= tol or (decide is not None and lower > decide):
            return DistanceResult(d, lower, lam, b_low, proj, verts, calls)
        if not add_vertex(policy, v[list(active)]):
            raise CertifiedFailure("distance iteration met a vertex already in its hull",
                                   residual=d)
    raise CertifiedFailure("distance iteration exceeded its cap", residual=d)


# ---------------------------------------------------------------------------
# alpha_hat: largest freeze fraction keeping the target attainable
# ---------------------------------------------------------------------------


def _membership(sub, target, tol, active, pool, alpha):
    """Decide d(target, V(sub)) <= tol, seeding with pool vertices valid at alpha.

    Policies found feasible at a larger freeze fraction remain feasible at a
    smaller one (thresholds nest), so the pool carries hull generators across
    the membership tests of one root solve.  Pool entries are (alpha, policy,
    active-coordinate vector).  An "outside" answer has ``res.lower`` > 0
    and its ``res.direction`` b has h(b) <= <b, target> - ``res.lower`` on
    the active coordinates; an answer that is neither raises
    ``CertifiedFailure``.
    """
    seeds = [(p, v) for a0, p, v in pool if a0 >= alpha - 1e-15]
    res = distance_to_performance_set(sub, target, tol=0.25 * tol, active=active, seeds=seeds,
                                      decide=tol)
    if res.g > tol and not res.lower > 0.0:
        raise CertifiedFailure("membership test reached no separating direction",
                               residual=res.g)
    pool.extend((alpha, p, v) for p, v in res.vertices)
    if len(pool) > 120:
        del pool[: len(pool) - 120]
    return res.g <= tol, res


class _Illinois:
    """A bracket a < b of a sign change of f, narrowed by a safeguarded
    Illinois root solve (Dowell & Jarratt, BIT 11, 1971).

    ``f_a`` and ``f_b`` are the ends' f values: of opposite signs, or zero
    at an end that is itself a root.  ``move`` puts (x, f_x) in place of the
    end whose f has f_x's sign, and halves the other end's f when that end
    is kept twice running.
    """

    __slots__ = ("a", "f_a", "b", "f_b", "side", "widths")

    def __init__(self, a: float, f_a: float, b: float, f_b: float):
        self.a, self.f_a, self.b, self.f_b = a, f_a, b, f_b
        self.side = 0                       # +1 when a moved last, -1 when b did
        self.widths = (np.inf, np.inf)      # b - a before the last two steps

    def secant(self) -> float:
        """The secant root of the ends, or the midpoint where that root is
        not strictly inside (a, b)."""
        a, f_a, b, f_b = self.a, self.f_a, self.b, self.f_b
        if f_a < 0.0 < f_b or f_b < 0.0 < f_a:
            x = a + f_a * (b - a) / (f_a - f_b)
            if a < x < b:
                return x
        return 0.5 * (a + b)

    def step(self) -> float:
        """``secant``, or the midpoint where the bracket failed to halve over
        the last two steps; so narrowing the bracket to a given width takes
        at most about twice bisection's steps."""
        a, b = self.a, self.b
        x = 0.5 * (a + b) if b - a >= 0.5 * self.widths[1] else self.secant()
        self.widths = (b - a, self.widths[0])
        return x

    def move(self, x: float, f_x: float) -> None:
        if (f_x < 0.0) == (self.f_a < 0.0):
            self.a, self.f_a, self.f_b = x, f_x, self.f_b * (0.5 if self.side > 0 else 1.0)
            self.side = 1
        else:
            self.b, self.f_b, self.f_a = x, f_x, self.f_a * (0.5 if self.side < 0 else 1.0)
            self.side = -1


def _crossing(ctx: TwoPolicyContext, above: np.ndarray, e: np.ndarray, level: float,
              j0: int = 0, s0: float = 0.0, end: float = 1.0):
    """An alpha from position s0 in pair interval j0 up to ``end`` at which
    <e, v(alpha)> reaches ``level`` from below, or None; v(alpha) is the
    value of the policy that takes a1 below the alpha-threshold and
    ``above`` (one action per pair interval) from it on.  The value must be
    below ``level`` at the start.  Float64 and uncertified: a proposal.

    That value moves only across the intervals where ``above`` and a1
    differ, and across each in closed form.  On a one-step model it is
    linear there, with slope mu (r_a1 - r_above) . e, so one cumulative sum
    over those intervals finds the first crossing.  Otherwise the search
    bisects those intervals, one solve each (``TwoPolicyContext.paths``):
    one that the value crosses ends it, one that it starts at or above
    ``level`` becomes the upper end and one that it ends below the lower
    end, so the crossing found need not be the first.
    """
    pair, model = ctx.pair, ctx.pair.model
    j1 = max(int(np.searchsorted(pair.partition.points, ctx.threshold(end))) - 1, 0)
    change = np.flatnonzero(above != ctx.a1)
    change = change[(change >= j0) & (change <= j1)]
    start = np.where(change == j0, s0, 0.0)
    stop = np.where(change == j1, ctx.position(end, j1), pair.frac[change])
    if model.is_one_step():
        rows = np.arange(pair.owner.size)
        r = model.initial.masses[pair.owner, None] * (model.rewards[pair.owner] @ e)
        slope = r[rows, ctx.a1] - r[rows, above]
        base = pair.frac @ r[rows, above] + pair.frac[:j0] @ slope[:j0] + s0 * slope[j0]
        rise = np.cumsum(slope[change] * (stop - start))
        hit = np.flatnonzero(base + rise >= level)
        if not hit.size:
            return None
        k = int(hit[0])
        before = base + (rise[k - 1] if k else 0.0)
        s = start[k] if before >= level else start[k] + (level - before) / slope[change[k]]
        return ctx.fraction(int(change[k]), min(s, stop[k]))
    lo, hi = 0, change.size      # below level where change[lo] starts
    while lo < hi:
        mid = (lo + hi) // 2
        path = ctx.paths(change[mid:mid + 1], above[None])
        if float(path.value(start[mid])[0] @ e) >= level:
            hi = mid
        elif float(path.value(stop[mid])[0] @ e) < level:
            lo = mid + 1
        else:
            s = float(path.crossing(e, level)[0])
            return ctx.fraction(int(change[mid]), s) if start[mid] <= s <= stop[mid] else None
    return None


def _face_root(ctx: TwoPolicyContext, res: DistanceResult, lo: float, x: float,
               t_active, active, tol: float, counts: dict):
    """Root of the witness face's offset from the target, or None.

    The N vertex policies of an "outside" answer at x are continued along
    the threshold path: each acts as phi1 below the alpha-threshold and
    keeps its action on every pair interval above it (on the interval
    holding its own cut, the action above the cut), so each stays a policy
    of V(alpha) for alpha <= x.  With n(alpha) the unit normal of their
    affine hull, oriented like the answer's direction, the smooth scalar
    F(alpha) = <n, target - v_0(alpha)> - tol/2 is solved by ``_Illinois``
    on [a, x], a = max(lo, the alpha at which the threshold enters x's pair
    interval).  Across that interval the vertices' vectors are in closed
    form (``TwoPolicyContext.paths``, one stacked solve), so no F evaluation
    solves or splits; the caller certifies the root.  Returns (alpha,
    n(alpha)) with |F| <= tol/4 there; None where the witness has fewer
    than N vertices, F keeps its sign, the solve finds no such alpha
    strictly inside the bracket in FACE_ITERS steps, or the vertices are not
    affinely independent at some F evaluation (a singular value of their
    differences at most 1e-8 of the largest), where n would be arbitrary.
    ``counts["face_steps"]`` counts the F evaluations.
    """
    dim, cols = len(active), list(active)
    witness = [p for w, (p, _) in zip(res.weights, res.vertices) if w > 1e-14]
    if len(witness) != dim:
        return None
    pts = ctx.pair.partition.points
    # each vertex's action on the piece that ends at every pair breakpoint
    above = np.array([p.actions[np.searchsorted(p.partition.points, pts[1:]) - 1]
                      for p in witness])
    j = max(int(np.searchsorted(pts, ctx.threshold(x))) - 1, 0)
    a = max(lo, ctx.fraction(j, 0.0))
    if not a < x:
        return None
    paths = ctx.paths(np.full(dim, j), above)

    def face(alpha):
        """(F(alpha), n(alpha)), or None where the vertices at alpha are not
        affinely independent, so that their hull is no facet."""
        counts["face_steps"] += 1
        verts = paths.value(ctx.position(alpha, j))[:, cols]
        perp, sv = affine_complement(verts)
        if sv.size and not sv.min() > 1e-8 * sv.max():
            return None
        n = perp[:, 0] if perp[:, 0] @ res.direction >= 0.0 else -perp[:, 0]
        return float(n @ (t_active - verts[0])) - 0.5 * tol, n

    at_x = face(x)
    at_a = face(a) if at_x is not None else None
    if at_a is None or not at_a[0] * at_x[0] < 0.0:
        return None
    bracket = _Illinois(a, at_a[0], x, at_x[0])
    for _ in range(FACE_ITERS):
        alpha = bracket.secant()
        if not bracket.a < alpha < bracket.b:
            return None
        at = face(alpha)
        if at is None:
            return None
        if abs(at[0]) <= 0.25 * tol:
            return alpha, at[1]
        bracket.move(alpha, at[0])
    return None


def alpha_hat(ctx: TwoPolicyContext, target, tol: float = 1e-7, active=None, *,
              certificate: dict | None = None) -> float:
    """Freeze fraction alpha at which the target is within tol of the
    boundary of V(alpha), certified by one support call.

    Each "outside" answer, at hi, first tries its witness face
    (``_face_root``): one support call in the face normal at the face's
    root, and, where that gap lies in [-tol, 0], one membership test.
    "Inside" there stops with the certificate; "outside" is the next
    "outside" answer.  Otherwise V(alpha) shrinks as alpha grows, so
    g(alpha) = h_alpha(b) - <b, target> is nonincreasing for the separating
    direction b of the answer, and the search is a safeguarded Illinois
    root solve of g on [a, hi] (``_Illinois``), one support call per step:
    g < -tol certifies "outside" and moves hi, g > 0 moves a, and g in
    [-tol, 0] calls a membership test.  "Inside" stops with the certificate
    (inside, and g <= 0); "outside" gives a new hi and b and restarts the
    bracket from lo, the last "inside".

    Each step is proposed in closed form.  The policy that the support call
    found optimal at the bracket's low end a, continued along the path
    (phi1 below the threshold, its own actions above it), stays in V(alpha)
    for every alpha >= a, so <b, its v(alpha)> - <b, target> is a lower
    bound on g(alpha), exact at a.  The step is a root of that bound at
    -tol/2 inside the bracket (``_crossing``), where no support call can
    certify "outside": the step lands in the window or moves a with a better
    policy.  Only where ``_crossing`` finds no root strictly inside the
    bracket is the step ``_Illinois.secant`` (without ``step``'s halving
    test, whose forced midpoints only added support calls here), counted in
    ``fallback_steps``.  A bracket that shrinks to adjacent floats before
    the certificate holds raises ``CertifiedFailure`` with the gap at lo.
    Returns 1.0 when the target is within tol of V(1).  A ``certificate``
    dict receives b on the active coordinates (None at 1.0) as
    ``direction``, and the search's ``membership_tests``, ``support_calls``,
    ``face_steps`` and ``fallback_steps``.  For ``_realize`` it also
    receives the "inside" test at the returned fraction: its witness as
    (policy, vector on the active coordinates) pairs as ``_witness`` and its
    submodel as ``_submodel``.

    The path's two ends seed the alpha = 0 test: both are policies of V(0),
    and where the target lies on their segment (the top level of a mix)
    that test decides "inside" without a support call.
    """
    target = np.asarray(target, dtype=float)
    active = tuple(range(ctx.pair.model.criteria)) if active is None else tuple(active)
    t_active = target[list(active)]
    pool = [(0.0, path_policy(ctx, end), path_value(ctx, end)[1][list(active)])
            for end in (0.0, 1.0)]
    counts = {"membership_tests": 2, "support_calls": 0, "face_steps": 0, "fallback_steps": 0}
    criteria, pts = ctx.pair.model.criteria, ctx.pair.partition.points

    def gap(sub, direction):
        """h(b) - <b, target> on the active coordinates, and the optimal policy."""
        counts["support_calls"] += 1
        h, policy, _ = support(sub, _embed(direction, active, criteria))
        return h - float(direction @ t_active), policy

    def step(bracket, policy):
        """The next step from the bracket's low end, where ``policy`` is optimal."""
        a = bracket.a
        j = min(int(np.searchsorted(pts, ctx.threshold(a), side="right")) - 1, pts.size - 2)
        above = policy.actions[np.searchsorted(policy.partition.points, pts[1:]) - 1]
        # <b, v> - <b, target> reaches -tol/2 from above
        x = _crossing(ctx, above, -_embed(b, active, criteria),
                      0.5 * tol - float(b @ t_active), j, ctx.position(a, j), bracket.b)
        if x is not None and a < x < bracket.b:
            return x
        counts["fallback_steps"] += 1
        return bracket.secant()

    def member(sub, alpha):
        counts["membership_tests"] += 1
        return _membership(sub, target, tol, active, pool, alpha)

    sub = ctx.submodel_at(0.0)
    ok, res = _membership(sub, target, tol, active, pool, 0.0)
    if not ok:
        raise CertifiedFailure("target is not in the two-policy performance set", residual=res.g)
    inside = res, sub                 # the "inside" test at lo
    sub = ctx.submodel_at(1.0)
    ok, res = _membership(sub, target, tol, active, pool, 1.0)
    lo, x, b, g_lo = (1.0 if ok else 0.0), 1.0, None, 0.0
    if ok:
        inside = res, sub
    while not ok or g_lo > 0.0:
        if not ok:
            face = _face_root(ctx, res, lo, x, t_active, active, tol, counts)
            if face is not None:
                sub = ctx.submodel_at(face[0])
                g_face = gap(sub, face[1])[0]
                if -tol <= g_face <= 0.0:
                    ok, res = member(sub, face[0])
                    if ok:
                        lo, b, g_lo, inside = face[0], face[1], g_face, (res, sub)
                    else:
                        x = face[0]
                    continue
            # "outside" at x: h_x(b) <= <b, target> - lower for its direction
            b, ok = res.direction, True
            g_lo, low = gap(ctx.submodel_at(lo), b)
            bracket = _Illinois(lo, g_lo, x, -res.lower)
            continue
        x = step(bracket, low)
        if not bracket.a < x < bracket.b:
            raise CertifiedFailure("alpha_hat's bracket collapsed before its certificate",
                                   residual=g_lo)
        sub = ctx.submodel_at(x)
        g_x, policy = gap(sub, b)
        if g_x > 0.0:
            bracket.move(x, g_x)
            low = policy
        elif g_x < -tol:
            bracket.move(x, g_x)
        else:
            ok, res = member(sub, x)
            if ok:
                lo, g_lo, inside = x, g_x, (res, sub)
                bracket.move(x, g_x)
    if certificate is not None:
        res, sub = inside
        certificate.update(direction=b, **counts, _submodel=sub,
                           _witness=[pv for w, pv in zip(res.weights, res.vertices) if w > 1e-14])
    return lo


# ---------------------------------------------------------------------------
# the recursion
# ---------------------------------------------------------------------------


@dataclass
class MixCertificate:
    """Record of one mixing run: target, achieved vector and recursion trace."""

    requested_lambda: float | None
    target: np.ndarray
    achieved: np.ndarray
    error: float
    tol: float
    trace: list

    def summary(self) -> dict:
        """The run's figures and its work: the trace's totals of alpha_hat's
        membership tests, support calls and face steps, of the support calls
        of the distance iterations that found the reduce directions
        (``polish_calls``) and of scalar path solves, and the root-solve
        steps of both searches that no closed-form proposal made
        (``fallback_steps``)."""
        def total(kind, key):
            return sum(e[key] for e in self.trace if e["kind"] == kind)

        return {
            "lambda": self.requested_lambda,
            "target": [float(x) for x in self.target],
            "achieved": [float(x) for x in self.achieved],
            "error": self.error,
            "tol": self.tol,
            "levels": len(self.trace),
            "membership_tests": total("reduce", "membership_tests"),
            "support_calls": total("reduce", "support_calls"),
            "face_steps": total("reduce", "face_steps"),
            "polish_calls": total("reduce", "polish_calls"),
            "path_solves": total("scalar", "iters"),
            "fallback_steps": total("reduce", "fallback_steps") + total("scalar", "fallback_steps"),
        }


def _pair_from_submodel(sub: SubmodelSpec, a0, a1):
    """The pair submodel (a child of ``sub``) of two action arrays on its
    partition, and the arrays: where ``sub`` prunes an action, a0 takes the
    highest allowed action and a1 the lowest."""
    allowed = sub.allowed
    rows = np.arange(sub.partition.cell_count)
    highest = allowed.shape[1] - 1 - np.argmax(allowed[:, ::-1], axis=1)
    lowest = np.argmax(allowed, axis=1)
    a0 = np.where(allowed[rows, a0], a0, highest)
    a1 = np.where(allowed[rows, a1], a1, lowest)
    mask = np.zeros_like(allowed)
    mask[rows, a0] = mask[rows, a1] = True
    return sub._child(sub.partition, sub.owner, sub.frac, mask), a0, a1


def _realize_scalar(pair, target, coord, tol, trace):
    """Intermediate-value root solve along the threshold path for one criterion.

    The path's value is in closed form across each pair interval, and
    ``_crossing`` proposes its root in an interval across which
    v(alpha)[coord] - t turns from negative to nonnegative.  A certified
    evaluation there (``path_value``) accepts it or, where it misses tol,
    starts safeguarded Illinois steps on [0, 1] with the same acceptance.
    The trace entry counts the certified path solves as ``iters`` and the
    Illinois steps among them as ``fallback_steps``.
    """
    model = pair.model
    e = _embed(np.array([1.0]), (coord,), model.criteria)
    _, phi_hi, v_hi = support(pair, e)
    _, phi_lo, v_lo = support(pair, -e)
    v_lo, v_hi = float(v_lo[coord]), float(v_hi[coord])
    t = float(target[coord])
    slack = max(tol, 1e-11)
    if t < v_lo - slack or t > v_hi + slack:
        raise CertifiedFailure(
            f"scalar target {t} outside attainable range [{v_lo}, {v_hi}]",
            residual=max(v_lo - t, t - v_hi),
        )
    t = min(max(t, v_lo), v_hi)
    for phi, v_end in ((phi_hi, v_hi), (phi_lo, v_lo)):
        if abs(v_end - t) <= tol:
            trace.append({"kind": "scalar", "coord": coord, "achieved": v_end, "iters": 0,
                          "fallback_steps": 0})
            return phi
    ctx = _context(*_pair_from_submodel(pair, phi_lo.actions, phi_hi.actions))
    # v(alpha)[coord] - t is below zero at phi_lo's end and above at phi_hi's
    bracket = _Illinois(0.0, v_lo - t, 1.0, v_hi - t)
    best_err = abs(v_lo - t)
    alpha, steps = _crossing(ctx, ctx.a0, e, t), 0
    for it in range(SCALAR_ITERS):
        if alpha is None:
            alpha, steps = bracket.step(), steps + 1
        _, v, bound = path_value(ctx, alpha)
        val = float(v[coord])
        err = abs(val - t) + bound
        best_err = min(best_err, err)
        if err <= tol:
            # path_value's w is cell_action_weights(model, phi) bitwise, so
            # v is what _perf would compute for phi
            phi = path_policy(ctx, alpha)
            model._perf_cache.setdefault(_perf_key(phi), v)
            trace.append({"kind": "scalar", "coord": coord, "achieved": val, "iters": it + 1,
                          "fallback_steps": steps})
            return phi
        bracket.move(alpha, val - t)
        alpha = None
    raise CertifiedFailure("scalar path root solve missed its tolerance",
                           residual=best_err, trace=trace)


def _realize(pair, a0, a1, target, active, tol, trace, depth=0):
    """Find a deterministic policy of the pair submodel, which allows exactly
    the actions a0 and a1, matching the target on the active coordinates
    within tol.  Each level below derives its pair from checked arrays."""
    if len(active) == 1:
        return _realize_scalar(pair, target, active[0], tol, trace)

    member_tol = 0.25 * tol
    ctx = _context(pair, a0, a1)

    stop: dict = {}
    a_hat = alpha_hat(ctx, target, tol=member_tol, active=active, certificate=stop)
    if a_hat >= 1.0:
        trace.append({"kind": "endpoint", "alpha_hat": 1.0})
        return path_policy(ctx, 1.0)
    # V(alpha_hat), as the stopping membership test built and queried it
    frozen = stop["_submodel"]

    # alpha_hat's stop puts V(alpha_hat) on or below <b, x> = <b, t> for its
    # direction b, with t within member_tol of it; pushed out by member_tol
    # along b, the target lies member_tol to 2 member_tol from V(alpha_hat),
    # and the distance iteration separates it there by the normal at its
    # nearest point, starting from the witness whose hull holds t
    pushed = np.asarray(target, dtype=float).copy()
    pushed[list(active)] += member_tol * stop["direction"]
    sep = distance_to_performance_set(frozen, pushed, tol=0.25 * member_tol, active=active,
                                      seeds=stop["_witness"])
    b_active = sep.direction
    if b_active is None:      # the pushed target is within the iteration's 1e-14 floor
        raise CertifiedFailure("reduction found no separating direction", residual=sep.g)
    # h(b) - <b, t>, from the iteration's bound h(b) = <b, pushed> - lower
    gap = member_tol * float(b_active @ stop["direction"]) - sep.lower

    b_full = _embed(b_active, active, pair.model.criteria)
    # the stop bounds |gap| by member_tol and no tighter, and a target that
    # close to a face can need actions whose Q-gap is near that bound
    eta = 4.0 * member_tol
    vf, _, h_val = value_iteration(frozen, b_full, tol=max(1e-10, member_tol))
    kept = conserving_submodel(frozen, b_full, vf, eta)
    # phi0 spliced to phi1 below the threshold, and phi1, pruned to kept
    s = ctx.split(a_hat)
    next_pair = _pair_from_submodel(kept, s.actions, ctx.a1[s.rows])

    drop_pos = int(np.argmax(np.abs(b_active)))
    dropped = active[drop_pos]
    new_active = tuple(c for c in active if c != dropped)

    # repair: project the target onto the pruned submodel's reachable set
    repair = distance_to_performance_set(kept, target, tol=member_tol,
                                         active=new_active)
    new_target = np.asarray(target, dtype=float).copy()
    new_target[list(new_active)] = repair.projection

    trace.append({
        "kind": "reduce",
        "depth": depth,
        "active": list(active),
        "alpha_hat": a_hat,
        "threshold": ctx.threshold(a_hat),
        "direction": [float(x) for x in b_full],
        "support_value": h_val,
        "support_gap": float(gap),
        "eta": float(eta),
        "dropped": dropped,
        "membership_gap": repair.g,
        "membership_tests": stop["membership_tests"],
        "support_calls": stop["support_calls"],
        "face_steps": stop["face_steps"],
        "fallback_steps": stop["fallback_steps"],
        "polish_calls": sep.support_calls,
    })
    return _realize(*next_pair, new_target, new_active, tol, trace, depth + 1)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def mix_pair(model: AtomlessMDP, phi0: DeterministicPolicy, phi1: DeterministicPolicy,
             lam: float, tol: float = 1e-6):
    """Deterministic policy whose performance is lam * v(phi0) + (1-lam) * v(phi1).

    One threshold-path realization of the target at tolerance tol / (2N) per
    level, verified by evaluating the returned policy; a miss above tol
    raises ``CertifiedFailure`` with the achieved residual and the trace.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0,1]")
    if not tol > 0:
        raise ValueError("tol must be positive")
    model.certificate()
    validate_policy(model, phi0)
    validate_policy(model, phi1)
    return _mix(model, phi0, phi1, lam, tol)


def _mix(model, phi0, phi1, lam, tol):
    """mix_pair on two checked policies and a lambda in [0, 1]."""
    if lam == 1.0 or phi0 == phi1:
        v = _perf(model, phi0)
        return phi0.canonical(), MixCertificate(lam, v, v, 0.0, tol, [])
    if lam == 0.0:
        v = _perf(model, phi1)
        return phi1.canonical(), MixCertificate(lam, v, v, 0.0, tol, [])

    v0, v1 = _perf(model, phi0), _perf(model, phi1)
    target = lam * v0 + (1.0 - lam) * v1
    trace: list = []
    phi = _realize(*SubmodelSpec._pair(model, phi0, phi1), target,
                   tuple(range(model.criteria)), tol / (2.0 * model.criteria), trace)
    achieved = _perf(model, phi)
    err = float(np.linalg.norm(achieved - target))
    if err > tol:
        raise CertifiedFailure("pairwise mix missed its tolerance", residual=err, trace=trace)
    return phi.canonical(), MixCertificate(lam, target, achieved, err, tol, trace)


def caratheodory(model: AtomlessMDP, pi: StationaryPolicy, tol: float = 1e-7):
    """Express v(pi) as a convex combination of at most N+1 deterministic policies."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    model.certificate()
    validate_policy(model, pi)
    if isinstance(pi, DeterministicPolicy):
        return [(1.0, pi.canonical())]
    if pi.is_deterministic(1e-12):
        return [(1.0, pi.to_deterministic().canonical())]
    target = _perf(model, pi)
    res = distance_to_performance_set(SubmodelSpec.full(model), target, tol=0.5 * tol)
    if res.g > tol:
        raise CertifiedFailure("hull iteration missed the stationary target",
                               residual=res.g)
    return _terms(res, model.criteria)


def _terms(res: DistanceResult, criteria: int) -> list:
    """A hull answer's witness as at most criteria + 1 (weight, policy) terms."""
    policies = [p for p, _ in res.vertices]
    vectors = np.array([v for _, v in res.vertices])
    lam = np.where(res.weights > 1e-14, res.weights, 0.0)
    lam = lam / lam.sum()
    lam = caratheodory_prune(vectors, lam, criteria + 1)
    terms = [(float(l), policies[i].canonical()) for i, l in enumerate(lam) if l > 1e-13]
    total = sum(l for l, _ in terms)
    return [(l / total, p) for l, p in terms]


def derandomize(model: AtomlessMDP, pi: StationaryPolicy, tol: float = 1e-6):
    """Deterministic policy with the same performance vector as ``pi``.

    Decomposes v(pi) over vertex policies, then folds the terms through
    the mixer left to right with the per-stage budget tol / (2 * #terms).
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    model.certificate()
    if isinstance(pi, DeterministicPolicy) or pi.is_deterministic(1e-12):
        phi = pi if isinstance(pi, DeterministicPolicy) else pi.to_deterministic()
        v = _perf(model, phi)
        return phi, MixCertificate(None, v, v, 0.0, tol, [{"kind": "already-deterministic"}])

    target = _perf(model, pi)
    return _fold(model, caratheodory(model, pi, tol=0.25 * tol), target, tol)


def _fold(model: AtomlessMDP, terms: list, target, tol: float):
    """derandomize's fold of (weight, checked policy) terms with the given target."""
    stage_floor = tol / (2.0 * max(1, len(terms)))
    trace: list = [{
        "kind": "caratheodory",
        "terms": len(terms),
        "weights": [float(l) for l, _ in terms],
    }]
    phi_acc = terms[0][1]
    weight = terms[0][0]
    consumed = 0.0
    remaining = len(terms) - 1
    for lam_k, phi_k in terms[1:]:
        # unused budget rolls forward; stage errors only shrink under later
        # reweighting, so the sum of stage errors bounds the fold error
        stage_tol = max(stage_floor, (0.7 * tol - consumed) / remaining)
        # the terms are support vertices and the folds' outputs: checked already
        phi_acc, cert = _mix(model, phi_acc, phi_k, weight / (weight + lam_k), stage_tol)
        consumed += cert.error
        remaining -= 1
        trace.extend(cert.trace)
        weight += lam_k
    achieved = _perf(model, phi_acc)
    err = float(np.linalg.norm(achieved - target))
    if err > tol:
        raise CertifiedFailure("derandomization missed its tolerance",
                               residual=err, trace=trace)
    return phi_acc, MixCertificate(None, target, achieved, err, tol, trace)
