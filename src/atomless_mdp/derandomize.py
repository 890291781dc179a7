"""Constructive derandomization of stationary policies.

The pipeline realizes any target performance vector of a two-policy submodel
by a deterministic threshold construction:

* the occupancy measure q of the half/half average of the two policies orders
  the state space, and quantile thresholds of q cut out policies phi_alpha
  that interpolate continuously (in occupancy total variation) between the
  endpoints;
* for one criterion a bisection over the threshold hits any intermediate
  value exactly (intermediate value theorem);
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
from itertools import combinations
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import CertifiedFailure
from .geometry import caratheodory_prune, distance_to_hull, min_norm_point
from .measure import PieceMeasure, StatePartition
from .model import (
    AtomlessMDP,
    DeterministicPolicy,
    StationaryPolicy,
    validate_policy,
)
from .occupancy import evaluate_weights, performance
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
POLISH_SUBSETS = 100_000  # N-point subsets one polish round may enumerate
SCALAR_ITERS = 220        # threshold bisection steps for one criterion


def _perf(model: AtomlessMDP, policy) -> np.ndarray:
    """Tight-tolerance performance evaluation, cached on the model by policy digest."""
    if isinstance(policy, DeterministicPolicy):
        key = (policy.partition.points.tobytes(), policy.actions.tobytes())
    else:
        key = (policy.partition.points.tobytes(), policy.probs.tobytes())
    hit = model._perf_cache.get(key)
    if hit is None:
        hit = performance(model, policy, tol=EVAL_TOL)
        model._perf_cache[key] = hit
    return hit


def _cell_weights(model: AtomlessMDP, owner, frac, actions) -> np.ndarray:
    """(cells x actions) sums of ``frac`` by base cell and action, added in
    interval order as ``cell_action_weights`` adds them."""
    a = model.action_count
    flat = np.bincount(owner * a + actions, weights=frac, minlength=model.cell_count * a)
    return flat.reshape(model.cell_count, a)


# ---------------------------------------------------------------------------
# two-policy context and the threshold path
# ---------------------------------------------------------------------------


class PathSplit(NamedTuple):
    """``TwoPolicyContext.partition`` with one threshold added, per interval."""

    partition: StatePartition
    rows: np.ndarray        # the interval's index in the context's partition
    frac: np.ndarray        # its width over its base cell's width
    below: np.ndarray       # it lies left of the threshold
    actions: np.ndarray     # phi1's action below the threshold, phi0's from it on


@dataclass
class TwoPolicyContext:
    """Shared data for constructions over the submodel {phi0(x), phi1(x)}.

    ``a0`` and ``a1`` are both policies' actions on ``partition``, the common
    refinement of both policies and the base grid (``pair.partition``;
    ``pair.owner`` and ``pair.frac`` give each interval's base cell and its
    share of that cell's width).
    """

    model: AtomlessMDP
    phi0: DeterministicPolicy
    phi1: DeterministicPolicy
    partition: StatePartition
    a0: np.ndarray
    a1: np.ndarray
    q: PieceMeasure                # state occupancy of the half/half average
    pair: SubmodelSpec             # the action sets {phi0(x), phi1(x)}

    def threshold(self, alpha: float) -> float:
        return self.q.quantile(alpha)[0]

    def split(self, alpha: float) -> PathSplit:
        """The arrays split at the alpha-threshold, which is added as a
        breakpoint unless one lies within MERGE_TOL of it (StatePartition.with_point)."""
        t = self.threshold(alpha)
        part = self.partition.with_point(t)
        rows, frac = np.arange(self.partition.cell_count), self.pair.frac
        if part is not self.partition:
            # interval j of the context's partition is cut in two
            j = int(np.searchsorted(self.partition.points, t)) - 1
            pieces = part.widths[j:j + 2] / self.model.grid.widths[self.pair.owner[j]]
            rows = np.concatenate((rows[:j + 1], rows[j:]))
            frac = np.concatenate((frac[:j], pieces, frac[j + 1:]))
        below = 0.5 * (part.points[:-1] + part.points[1:]) < t
        actions = np.where(below, self.a1[rows], self.a0[rows])
        return PathSplit(part, rows, frac, below, actions)

    def submodel_at(self, alpha: float) -> SubmodelSpec:
        """Action sets with phi1 forced below the alpha-threshold of q."""
        s = self.split(alpha)
        return self.pair.frozen(s.partition, s.rows, s.below, self.a1[s.rows])


def make_context(model: AtomlessMDP, phi0: DeterministicPolicy,
                 phi1: DeterministicPolicy) -> TwoPolicyContext:
    validate_policy(model, phi0)
    validate_policy(model, phi1)
    pair = SubmodelSpec.from_pair(model, phi0, phi1)
    part, owner = pair.partition, pair.owner
    a0 = phi0.refined_to(part).actions
    a1 = phi1.refined_to(part).actions
    half = 0.5 * pair.frac
    w = _cell_weights(model, owner, half, a0) + _cell_weights(model, owner, half, a1)
    q = PieceMeasure(model.grid, evaluate_weights(model, w, EVAL_TOL)[0])
    return TwoPolicyContext(model, phi0, phi1, part, a0, a1, q, pair)


def path_policy(ctx: TwoPolicyContext, alpha: float) -> DeterministicPolicy:
    """Threshold policy on ctx.partition with the alpha-quantile t of q added:
    phi1 strictly below t, phi0 from it on."""
    s = ctx.split(alpha)
    return DeterministicPolicy(s.partition, s.actions)


def path_value(ctx: TwoPolicyContext, alpha: float):
    """Cell weights w and performance vector v of path_policy(ctx, alpha),
    without building the policy, and a bound on each coordinate's error.

    w is bitwise ``cell_action_weights(model, path_policy(ctx, alpha))``, so v
    is what ``performance`` returns for that policy.
    """
    model = ctx.model
    s = ctx.split(alpha)
    w = _cell_weights(model, ctx.pair.owner[s.rows], s.frac, s.actions)
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
    cert = ctx.model.certificate()
    q_total = ctx.q.total
    best = np.inf
    horizon = cert.survival.size + 64
    for level in range(horizon):
        grow = (2.0**level) * q_total * delta
        if grow >= best:
            break
        best = min(best, 2.0 * (cert.tail(level) + grow))
    return float(best)


# ---------------------------------------------------------------------------
# distance to a performance set via the support oracle
# ---------------------------------------------------------------------------


@dataclass
class DistanceResult:
    g: float                                   # certified upper bound on the distance
    lower: float                               # certified lower bound
    witness: list                              # [(weight, DeterministicPolicy)]
    direction: np.ndarray | None               # separating direction when outside
    projection: np.ndarray                     # nearest achieved point
    vertices: list = field(default_factory=list)   # [(policy, vector)] hull generators


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

    Vertices are deduplicated at a fraction of ``tol``: seed policies from
    nearby submodels differ by far less than the decision tolerance, and a
    support vertex that is already in the hull means the oracle added
    nothing, so the loop stops there instead of repeating the same call.
    ``seeds`` are (policy, vector) pairs with the vector on the active
    coordinates, like ``DistanceResult.vertices``.
    """
    n = sub.model.criteria
    active = tuple(range(n)) if active is None else tuple(active)
    t_active = np.asarray(target, dtype=float)[list(active)]
    dedupe = max(1e-12, 1e-3 * tol)

    verts: list = []     # (policy, active-coordinate vector)
    seen = set()

    def add_vertex(policy, v_active):
        key = tuple(np.round(v_active / dedupe).astype(np.int64))
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
    if not verts:
        _, policy, v = support(sub, _embed(np.ones(len(active)) / np.sqrt(len(active)), active, n))
        add_vertex(policy, v[list(active)])

    lower = 0.0
    for _ in range(DISTANCE_CAP):
        mat = np.array([v for _, v in verts])
        d, proj, lam = distance_to_hull(mat, t_active)
        if d <= max(tol, 1e-14) or (decide is not None and d <= decide):
            witness = [(float(l), p) for l, (p, _) in zip(lam, verts) if l > 1e-14]
            return DistanceResult(d, max(lower, 0.0), witness, None, proj, verts)
        b = (t_active - proj) / d
        h, policy, v = support(sub, _embed(b, active, n))
        lower = max(lower, float(b @ t_active) - h)
        if lower > d:
            lower = d          # rounding guard; bounds must nest
        if (d - lower <= tol or (decide is not None and lower > decide)
                or not add_vertex(policy, v[list(active)])):
            witness = [(float(l), p) for l, (p, _) in zip(lam, verts) if l > 1e-14]
            return DistanceResult(d, lower, witness, b, proj, verts)
    raise CertifiedFailure("distance iteration exceeded its cap", residual=d)


# ---------------------------------------------------------------------------
# alpha_hat: largest freeze fraction keeping the target attainable
# ---------------------------------------------------------------------------


def _membership(sub, target, tol, active, pool, alpha):
    """Decide d(target, V(sub)) <= tol, seeding with pool vertices valid at alpha.

    Policies found feasible at a larger freeze fraction remain feasible at a
    smaller one (thresholds nest), so the pool carries hull generators across
    the bisection.  Pool entries are (alpha, policy, active-coordinate vector).
    """
    seeds = [(p, v) for a0, p, v in pool if a0 >= alpha - 1e-15]
    res = distance_to_performance_set(sub, target, tol=0.25 * tol, active=active, seeds=seeds,
                                      decide=tol)
    pool.extend((alpha, p, v) for p, v in res.vertices)
    if len(pool) > 120:
        del pool[: len(pool) - 120]
    return res.g <= tol, res


def alpha_hat(ctx: TwoPolicyContext, target, tol: float = 1e-7, active=None, *,
              certificate: dict | None = None) -> float:
    """Freeze fraction alpha at which the target is within tol of the
    boundary of V(alpha), certified by one support call.

    V(alpha) shrinks as alpha grows, so membership d(target, V(alpha)) <= tol
    is monotone and bisection applies; vertices feasible at large alpha seed
    the membership tests at smaller alpha.  With gap(alpha) the signed
    distance from the target to the boundary (positive inside), an "inside"
    answer gives gap >= -tol, and h_alpha(b) <= <b, target> for the
    separating direction b of the last "outside" answer gives gap <= 0; the
    bisection stops at the first alpha with both, or at float spacing.  The
    same support call at a midpoint settles "outside" alone when
    h(b) < <b, target> - tol.  Returns 1.0 when the target is within tol of
    V(1).  A ``certificate`` dict receives b, on the active coordinates
    (None at 1.0), as ``direction``.
    """
    target = np.asarray(target, dtype=float)
    active = tuple(range(ctx.model.criteria)) if active is None else tuple(active)
    t_active = target[list(active)]
    pool: list = []
    sub0 = ctx.submodel_at(0.0)
    ok0, res0 = _membership(sub0, target, tol, active, pool, 0.0)
    if not ok0:
        raise CertifiedFailure(
            "target is not in the two-policy performance set", residual=res0.g
        )
    ok1, res1 = _membership(ctx.submodel_at(1.0), target, tol, active, pool, 1.0)
    if ok1:
        if certificate is not None:
            certificate["direction"] = None
        return 1.0
    lo, hi, b_hi = 0.0, 1.0, res1.direction
    gap, _ = _support_gap(sub0, b_hi, active, t_active)
    while gap > 0.0:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        sub = ctx.submodel_at(mid)
        gap_mid, _ = _support_gap(sub, b_hi, active, t_active)
        if gap_mid < -tol:
            hi = mid
            continue
        ok, res = _membership(sub, target, tol, active, pool, mid)
        if ok:
            lo, gap = mid, gap_mid
        else:
            hi, b_hi = mid, res.direction
    if certificate is not None:
        certificate["direction"] = b_hi
    return lo


# ---------------------------------------------------------------------------
# supporting directions
# ---------------------------------------------------------------------------


def _support_gap(sub: SubmodelSpec, b_active, active, target_active):
    """h(b) - <b, target> and the argmax vertex's vector, on the active coordinates."""
    b_active = np.asarray(b_active, dtype=float)
    h, _, v = support(sub, _embed(b_active, active, sub.model.criteria))
    return h - float(b_active @ target_active), v[list(active)]


def _min_max_direction(w_rows: np.ndarray) -> np.ndarray:
    """argmin over unit b of max_k <b, w_k> for an explicit point cloud.

    Outside conv W the minimizer is -p/|p| for the min-norm point p.  Otherwise
    it is a facet normal, and every facet passes through N of the points, so
    the normals of all hyperplanes through N points contain it; for a flat
    cloud such a normal is orthogonal to the cloud's affine hull.  The cost
    grows as C(len(w_rows), N).
    """
    count, dim = w_rows.shape
    subsets = np.array(list(combinations(range(count), dim)))
    # the last column of a complete QR of the N-1 spanning differences is
    # orthogonal to them, whatever their rank
    spans = w_rows[subsets[:, 1:]] - w_rows[subsets[:, :1]]
    normals = np.linalg.qr(np.swapaxes(spans, 1, 2), mode="complete")[0][:, :, -1]
    p, _ = min_norm_point(w_rows)
    norm = float(np.linalg.norm(p))
    cands = np.vstack([normals, -normals] + ([-p / norm] if norm > 0.0 else []))
    return cands[int(np.argmin((cands @ w_rows.T).max(axis=1)))]


def _polish_direction(sub: SubmodelSpec, target_active, active, init=None):
    """Minimize the support gap h(b) - <b, target> over unit directions.

    The gap is the maximum of <b, u - target> over the finitely many vertex
    performances u, so a cutting-plane loop suffices: minimize the explicit
    max over the vertices collected so far (cheap, no oracle), then query the
    support oracle at the minimizer, which either certifies the model or
    contributes a new vertex.  The minimum over the sphere equals the signed
    distance from the target to the boundary, and the minimizer supports the
    set there.  Rounds continue until the oracle certifies the model, or until
    the next round's subset enumeration would exceed ``POLISH_SUBSETS``,
    which bounds its memory at any N.
    """
    dim = len(active)
    cloud: list = []
    best_b, best_f = None, np.inf

    def oracle(b):
        nonlocal best_b, best_f
        b = np.asarray(b, dtype=float)
        norm = float(np.linalg.norm(b))
        if norm < 1e-12:
            return np.inf
        b = b / norm
        f, v_active = _support_gap(sub, b, active, target_active)
        cloud.append(v_active - target_active)
        if f < best_f:
            best_b, best_f = b, f
        return f

    if init is not None:
        oracle(init)
    for axis in range(dim):
        e = np.zeros(dim)
        e[axis] = 1.0
        oracle(e)
        oracle(-e)

    scale = 1.0 + float(np.abs(np.array(cloud)).max(initial=0.0))
    while comb(len(cloud), dim) <= POLISH_SUBSETS:
        w_rows = np.array(cloud)
        b = _min_max_direction(w_rows)
        model_val = float((w_rows @ b).max())
        true_val = oracle(b)
        if true_val - model_val <= 1e-13 * scale:
            break
    return best_b, best_f


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
        return {
            "lambda": self.requested_lambda,
            "target": [float(x) for x in self.target],
            "achieved": [float(x) for x in self.achieved],
            "error": self.error,
            "tol": self.tol,
            "levels": len(self.trace),
        }


def _pair_from_submodel(sub: SubmodelSpec, phi0: DeterministicPolicy,
                        phi1: DeterministicPolicy):
    """Re-express a (possibly pruned) two-policy submodel as a policy pair."""
    part, allowed = sub.partition, sub.allowed
    rows = np.arange(part.cell_count)
    a0 = phi0.refined_to(part).actions
    a1 = phi1.refined_to(part).actions
    # a pruned phi0 takes the highest allowed action, a pruned phi1 the lowest
    highest = allowed.shape[1] - 1 - np.argmax(allowed[:, ::-1], axis=1)
    lowest = np.argmax(allowed, axis=1)
    a0 = np.where(allowed[rows, a0], a0, highest)
    a1 = np.where(allowed[rows, a1], a1, lowest)
    return DeterministicPolicy(part, a0), DeterministicPolicy(part, a1)


def _realize_scalar(model, phi0, phi1, target, coord, tol, trace):
    """Intermediate-value bisection along the threshold path for one criterion."""
    sub = SubmodelSpec.from_pair(model, phi0, phi1)
    n = model.criteria
    e = _embed(np.array([1.0]), (coord,), n)
    _, phi_hi, v_hi = support(sub, e)
    _, phi_lo, v_lo = support(sub, -e)
    v_lo, v_hi = float(v_lo[coord]), float(v_hi[coord])
    t = float(target[coord])
    slack = max(tol, 1e-11)
    if t < v_lo - slack or t > v_hi + slack:
        raise CertifiedFailure(
            f"scalar target {t} outside attainable range [{v_lo}, {v_hi}]",
            residual=max(v_lo - t, t - v_hi),
        )
    t = min(max(t, v_lo), v_hi)
    if abs(v_hi - t) <= tol:
        trace.append({"kind": "scalar", "coord": coord, "achieved": v_hi, "iters": 0})
        return phi_hi
    if abs(v_lo - t) <= tol:
        trace.append({"kind": "scalar", "coord": coord, "achieved": v_lo, "iters": 0})
        return phi_lo
    ctx = make_context(model, phi_lo, phi_hi)
    a_lo, a_hi = 0.0, 1.0
    best_err = abs(v_lo - t)
    for it in range(SCALAR_ITERS):
        # each step is one solve on the threshold's cell weights; only the
        # accepted step becomes a policy, evaluated once more through _perf
        mid = 0.5 * (a_lo + a_hi)
        _, v, bound = path_value(ctx, mid)
        val = float(v[coord])
        err = abs(val - t) + bound
        best_err = min(best_err, err)
        if err <= tol:
            phi_mid = path_policy(ctx, mid)
            achieved = float(_perf(model, phi_mid)[coord])
            trace.append({"kind": "scalar", "coord": coord, "achieved": achieved,
                          "iters": it + 1})
            return phi_mid
        if val < t:
            a_lo = mid
        else:
            a_hi = mid
    raise CertifiedFailure("scalar path bisection missed its tolerance",
                           residual=best_err, trace=trace)


def _realize(model, phi0, phi1, target, active, tol, trace, depth=0):
    """Find a deterministic policy of the two-policy submodel matching the
    target on the active coordinates within tol."""
    if len(active) == 1:
        return _realize_scalar(model, phi0, phi1, target, active[0], tol, trace)

    member_tol = 0.25 * tol
    ctx = make_context(model, phi0, phi1)
    t_active = np.asarray(target, dtype=float)[list(active)]

    stop: dict = {}
    a_hat = alpha_hat(ctx, target, tol=member_tol, active=active, certificate=stop)
    frozen = ctx.submodel_at(a_hat)
    phi0_f = path_policy(ctx, a_hat)       # phi0 spliced to phi1 below the threshold

    if a_hat >= 1.0:
        candidate = path_policy(ctx, 1.0)
        trace.append({"kind": "endpoint", "alpha_hat": 1.0})
        return candidate

    # the direction that certified alpha_hat already supports V(alpha_hat)
    # within tol at the target; polishing sharpens it to the supporting normal
    b_active, gap = _polish_direction(frozen, t_active, active, init=stop["direction"])

    b_full = _embed(b_active, active, model.criteria)
    # the stop bounds |gap| by member_tol and no tighter, and a target that
    # close to a face can need actions whose Q-gap is near that bound
    eta = 4.0 * member_tol
    vf, _, h_val = value_iteration(frozen, b_full, tol=max(1e-10, member_tol))
    kept = conserving_submodel(frozen, b_full, vf, eta)
    phi0_c, phi1_c = _pair_from_submodel(kept, phi0_f, ctx.phi1)

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
    })
    return _realize(model, phi0_c, phi1_c, new_target, new_active,
                    tol, trace, depth + 1)


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
    model.certificate()
    validate_policy(model, phi0)
    validate_policy(model, phi1)
    if lam == 1.0 or phi0 == phi1:
        v = _perf(model, phi0)
        return phi0.canonical(), MixCertificate(lam, v, v, 0.0, tol, [])
    if lam == 0.0:
        v = _perf(model, phi1)
        return phi1.canonical(), MixCertificate(lam, v, v, 0.0, tol, [])

    v0, v1 = _perf(model, phi0), _perf(model, phi1)
    target = lam * v0 + (1.0 - lam) * v1
    trace: list = []
    phi = _realize(model, phi0, phi1, target, tuple(range(model.criteria)),
                   tol / (2.0 * model.criteria), trace)
    achieved = _perf(model, phi)
    err = float(np.linalg.norm(achieved - target))
    if err > tol:
        raise CertifiedFailure("pairwise mix missed its tolerance", residual=err, trace=trace)
    return phi.canonical(), MixCertificate(lam, target, achieved, err, tol, trace)


def caratheodory(model: AtomlessMDP, pi: StationaryPolicy, tol: float = 1e-7):
    """Express v(pi) as a convex combination of at most N+1 deterministic policies."""
    model.certificate()
    if isinstance(pi, DeterministicPolicy):
        return [(1.0, pi.canonical())]
    validate_policy(model, pi)
    if pi.is_deterministic(1e-12):
        return [(1.0, pi.to_deterministic().canonical())]
    target = _perf(model, pi)
    res = distance_to_performance_set(SubmodelSpec.full(model), target, tol=0.5 * tol)
    if res.g > tol:
        raise CertifiedFailure("hull iteration missed the stationary target",
                               residual=res.g)
    policies = [p for p, _ in res.vertices]
    vectors = np.array([v for _, v in res.vertices])
    lam = np.zeros(len(policies))
    for weight, policy in res.witness:
        for i, p in enumerate(policies):
            if p is policy:
                lam[i] = weight
                break
    lam = lam / lam.sum()
    lam = caratheodory_prune(vectors, lam, model.criteria + 1)
    terms = [(float(l), policies[i].canonical()) for i, l in enumerate(lam) if l > 1e-13]
    total = sum(l for l, _ in terms)
    return [(l / total, p) for l, p in terms]


def derandomize(model: AtomlessMDP, pi: StationaryPolicy, tol: float = 1e-6):
    """Deterministic policy with the same performance vector as ``pi``.

    Decomposes v(pi) over vertex policies, then folds the terms through
    mix_pair left to right with the per-stage budget tol / (2 * #terms).
    """
    model.certificate()
    if isinstance(pi, DeterministicPolicy) or pi.is_deterministic(1e-12):
        phi = pi if isinstance(pi, DeterministicPolicy) else pi.to_deterministic()
        v = _perf(model, phi)
        return phi, MixCertificate(None, v, v, 0.0, tol, [{"kind": "already-deterministic"}])

    target = _perf(model, pi)
    terms = caratheodory(model, pi, tol=0.25 * tol)
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
        phi_acc, cert = mix_pair(model, phi_acc, phi_k, weight / (weight + lam_k),
                                 tol=stage_tol)
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
