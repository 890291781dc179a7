"""Scalarized total-reward dynamic programming on interval submodels.

Solves sup over policies of <direction, v> restricted to per-interval allowed
action sets.  The optimum is found by policy iteration over intervalwise
deterministic policies (each evaluation is one certified linear solve on the
base grid, through the occupancy layer) and certified afterwards by the
one-step Bellman residual: for an absorbing model, a residual of delta
bounds the distance to the true optimum by L * delta.
"""

from __future__ import annotations

import numpy as np

from .errors import CertifiedFailure, ToleranceError
from .measure import StatePartition
from .model import AtomlessMDP, DeterministicPolicy
from .occupancy import cell_weights, certified_solve, refine

__all__ = [
    "SubmodelSpec",
    "ValueFunction",
    "value_iteration",
    "support",
    "conserving_submodel",
]

POLICY_ROUNDS = 500       # policy improvement steps before giving up


class SubmodelSpec:
    """Per-interval allowed actions on a partition refining the base grid.

    ``allowed`` is a boolean (intervals x actions) mask; ``owner`` maps each
    interval to its base-grid cell, ``frac`` is its share of that cell's
    width and ``initial_masses`` holds the initial distribution's mass on
    each interval.  All four arrays are read-only.  Only the constructor
    checks: a child of a checked submodel (``_child``) reuses its ``owner``
    and ``frac``, and its mask is a nonempty subset of the parent's rows.
    A submodel keeps the policy-iteration answer of every direction it has
    solved, so a repeated query whose tol that answer's bound meets costs no
    solve.
    """

    __slots__ = ("model", "partition", "allowed", "owner", "frac", "initial_masses", "_solved")

    def __init__(self, model: AtomlessMDP, partition: StatePartition, allowed):
        allowed = np.array(allowed, dtype=bool)
        if allowed.shape != (partition.cell_count, model.action_count):
            raise ValueError("allowed must be an (intervals x actions) mask")
        owner, frac = partition.rebin_from(model.grid)
        empty = ~allowed.any(axis=1)
        bad = np.flatnonzero(empty | (allowed & ~model.available_mask()[owner]).any(axis=1))
        if bad.size:
            s = int(bad[0])
            if empty[s]:
                raise ValueError(f"interval {s}: empty allowed set")
            acts = tuple(np.flatnonzero(allowed[s]).tolist())
            raise ValueError(f"interval {s}: actions {acts} not all available")
        self._fill(model, partition, allowed, owner, frac)

    def _fill(self, model, partition, allowed, owner, frac):
        mu = model.initial.masses[owner] * frac
        for arr in (allowed, owner, frac, mu):
            arr.setflags(write=False)
        self.model, self.partition, self.allowed = model, partition, allowed
        self.owner, self.frac, self.initial_masses = owner, frac, mu
        self._solved = {}     # direction's float64 bytes -> _solve's answer

    def _child(self, partition: StatePartition, owner, frac, allowed) -> "SubmodelSpec":
        """Unchecked submodel on a refinement of this one's partition; each
        interval's ``allowed`` row (a new array) is a nonempty subset of its
        parent row's, and ``owner`` and ``frac`` are taken from this one's."""
        sub = SubmodelSpec.__new__(SubmodelSpec)
        sub._fill(self.model, partition, allowed, owner, frac)
        return sub

    @classmethod
    def full(cls, model: AtomlessMDP) -> "SubmodelSpec":
        return cls(model, model.grid, model.available_mask())

    @classmethod
    def from_pair(cls, model: AtomlessMDP, phi0: DeterministicPolicy,
                  phi1: DeterministicPolicy) -> "SubmodelSpec":
        return cls._pair(model, phi0, phi1)[0]

    @classmethod
    def _pair(cls, model, phi0, phi1):
        """from_pair's submodel and both policies' actions on its partition."""
        part = phi0.partition.refine(phi1.partition).refine(model.grid)
        acts = [phi.refined_to(part).actions for phi in (phi0, phi1)]
        allowed = np.zeros((part.cell_count, model.action_count), dtype=bool)
        allowed[np.arange(part.cell_count), acts] = True
        return cls(model, part, allowed), *acts

    def frozen_below(self, threshold: float, low: DeterministicPolicy) -> "SubmodelSpec":
        """Force the ``low`` policy's action on every interval left of the threshold."""
        part = self.partition.refine(low.partition).with_point(threshold)
        below = 0.5 * (part.points[:-1] + part.points[1:]) < threshold
        allowed = self.allowed[part.index_map_from(self.partition)]
        allowed[below] = False
        allowed[below, low.refined_to(part).actions[below]] = True
        return SubmodelSpec(self.model, part, allowed)

    def __repr__(self):
        sizes = np.unique(self.allowed.sum(axis=1)).tolist()
        return f"SubmodelSpec({self.partition.cell_count} intervals, set sizes {sizes})"


class ValueFunction:
    """Piecewise-constant scalar value with a certified optimality error bound."""

    __slots__ = ("partition", "values", "error_bound")

    def __init__(self, partition, values, error_bound):
        self.partition = partition
        self.values = np.asarray(values, dtype=float)
        self.error_bound = float(error_bound)


def _q_values(sub: SubmodelSpec, q_masked, cell_values):
    """q[s, a] = r(cell(s), a) + integral of the value under the kernel row,
    given the value's cell averages; ``q_masked`` holds the immediate
    rewards, -inf where a is not allowed."""
    return q_masked + (sub.model.kernel @ cell_values)[sub.owner]


def _policy_iteration(sub: SubmodelSpec, direction, tol: float):
    """Optimal intervalwise actions for <direction, r>, certified within tol.

    Returns (actions, x, err, bound): x[:, 0] is the optimal value, x[:, 1:]
    the optimal policy's values of the reward vector, err the certified
    optimality gap and bound the final solve's certified bound, which bounds
    the error of x[:, 1:] and of its integral against the initial masses
    (zero on a one-step model, whose solution is exact).  Each submodel keeps
    the read-only answer per direction and reuses it while its bound meets
    tol; the gap is checked per call.
    """
    direction = np.asarray(direction, dtype=float)
    key = direction.tobytes()
    solved = sub._solved.get(key)
    if solved is None or not solved[3] <= tol:
        solved = sub._solved[key] = _solve(sub, direction, tol)
        for arr in solved[:2]:
            arr.setflags(write=False)
    err = solved[2]
    if err > tol:
        raise ToleranceError(
            f"certified optimality gap {err:.3e} exceeds requested tol {tol:.3e}"
        )
    return solved


def _solve(sub: SubmodelSpec, direction: np.ndarray, tol: float):
    """Policy iteration: _policy_iteration's answer, without the gap check.

    Each evaluated policy costs one solve of I - P_w on the base grid for its
    cell weights w: the cell averages c of its values of the reward vector
    solve (I - P_w) c = sum_a w r, and an interval of cell i with action a
    has the values r(i, a) + K(i, a) c.  The greedy step reads its Q-values
    from c; the final solve is refined where its bound misses tol.
    Ties in the greedy step break toward the lowest action index.
    """
    model = sub.model
    cert = model.certificate()
    scalar_r = model.rewards @ direction      # (cells, actions)
    owner = sub.owner
    rows = np.arange(sub.partition.cell_count)
    # the first greedy step is on the masked immediate rewards (zero values)
    q_masked = np.where(sub.allowed, scalar_r[owner], -np.inf)

    if model.is_one_step():
        # one-step model: the value is the per-interval best immediate reward
        actions = np.argmax(q_masked, axis=1)
        x = np.column_stack((np.max(q_masked, axis=1), model.rewards[owner, actions]))
        return actions, x, 0.0, 0.0

    # keep the incumbent unless the gain is numerically meaningful
    keep_gain = 1e-13 * (1.0 + float(np.abs(scalar_r).max(initial=0.0))) * cert.L

    def evaluate(actions):
        w = cell_weights(model, owner, sub.frac, actions)
        return (w, *certified_solve(model, w, cert.L, False))

    actions = q_masked.argmax(axis=1)
    w, c, bound, res = evaluate(actions)
    for _ in range(POLICY_ROUNDS):
        q = _q_values(sub, q_masked, c @ direction)
        improved = q.argmax(axis=1)
        gain = q[rows, improved] - q[rows, actions]
        improved = np.where(gain <= keep_gain, actions, improved)
        if np.array_equal(improved, actions):
            break
        actions = improved
        w, c, bound, res = evaluate(actions)
    else:
        raise CertifiedFailure("policy iteration did not stabilize", residual=np.inf)

    if not bound <= tol:
        c, bound, res = refine(model, w, c, cert.L, False)
        q = _q_values(sub, q_masked, c @ direction)
        gain = q.max(axis=1) - q[rows, actions]
    values = model.rewards[owner, actions] + model.kernel[owner, actions] @ c
    x = np.concatenate(((values @ direction)[:, None], values), axis=1)
    # the Bellman residual of x[:, 0], from the Q-values on c @ direction:
    # those on x[:, 0]'s cell averages differ by at most the solve's residual
    # times |direction|_1 (res is L times it, and bound covers res)
    err = cert.L * float(gain.max()) + res * float(np.abs(direction).sum())
    return actions, x, err, bound


def value_iteration(sub: SubmodelSpec, direction, tol: float = 1e-10):
    """Optimal scalarized value over the submodel.

    Returns (ValueFunction, greedy DeterministicPolicy, h) where
    h = integral of the value against the initial distribution and the
    certified bound |h - sup| <= ValueFunction.error_bound <= tol holds.
    Ties in the greedy step break toward the lowest action index.
    """
    actions, x, err, _ = _policy_iteration(sub, direction, tol)
    values = x[:, 0]
    vf = ValueFunction(sub.partition, values, err)
    policy = DeterministicPolicy(sub.partition, actions)
    return vf, policy, float(sub.initial_masses @ values)


def support(model_or_sub, direction, tol: float = 1e-10):
    """Support function of the performance set: h(b) = sup over policies of <b, v>.

    Returns (h, argmax deterministic policy, v); the sup is attained by an
    intervalwise-deterministic policy, so the returned policy is a vertex,
    and v is its performance vector.  v comes from the same linear solve
    that evaluates the optimal value, with the reward vectors as further
    right-hand sides, and its error is that solve's certified bound, which
    must be within tol.
    """
    sub = model_or_sub if isinstance(model_or_sub, SubmodelSpec) else SubmodelSpec.full(model_or_sub)
    actions, x, _, err = _policy_iteration(sub, direction, tol)
    if err > tol:
        raise ToleranceError(
            f"certified performance error {err:.3e} exceeds requested tol {tol:.3e}"
        )
    mu = sub.initial_masses
    return float(mu @ x[:, 0]), DeterministicPolicy(sub.partition, actions), mu @ x[:, 1:]


def conserving_submodel(sub: SubmodelSpec, direction, vf: ValueFunction,
                        eta: float) -> SubmodelSpec:
    """Keep, per interval, exactly the actions whose one-step operator reproduces
    the optimal value within eta.  Every policy of the result is eta-conserving,
    so its scalarized performance sits within L * eta of the optimum."""
    if vf.partition != sub.partition:
        raise ValueError("value function must live on the submodel partition")
    scalar_r = sub.model.rewards @ np.asarray(direction, dtype=float)
    cell_avg = np.bincount(sub.owner, sub.frac * vf.values, sub.model.cell_count)
    q = _q_values(sub, np.where(sub.allowed, scalar_r[sub.owner], -np.inf), cell_avg)
    gaps = np.abs(q - vf.values[:, None])
    keep = sub.allowed & (gaps <= eta)
    empty = np.flatnonzero(~keep.any(axis=1))
    if empty.size:
        s = int(empty[0])
        raise ToleranceError(
            f"interval {s}: no action conserves the value within eta={eta:.3e} "
            f"(best gap {gaps[s, sub.allowed[s]].min():.3e})"
        )
    return sub._child(sub.partition, sub.owner, sub.frac, keep)
