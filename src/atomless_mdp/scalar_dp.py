"""Scalarized total-reward dynamic programming on interval submodels.

Solves sup over policies of <direction, v> restricted to per-interval allowed
action sets.  The optimum is found by policy iteration over intervalwise
deterministic policies (each evaluation is an exact linear solve on the
submodel partition) and certified afterwards by the one-step Bellman
residual: for an absorbing model, a residual of delta bounds the distance to
the true optimum by L * delta.
"""

from __future__ import annotations

import numpy as np

from .errors import CertifiedFailure, ToleranceError
from .measure import StatePartition
from .model import AtomlessMDP, DeterministicPolicy

__all__ = [
    "SubmodelSpec",
    "ValueFunction",
    "value_iteration",
    "support",
    "conserving_submodel",
]


class SubmodelSpec:
    """Per-interval allowed actions on a partition refining the base grid.

    ``allowed`` is a read-only boolean (intervals x actions) mask and
    ``owner`` maps each interval to its base-grid cell.
    """

    __slots__ = ("model", "partition", "allowed", "owner")

    def __init__(self, model: AtomlessMDP, partition: StatePartition, allowed):
        allowed = np.array(allowed, dtype=bool)
        if allowed.shape != (partition.cell_count, model.action_count):
            raise ValueError("allowed must be an (intervals x actions) mask")
        if not partition.refines(model.grid):
            raise ValueError("submodel partition must refine the base grid")
        owner = partition.index_map_from(model.grid)
        empty = ~allowed.any(axis=1)
        bad = np.flatnonzero(empty | (allowed & ~model.available_mask()[owner]).any(axis=1))
        if bad.size:
            s = int(bad[0])
            if empty[s]:
                raise ValueError(f"interval {s}: empty allowed set")
            acts = tuple(np.flatnonzero(allowed[s]).tolist())
            raise ValueError(f"interval {s}: actions {acts} not all available")
        allowed.setflags(write=False)
        owner.setflags(write=False)
        self.model = model
        self.partition = partition
        self.allowed = allowed
        self.owner = owner

    @classmethod
    def full(cls, model: AtomlessMDP) -> "SubmodelSpec":
        return cls(model, model.grid, model.available_mask())

    @classmethod
    def from_pair(cls, model: AtomlessMDP, phi0: DeterministicPolicy,
                  phi1: DeterministicPolicy) -> "SubmodelSpec":
        part = phi0.partition.refine(phi1.partition).refine(model.grid)
        allowed = np.zeros((part.cell_count, model.action_count), dtype=bool)
        rows = np.arange(part.cell_count)
        allowed[rows, phi0.refined_to(part).actions] = True
        allowed[rows, phi1.refined_to(part).actions] = True
        return cls(model, part, allowed)

    def refined_to(self, finer: StatePartition) -> "SubmodelSpec":
        return SubmodelSpec(self.model, finer, self.allowed[finer.index_map_from(self.partition)])

    def frozen_below(self, threshold: float, low: DeterministicPolicy) -> "SubmodelSpec":
        """Force the ``low`` policy's action on every interval left of the threshold."""
        part = self.partition.refine(low.partition).with_point(threshold)
        allowed = self.allowed[part.index_map_from(self.partition)]
        below = np.flatnonzero(0.5 * (part.points[:-1] + part.points[1:]) < threshold)
        allowed[below] = False
        allowed[below, low.refined_to(part).actions[below]] = True
        return SubmodelSpec(self.model, part, allowed)

    def arbitrary_policy(self) -> DeterministicPolicy:
        """The lowest allowed action on every interval."""
        return DeterministicPolicy(self.partition, np.argmax(self.allowed, axis=1))

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

    def cell_averages(self, model: AtomlessMDP) -> np.ndarray:
        owner = self.partition.index_map_from(model.grid)
        frac = self.partition.widths / model.grid.widths[owner]
        out = np.zeros(model.cell_count)
        np.add.at(out, owner, frac * self.values)
        return out


def _averaging_matrix(sub: SubmodelSpec) -> np.ndarray:
    """(cells x intervals) matrix turning interval values into cell averages."""
    model, part, owner = sub.model, sub.partition, sub.owner
    avg = np.zeros((model.cell_count, part.cell_count))
    avg[owner, np.arange(part.cell_count)] = part.widths / model.grid.widths[owner]
    return avg


def _transfer(model: AtomlessMDP, owner, avg, actions) -> np.ndarray:
    """I - P for an intervalwise policy, P[s, t] the mass moved from interval s to t."""
    return np.eye(owner.size) - model.kernel[owner, actions] @ avg


def _q_values(scalar_r, kernel, owner, avg, values):
    """q[s, a] = r(cell(s), a) + integral of the value under the kernel row."""
    cell_avg = avg @ values
    cont = kernel @ cell_avg          # (cells, actions)
    return (scalar_r + cont)[owner]


def value_iteration(sub: SubmodelSpec, direction, tol: float = 1e-10,
                    max_rounds: int = 500):
    """Optimal scalarized value over the submodel.

    Returns (ValueFunction, greedy DeterministicPolicy, h) where
    h = integral of the value against the initial distribution and the
    certified bound |h - sup| <= ValueFunction.error_bound <= tol holds.
    Ties in the greedy step break toward the lowest action index.
    """
    model = sub.model
    cert = model.certificate()
    b = np.asarray(direction, dtype=float)
    scalar_r = model.rewards @ b      # (cells, actions)
    owner = sub.owner
    n = sub.partition.cell_count

    if model.is_one_step():
        # one-step model: the value is the per-interval best immediate reward
        q_masked = np.where(sub.allowed, scalar_r[owner], -np.inf)
        values = np.max(q_masked, axis=1)
        actions = np.argmax(q_masked, axis=1)
        vf = ValueFunction(sub.partition, values, 0.0)
        policy = DeterministicPolicy(sub.partition, actions)
        mu = model.initial.refined_to(sub.partition).masses
        return vf, policy, float(mu @ values)

    avg = _averaging_matrix(sub)
    scale = float(np.abs(scalar_r).max(initial=0.0))

    def greedy(values, current=None):
        q = _q_values(scalar_r, model.kernel, owner, avg, values)
        q_masked = np.where(sub.allowed, q, -np.inf)
        best = np.argmax(q_masked, axis=1)
        if current is not None:
            # keep the incumbent unless the gain is numerically meaningful
            gain = q_masked[np.arange(n), best] - q_masked[np.arange(n), current]
            keep = gain <= 1e-13 * (1.0 + scale) * cert.L
            best[keep] = current[keep]
        return best, q_masked

    def evaluate(actions):
        return np.linalg.solve(_transfer(model, owner, avg, actions), scalar_r[owner, actions])

    actions, _ = greedy(np.zeros(n))
    values = evaluate(actions)
    for _ in range(max_rounds):
        improved, _ = greedy(values, actions)
        if np.array_equal(improved, actions):
            break
        actions = improved
        values = evaluate(actions)
    else:
        raise CertifiedFailure("policy iteration did not stabilize", residual=np.inf)

    _, q_masked = greedy(values)
    residual = float(np.abs(np.max(q_masked, axis=1) - values).max(initial=0.0))
    err = cert.L * residual
    if err > tol:
        raise ToleranceError(
            f"certified optimality gap {err:.3e} exceeds requested tol {tol:.3e}"
        )
    vf = ValueFunction(sub.partition, values, err)
    policy = DeterministicPolicy(sub.partition, actions)
    mu = model.initial.refined_to(sub.partition).masses
    h = float(mu @ values)
    return vf, policy, h


def support(model_or_sub, direction, tol: float = 1e-10):
    """Support function of the performance set: h(b) = sup over policies of <b, v>.

    Returns (h, argmax deterministic policy, v); the sup is attained by an
    intervalwise-deterministic policy, so the returned policy is a vertex,
    and v is its performance vector.  v solves the same policy-evaluation
    system as the optimal value, with the reward vectors as right-hand sides;
    a residual of delta bounds its error by L * delta, certified within tol.
    """
    sub = model_or_sub if isinstance(model_or_sub, SubmodelSpec) else SubmodelSpec.full(model_or_sub)
    _, policy, h = value_iteration(sub, direction, tol)
    model = sub.model
    rewards = model.rewards[sub.owner, policy.actions]      # (intervals, criteria)
    mu = model.initial.refined_to(sub.partition).masses
    if model.is_one_step():
        return h, policy, mu @ rewards
    system = _transfer(model, sub.owner, _averaging_matrix(sub), policy.actions)
    values = np.linalg.solve(system, rewards)
    err = model.certificate().L * float(np.abs(system @ values - rewards).max(initial=0.0))
    if err > tol:
        raise ToleranceError(
            f"certified performance error {err:.3e} exceeds requested tol {tol:.3e}"
        )
    return h, policy, mu @ values


def conserving_submodel(sub: SubmodelSpec, direction, vf: ValueFunction,
                        eta: float) -> SubmodelSpec:
    """Keep, per interval, exactly the actions whose one-step operator reproduces
    the optimal value within eta.  Every policy of the result is eta-conserving,
    so its scalarized performance sits within L * eta of the optimum."""
    model = sub.model
    if vf.partition != sub.partition:
        raise ValueError("value function must live on the submodel partition")
    b = np.asarray(direction, dtype=float)
    scalar_r = model.rewards @ b
    avg = _averaging_matrix(sub)
    q = _q_values(scalar_r, model.kernel, sub.owner, avg, vf.values)
    gaps = np.abs(q - vf.values[:, None])
    keep = sub.allowed & (gaps <= eta)
    empty = np.flatnonzero(~keep.any(axis=1))
    if empty.size:
        s = int(empty[0])
        raise ToleranceError(
            f"interval {s}: no action conserves the value within eta={eta:.3e} "
            f"(best gap {gaps[s, sub.allowed[s]].min():.3e})"
        )
    return SubmodelSpec(model, sub.partition, keep)
