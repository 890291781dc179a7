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
    """Per-interval allowed-action subsets on a partition refining the base grid."""

    __slots__ = ("model", "partition", "allowed")

    def __init__(self, model: AtomlessMDP, partition: StatePartition, allowed):
        allowed = tuple(tuple(sorted(set(a))) for a in allowed)
        if len(allowed) != partition.cell_count:
            raise ValueError("one allowed-action set per interval required")
        if not partition.refines(model.grid):
            raise ValueError("submodel partition must refine the base grid")
        owner = partition.index_map_from(model.grid)
        for s, acts in enumerate(allowed):
            if not acts:
                raise ValueError(f"interval {s}: empty allowed set")
            if not set(acts) <= set(model.available[owner[s]]):
                raise ValueError(f"interval {s}: actions {acts} not all available")
        self.model = model
        self.partition = partition
        self.allowed = allowed

    @classmethod
    def full(cls, model: AtomlessMDP) -> "SubmodelSpec":
        return cls(model, model.grid, model.available)

    @classmethod
    def from_pair(cls, model: AtomlessMDP, phi0: DeterministicPolicy,
                  phi1: DeterministicPolicy) -> "SubmodelSpec":
        part = phi0.partition.refine(phi1.partition).refine(model.grid)
        a0 = phi0.refined_to(part).actions
        a1 = phi1.refined_to(part).actions
        return cls(model, part, [{int(x), int(y)} for x, y in zip(a0, a1)])

    def owner(self) -> np.ndarray:
        return self.partition.index_map_from(self.model.grid)

    def refined_to(self, finer: StatePartition) -> "SubmodelSpec":
        idx = finer.index_map_from(self.partition)
        return SubmodelSpec(self.model, finer, [self.allowed[i] for i in idx])

    def frozen_below(self, threshold: float, low: DeterministicPolicy) -> "SubmodelSpec":
        """Force the ``low`` policy's action on every interval left of the threshold."""
        part = self.partition.refine(low.partition).with_point(threshold)
        base = self.refined_to(part)
        low_actions = low.refined_to(part).actions
        mids = 0.5 * (part.points[:-1] + part.points[1:])
        allowed = [
            (int(low_actions[s]),) if mids[s] < threshold else base.allowed[s]
            for s in range(part.cell_count)
        ]
        return SubmodelSpec(self.model, part, allowed)

    def arbitrary_policy(self) -> DeterministicPolicy:
        return DeterministicPolicy(self.partition, [a[0] for a in self.allowed])

    def __repr__(self):
        sizes = sorted({len(a) for a in self.allowed})
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


def _averaging_matrix(model: AtomlessMDP, partition: StatePartition) -> np.ndarray:
    """(cells x intervals) matrix turning interval values into cell averages."""
    owner = partition.index_map_from(model.grid)
    avg = np.zeros((model.cell_count, partition.cell_count))
    avg[owner, np.arange(partition.cell_count)] = partition.widths / model.grid.widths[owner]
    return avg


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
    owner = sub.owner()
    n = sub.partition.cell_count

    allowed_mask = np.full((n, model.action_count), False)
    for s, acts in enumerate(sub.allowed):
        allowed_mask[s, list(acts)] = True

    if model.is_one_step():
        # one-step model: the value is the per-interval best immediate reward
        q_masked = np.where(allowed_mask, scalar_r[owner], -np.inf)
        values = np.max(q_masked, axis=1)
        actions = np.argmax(q_masked, axis=1)
        vf = ValueFunction(sub.partition, values, 0.0)
        policy = DeterministicPolicy(sub.partition, actions)
        mu = model.initial.refined_to(sub.partition).masses
        return vf, policy, float(mu @ values)

    avg = _averaging_matrix(model, sub.partition)
    scale = float(np.abs(scalar_r).max(initial=0.0))

    def greedy(values, current=None):
        q = _q_values(scalar_r, model.kernel, owner, avg, values)
        q_masked = np.where(allowed_mask, q, -np.inf)
        best = np.argmax(q_masked, axis=1)
        if current is not None:
            # keep the incumbent unless the gain is numerically meaningful
            gain = q_masked[np.arange(n), best] - q_masked[np.arange(n), current]
            keep = gain <= 1e-13 * (1.0 + scale) * cert.L
            best[keep] = current[keep]
        return best, q_masked

    def evaluate(actions):
        rows = model.kernel[owner, actions]          # (n, cells)
        p = rows @ avg                               # (n, n)
        r = scalar_r[owner, actions]
        return np.linalg.solve(np.eye(n) - p, r)

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

    Returns (h, argmax deterministic policy); the sup is attained by an
    intervalwise-deterministic policy, so the returned policy is a vertex.
    """
    sub = model_or_sub if isinstance(model_or_sub, SubmodelSpec) else SubmodelSpec.full(model_or_sub)
    _, policy, h = value_iteration(sub, direction, tol)
    return h, policy


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
    owner = sub.owner()
    avg = _averaging_matrix(model, sub.partition)
    q = _q_values(scalar_r, model.kernel, owner, avg, vf.values)
    gaps = np.abs(q - vf.values[:, None])
    allowed = []
    for s, acts in enumerate(sub.allowed):
        keep = tuple(a for a in acts if gaps[s, a] <= eta)
        if not keep:
            raise ToleranceError(
                f"interval {s}: no action conserves the value within eta={eta:.3e} "
                f"(best gap {gaps[s, list(acts)].min():.3e})"
            )
        allowed.append(keep)
    return SubmodelSpec(model, sub.partition, allowed)
