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

POLICY_ROUNDS = 500       # policy improvement steps before giving up


class SubmodelSpec:
    """Per-interval allowed actions on a partition refining the base grid.

    ``allowed`` is a read-only boolean (intervals x actions) mask and
    ``owner`` maps each interval to its base-grid cell.  The averaging matrix
    and the initial masses on the partition are built on first use and kept.
    """

    __slots__ = ("model", "partition", "allowed", "owner", "_avg", "_mu")

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
        self._avg = None
        self._mu = None

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

    def frozen_below(self, threshold: float, low: DeterministicPolicy) -> "SubmodelSpec":
        """Force the ``low`` policy's action on every interval left of the threshold."""
        part = self.partition.refine(low.partition).with_point(threshold)
        below = 0.5 * (part.points[:-1] + part.points[1:]) < threshold
        return self.frozen(part, part.index_map_from(self.partition), below,
                           low.refined_to(part).actions)

    def frozen(self, partition: StatePartition, rows, below, low_actions) -> "SubmodelSpec":
        """This mask's ``rows`` on a refining ``partition``, with the single
        action ``low_actions`` forced on the intervals flagged ``below``."""
        allowed = self.allowed[rows]
        allowed[below] = False
        allowed[below, low_actions[below]] = True
        return SubmodelSpec(self.model, partition, allowed)

    def averaging_matrix(self) -> np.ndarray:
        """Read-only (cells x intervals) matrix turning interval values into cell averages."""
        if self._avg is None:
            model, part, owner = self.model, self.partition, self.owner
            avg = np.zeros((model.cell_count, part.cell_count))
            avg[owner, np.arange(part.cell_count)] = part.widths / model.grid.widths[owner]
            avg.setflags(write=False)
            self._avg = avg
        return self._avg

    def initial_masses(self) -> np.ndarray:
        """Read-only masses of the initial distribution on the partition's intervals."""
        if self._mu is None:
            self._mu = self.model.initial.refined_to(self.partition).masses
        return self._mu

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


def _q_values(scalar_r, kernel, owner, avg, values):
    """q[s, a] = r(cell(s), a) + integral of the value under the kernel row."""
    cell_avg = avg @ values
    cont = kernel @ cell_avg          # (cells, actions)
    return (scalar_r + cont)[owner]


def _policy_iteration(sub: SubmodelSpec, direction, tol: float):
    """Optimal intervalwise actions for <direction, r>, certified within tol.

    Each evaluated policy costs one solve of I - P whose right-hand side
    stacks the scalarized rewards and the N reward columns.  Returns
    (actions, x, err, residual): x[:, 0] is the optimal value, x[:, 1:] the
    optimal policy's values of the reward vector, err the certified
    optimality gap and residual the largest residual of the reward columns
    in the final solve (zero on a one-step model, whose solution is exact).
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
        actions = np.argmax(q_masked, axis=1)
        x = np.column_stack((np.max(q_masked, axis=1), model.rewards[owner, actions]))
        return actions, x, 0.0, 0.0

    avg = sub.averaging_matrix()
    scale = float(np.abs(scalar_r).max(initial=0.0))
    stacked = np.concatenate((scalar_r[..., None], model.rewards), axis=2)

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
        # I - P, with P[s, t] the mass the policy moves from interval s to t
        system = np.eye(n) - model.kernel[owner, actions] @ avg
        rhs = stacked[owner, actions]
        return system, rhs, np.linalg.solve(system, rhs)

    actions, _ = greedy(np.zeros(n))
    system, rhs, x = evaluate(actions)
    for _ in range(POLICY_ROUNDS):
        improved, _ = greedy(x[:, 0], actions)
        if np.array_equal(improved, actions):
            break
        actions = improved
        system, rhs, x = evaluate(actions)
    else:
        raise CertifiedFailure("policy iteration did not stabilize", residual=np.inf)

    values = x[:, 0]
    _, q_masked = greedy(values)
    err = cert.L * float(np.abs(np.max(q_masked, axis=1) - values).max(initial=0.0))
    if err > tol:
        raise ToleranceError(
            f"certified optimality gap {err:.3e} exceeds requested tol {tol:.3e}"
        )
    residual = float(np.abs(system @ x[:, 1:] - rhs[:, 1:]).max(initial=0.0))
    return actions, x, err, residual


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
    return vf, policy, float(sub.initial_masses() @ values)


def support(model_or_sub, direction, tol: float = 1e-10):
    """Support function of the performance set: h(b) = sup over policies of <b, v>.

    Returns (h, argmax deterministic policy, v); the sup is attained by an
    intervalwise-deterministic policy, so the returned policy is a vertex,
    and v is its performance vector.  v comes from the same linear solve
    that evaluates the optimal value, with the reward vectors as further
    right-hand sides; a residual of delta bounds its error by L * delta,
    certified within tol.
    """
    sub = model_or_sub if isinstance(model_or_sub, SubmodelSpec) else SubmodelSpec.full(model_or_sub)
    actions, x, _, residual = _policy_iteration(sub, direction, tol)
    err = sub.model.certificate().L * residual
    if err > tol:
        raise ToleranceError(
            f"certified performance error {err:.3e} exceeds requested tol {tol:.3e}"
        )
    mu = sub.initial_masses()
    return float(mu @ x[:, 0]), DeterministicPolicy(sub.partition, actions), mu @ x[:, 1:]


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
    avg = sub.averaging_matrix()
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
