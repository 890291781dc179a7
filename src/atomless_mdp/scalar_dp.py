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

    ``allowed`` is a boolean (intervals x actions) mask; ``owner`` maps each
    interval to its base-grid cell, ``frac`` is its share of that cell's
    width and ``initial_masses`` holds the initial distribution's mass on
    each interval.  All four arrays are read-only.  Only the constructor
    checks: a child of a checked submodel (``_child``) reuses its ``owner``
    and ``frac``, and its mask is a nonempty subset of the parent's rows.
    A submodel keeps the policy-iteration answer of every direction it has
    solved, so a repeated query costs no solve.
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


def _q_values(sub: SubmodelSpec, scalar_r, values):
    """q[s, a] = r(cell(s), a) + integral of the value under the kernel row."""
    kernel = sub.model.kernel
    cell_avg = np.bincount(sub.owner, sub.frac * values, kernel.shape[0])
    cont = kernel @ cell_avg          # (cells, actions)
    return (scalar_r + cont)[sub.owner]


def _policy_iteration(sub: SubmodelSpec, direction, tol: float):
    """Optimal intervalwise actions for <direction, r>, certified within tol.

    Returns (actions, x, err, residual): x[:, 0] is the optimal value,
    x[:, 1:] the optimal policy's values of the reward vector, err the
    certified optimality gap and residual the largest residual of the reward
    columns in the final solve (zero on a one-step model, whose solution is
    exact).  The answer does not depend on tol, so each submodel solves a
    direction once and keeps the read-only arrays; tol is checked per call.
    """
    direction = np.asarray(direction, dtype=float)
    key = direction.tobytes()
    solved = sub._solved.get(key)
    if solved is None:
        solved = sub._solved[key] = _solve(sub, direction)
        for arr in solved[:2]:
            arr.setflags(write=False)
    err = solved[2]
    if err > tol:
        raise ToleranceError(
            f"certified optimality gap {err:.3e} exceeds requested tol {tol:.3e}"
        )
    return solved


def _solve(sub: SubmodelSpec, direction: np.ndarray):
    """Policy iteration: _policy_iteration's answer, without the tol check.

    Each evaluated policy costs one solve of I - P whose right-hand side
    stacks the scalarized rewards and the N reward columns.  Ties in the
    greedy step break toward the lowest action index.
    """
    model = sub.model
    cert = model.certificate()
    scalar_r = model.rewards @ direction      # (cells, actions)
    owner, blocked = sub.owner, ~sub.allowed
    n = sub.partition.cell_count
    rows = np.arange(n)
    r_own = scalar_r[owner]
    # the first greedy step is on the masked immediate rewards (zero values)
    q_masked = np.where(sub.allowed, r_own, -np.inf)

    if model.is_one_step():
        # one-step model: the value is the per-interval best immediate reward
        actions = np.argmax(q_masked, axis=1)
        x = np.column_stack((np.max(q_masked, axis=1), model.rewards[owner, actions]))
        return actions, x, 0.0, 0.0

    # keep the incumbent unless the gain is numerically meaningful
    keep_gain = 1e-13 * (1.0 + float(np.abs(scalar_r).max(initial=0.0))) * cert.L
    eye = np.eye(n)

    def greedy(values, current):
        """Improved actions and the masked Q row maxima at ``values``."""
        q = _q_values(sub, scalar_r, values)
        np.copyto(q, -np.inf, where=blocked)
        best = q.argmax(axis=1)
        top = q[rows, best]
        keep = top - q[rows, current] <= keep_gain
        best[keep] = current[keep]
        return best, top

    def evaluate(actions):
        # I - P, with P[s, t] the mass the policy moves from interval s to t
        system = eye - model.kernel[owner[:, None], actions[:, None], owner] * sub.frac
        rhs = np.concatenate((r_own[rows, actions][:, None], model.rewards[owner, actions]), axis=1)
        return system, rhs, np.linalg.solve(system, rhs)

    actions = q_masked.argmax(axis=1)
    system, rhs, x = evaluate(actions)
    for _ in range(POLICY_ROUNDS):
        improved, top = greedy(x[:, 0], actions)
        if np.array_equal(improved, actions):
            break
        actions = improved
        system, rhs, x = evaluate(actions)
    else:
        raise CertifiedFailure("policy iteration did not stabilize", residual=np.inf)

    err = cert.L * float(np.abs(top - x[:, 0]).max(initial=0.0))
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
    return vf, policy, float(sub.initial_masses @ values)


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
    q = _q_values(sub, scalar_r, vf.values)
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
