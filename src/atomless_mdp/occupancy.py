"""Exact state marginals, occupancy measures and performance vectors.

Because kernels and rewards are constant on base-grid cells and every kernel
row is a base-grid measure, the state marginal after each step is again a
base-grid measure, regardless of any sub-cell structure in the policy.  A
policy therefore enters the dynamics only through its length-averaged action
probabilities per cell, and the state marginal is one linear solve on the
base grid, its error certified by the absorption certificate's bound L.  The
scalarized DP solves the same system I - P_w on the right for the cell
averages of a policy's values, with the same certificate and refinement.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ToleranceError
from .measure import PieceMeasure, total_variation
from .model import (
    AtomlessMDP,
    StationaryPolicy,
    _joint_weights,
    _on_joint,
    cell_action_weights,
)

__all__ = [
    "OccupancyMeasure",
    "marginal_step",
    "evaluate_weights",
    "RankOnePath",
    "rank_one_path",
    "occupancy",
    "performance",
    "policy_from_occupancy",
    "occupancy_total_variation",
]


class OccupancyMeasure:
    """Expected visit counts on state-interval x action pairs before absorption;
    ``truncation_error`` bounds their total error, and ``terms`` is 1 (one solve)."""

    __slots__ = ("model", "partition", "masses", "truncation_error", "terms")

    def __init__(self, model, partition, masses, truncation_error, terms):
        self.model = model
        self.partition = partition
        self.masses = np.asarray(masses, dtype=float)
        self.truncation_error = float(truncation_error)
        self.terms = int(terms)

    @property
    def total(self) -> float:
        """q(X) = expected lifetime of the process."""
        return float(self.masses.sum())

    def state_marginal(self) -> PieceMeasure:
        return PieceMeasure(self.partition, self.masses.sum(axis=1))

    def performance(self) -> np.ndarray:
        """Expected total reward vector  v = sum over (interval, action) of reward * mass."""
        owner = self.partition.index_map_from(self.model.grid)
        return np.einsum("sa,san->n", self.masses, self.model.rewards[owner])

    def __repr__(self):
        return (
            f"OccupancyMeasure(total={self.total:.6g}, intervals={self.partition.cell_count}, "
            f"err<={self.truncation_error:.2g})"
        )


def marginal_step(model: AtomlessMDP, policy, q_n: PieceMeasure) -> PieceMeasure:
    """One exact transition step: returns the next state marginal on the base grid."""
    on_grid, _, _, probs = _on_joint(model, policy)
    joint = q_n.partition.refine(on_grid)
    q_masses = q_n.refined_to(joint).masses
    probs = probs[joint.index_map_from(on_grid)]
    owner = joint.index_map_from(model.grid)
    out = np.einsum("ia,iaj->j", _joint_weights(model, owner, q_masses, probs), model.kernel)
    return PieceMeasure(model.grid, out)


def cell_weights(model: AtomlessMDP, owner, frac, actions) -> np.ndarray:
    """(cells x actions) sums of ``frac`` by base cell and action, added in
    interval order as ``cell_action_weights`` adds them."""
    a = model.action_count
    flat = np.bincount(owner * a + actions, weights=frac, minlength=model.cell_count * a)
    return flat.reshape(model.cell_count, a)


def transition_matrix(w: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Substochastic cell-to-cell matrix P_w of the (cells x actions) cell
    weights w, in the dtype of w and the kernel."""
    return np.einsum("ia,iaj->ij", w, kernel)


def _system(model: AtomlessMDP, w: np.ndarray, kernel: np.ndarray, left: bool):
    """(a, rhs) with a x = rhs in the dtype of w and the kernel: a = I - P_w
    and rhs = sum_a w r on the right, for the cell averages of the values of
    r; a = (I - P_w)^T and rhs = mu on the left, for the state marginal."""
    system = np.eye(model.cell_count, dtype=w.dtype) - transition_matrix(w, kernel)
    if left:
        return system.T, model.initial.masses
    return system, np.einsum("ia,ian->in", w, model.rewards)


def _residual_bound(model: AtomlessMDP, a, x, rhs, L: float, left: bool):
    """(bound, residual): residual is L |rhs - a x|, and bound adds L times a
    bound on that residual's rounding in x's dtype (the A-term sums of P_w,
    the n-term products with x, two subtractions).  (I - P_w)^-1 has row
    sums at most L, so bound bounds x's error in |.|_1 on the left and in
    the largest |entry| on the right."""
    residual, x = abs(rhs - a @ x), abs(x)
    residual, size = (residual.sum(), x.sum()) if left else (residual.max(), x.max())
    rounding = (model.cell_count + model.action_count + 2) * np.finfo(x.dtype).eps * size
    return L * float(residual + rounding), L * float(residual)


def certified_solve(model: AtomlessMDP, w: np.ndarray, L: float, left: bool):
    """(x, bound, residual) for the cell weights w: x solves _system's
    a x = rhs, the bound certifies its error and residual is the bound's
    part without rounding, L |rhs - a x| in float64.  On the left the
    marginal is clipped at zero, which moves it toward the exact marginal."""
    a, rhs = _system(model, w, model.kernel, left)
    x = np.linalg.solve(a, rhs)
    if left:
        x = np.maximum(x, 0.0)
    return x, *_residual_bound(model, a, x, rhs, L, left)


def refine(model: AtomlessMDP, w: np.ndarray, x: np.ndarray, L: float, left: bool):
    """certified_solve's (x, bound, residual) after one step of iterative
    refinement in extended precision.

    A float64 residual's rounding, about n eps |x| with |x| up to L, keeps its
    bound above n eps L^2: over 1e-12 once L passes about 20 on a few cells.
    Here x is corrected as an np.longdouble x_x, with its residual taken
    against the system formed in np.longdouble; the float64 x = round(x_x)
    is within |x - x_x| plus x_x's bound.  Where np.longdouble is float64
    this gains nothing and tol decides.
    """
    a, rhs64 = _system(model, w, model.kernel, left)
    exact, rhs = _system(model, w.astype(np.longdouble), model.long_kernel(), left)
    x_x = x.astype(np.longdouble)
    x_x = x_x + np.linalg.solve(a, (rhs - exact @ x_x).astype(float))
    if left:
        x_x = np.maximum(x_x, 0.0)
    x = x_x.astype(float)
    shift = abs(x_x - x)
    bound = _residual_bound(model, exact, x_x, rhs, L, left)[0] + float(
        shift.sum() if left else shift.max())
    return x, bound, _residual_bound(model, a, x, rhs64, L, left)[1]


class RankOnePath(NamedTuple):
    """Performance vectors of a stack of policies, each moving cell weight s
    from one action to another on one cell.

    Their I - P_w(s) differ from I - P_w(0) in that cell's row only, by s
    times the row difference d of the kernel, so by Sherman and Morrison
    (Ann. Math. Statist. 21, 1950) m(s) = m0 + c(s) z and v(s) = v0 + c(s) g
    with c(s) = s head / (1 - s pivot): m0 and z solve x (I - P_w(0)) = mu
    and = d, head and pivot are their entries on the moving cell, v0 = m0 .
    sum_a w r and g = z . sum_a w r plus the reward difference.  I - P_w(s)
    stays nonsingular, so 1 - s pivot stays positive.  Float64, uncertified.
    """

    v0: np.ndarray       # (policies, criteria)
    g: np.ndarray        # (policies, criteria)
    head: np.ndarray     # (policies,)
    pivot: np.ndarray    # (policies,)

    def coefficient(self, s):
        return s * self.head / (1.0 - s * self.pivot)

    def crossing(self, b, level) -> np.ndarray:
        """Per policy, the s with <b, v(s)> = level: the inverse of the
        coefficient at c = (level - <b, v0>) / <b, g>, on the branch where
        1 - s pivot > 0 (nan or infinite where v(s) never reaches it)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            c = (level - self.v0 @ b) / (self.g @ b)
            return c / (self.head + c * self.pivot)

    def value(self, s) -> np.ndarray:
        return self.v0 + self.coefficient(s)[:, None] * self.g


def rank_one_path(model: AtomlessMDP, w: np.ndarray, cell, gain, loss) -> RankOnePath:
    """RankOnePath of the (policies x cells x actions) cell weights w, policy
    k moving weight from action loss[k] to gain[k] on cell cell[k]: one
    stacked solve of (I - P_w)^T with the right-hand sides mu and d (m0 = mu
    and z = 0 on a one-step model)."""
    kernel, rewards = model.kernel, model.rewards
    sol = np.zeros((w.shape[0], model.cell_count, 2))
    sol[..., 0] = model.initial.masses
    if not model.is_one_step():
        sol[..., 1] = kernel[cell, gain] - kernel[cell, loss]
        p_w = (w[:, :, None, :] @ kernel)[:, :, 0]
        sol = np.linalg.solve(np.eye(model.cell_count) - p_w.transpose(0, 2, 1), sol)
    # rows v0 and the z-part of g: (m0, z) . sum_a w r
    v0g = sol.transpose(0, 2, 1) @ (w[:, :, None, :] @ rewards)[:, :, 0]
    g = v0g[:, 1] + rewards[cell, gain] - rewards[cell, loss]
    head = sol[np.arange(w.shape[0]), cell]
    return RankOnePath(v0g[:, 0], g, head[:, 0], head[:, 1])


def evaluate_weights(model: AtomlessMDP, w: np.ndarray, tol: float = 1e-9):
    """(m, truncation_error, v) for the (cells x actions) cell weights ``w``.

    The state marginal m solves m (I - P_w) = mu (m = mu on a one-step model).
    (I - P_w)^-1 has row sums at most L, so |m - m*|(X) <= truncation_error =
    L |mu - m (I - P_w)|_1, with that residual's rounding added, and must be
    at most ``tol``; when the float64 residual is too coarse for that, one
    step of refine tightens it.  The performance vector v = m . sum_a w r is
    within truncation_error * max |r|.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    L = model.certificate().L
    if model.is_one_step():
        marginal, err = model.initial.masses, 0.0
    else:
        marginal, err, _ = certified_solve(model, w, L, True)
        if not err <= tol:
            marginal, err, _ = refine(model, w, marginal, L, True)
        if not err <= tol:        # a NaN residual certifies nothing either
            raise ToleranceError(f"certified marginal error {err:.3e} exceeds tol {tol:.3e}")
    return marginal, err, marginal @ np.einsum("ia,ian->in", w, model.rewards)


def occupancy(model: AtomlessMDP, policy, tol: float = 1e-9) -> OccupancyMeasure:
    """Occupancy measure of the policy from one certified solve; see evaluate_weights."""
    joint, owner, frac, probs = _on_joint(model, policy)
    marginal, err, _ = evaluate_weights(model, _joint_weights(model, owner, frac, probs), tol)
    masses = (marginal[owner] * frac)[:, None]
    return OccupancyMeasure(model, joint, masses * probs, truncation_error=err, terms=1)


def performance(model: AtomlessMDP, policy, tol: float = 1e-9) -> np.ndarray:
    """Expected total reward vector of the policy; see evaluate_weights."""
    return evaluate_weights(model, cell_action_weights(model, policy), tol)[2]


def policy_from_occupancy(q: OccupancyMeasure) -> StationaryPolicy:
    """Stationary policy whose occupancy reproduces ``q``: conditional action
    probabilities given the state interval; zero-marginal intervals get the
    lowest available action deterministically."""
    model = q.model
    marg = q.masses.sum(axis=1)[:, None]
    owner = q.partition.index_map_from(model.grid)
    probs = np.eye(model.action_count)[np.argmax(model.available_mask()[owner], axis=1)]
    np.divide(q.masses, marg, out=probs, where=marg > 0.0)
    return StationaryPolicy(q.partition, probs)


def occupancy_total_variation(q1: OccupancyMeasure, q2: OccupancyMeasure) -> float:
    """Total variation between two occupancy measures on state x action."""
    part = q1.partition.refine(q2.partition)
    owner1, frac1 = part.rebin_from(q1.partition)
    owner2, frac2 = part.rebin_from(q2.partition)
    diff = q1.masses[owner1] * frac1[:, None] - q2.masses[owner2] * frac2[:, None]
    return float(np.abs(diff).sum())


def fixed_point_residual(model: AtomlessMDP, policy, q: OccupancyMeasure) -> float:
    """Total-variation defect of q = mu + step(q): the solve's residual, up to rounding."""
    marginal = q.state_marginal().coarsened_to(model.grid)
    stepped = marginal_step(model, policy, marginal)
    reproduced = PieceMeasure(model.grid, model.initial.masses + stepped.masses)
    return total_variation(marginal, reproduced)
