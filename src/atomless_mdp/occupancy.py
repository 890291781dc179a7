"""Exact state marginals, occupancy measures and performance vectors.

Because kernels and rewards are constant on base-grid cells and every kernel
row is a base-grid measure, the state marginal after each step is again a
base-grid measure, regardless of any sub-cell structure in the policy.  A
policy therefore enters the dynamics only through its length-averaged action
probabilities per cell, and the state marginal is one linear solve on the
base grid, its error certified by the absorption certificate's bound L.
"""

from __future__ import annotations

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
    weights = np.zeros((model.cell_count, model.action_count))
    np.add.at(weights, owner, q_masses[:, None] * probs)
    out = np.einsum("ia,iaj->j", weights, model.kernel)
    return PieceMeasure(model.grid, out)


def transition_matrix(model: AtomlessMDP, w: np.ndarray) -> np.ndarray:
    """Substochastic cell-to-cell matrix P_w of the (cells x actions) cell weights w."""
    return np.einsum("ia,iaj->ij", w, model.kernel)


def _residual_bound(model: AtomlessMDP, m: np.ndarray, system: np.ndarray, L: float) -> float:
    """L |mu - m (I - P_w)|_1 plus a bound on that residual's rounding in m's
    dtype (the A-term sums of P_w, the n-term products with m, two subtractions)."""
    rounding = (model.cell_count + model.action_count + 2) * np.finfo(m.dtype).eps * m.sum()
    return L * float(np.abs(model.initial.masses - m @ system).sum() + rounding)


def _refined_marginal(model: AtomlessMDP, w: np.ndarray, system: np.ndarray,
                      marginal: np.ndarray, L: float):
    """(m, bound) after one step of iterative refinement in extended precision.

    A float64 residual's rounding, about n eps |m|_1 = n eps L, keeps its
    bound above n eps L^2: over 1e-12 once L passes about 20 on a few cells.
    Here the marginal is corrected as an np.longdouble vector m_x, with its
    residual taken against I - P_w formed in np.longdouble; the float64
    m = round(m_x) is within |m - m_x|_1 plus m_x's bound.  Where
    np.longdouble is float64 this gains nothing and tol decides.
    """
    ext = np.longdouble
    exact = np.eye(model.cell_count, dtype=ext) - np.einsum(
        "ia,iaj->ij", w.astype(ext), model.long_kernel())
    m_x = marginal.astype(ext)
    step = np.linalg.solve(system.T, (model.initial.masses - m_x @ exact).astype(float))
    m_x = np.maximum(m_x + step, 0.0)
    m = m_x.astype(float)
    return m, _residual_bound(model, m_x, exact, L) + float(np.abs(m_x - m).sum())


def evaluate_weights(model: AtomlessMDP, w: np.ndarray, tol: float = 1e-9):
    """(m, truncation_error, v) for the (cells x actions) cell weights ``w``.

    The state marginal m solves m (I - P_w) = mu (m = mu on a one-step model).
    (I - P_w)^-1 has row sums at most L, so |m - m*|(X) <= truncation_error =
    L |mu - m (I - P_w)|_1, with that residual's rounding added, and must be
    at most ``tol``; when the float64 residual is too coarse for that,
    _refined_marginal tightens it.  The performance vector
    v = m . sum_a w r is within truncation_error * max |r|.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    cert = model.certificate()
    mu = model.initial.masses
    if model.is_one_step():
        marginal, err = mu, 0.0
    else:
        system = np.eye(model.cell_count) - transition_matrix(model, w)
        # clipping moves toward the exact marginal, which is nonnegative
        marginal = np.maximum(np.linalg.solve(system.T, mu), 0.0)
        err = _residual_bound(model, marginal, system, cert.L)
        if not err <= tol:
            marginal, err = _refined_marginal(model, w, system, marginal, cert.L)
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
