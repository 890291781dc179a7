"""Exact state marginals, occupancy measures and performance vectors.

Because kernels and rewards are constant on base-grid cells and every kernel
row is a base-grid measure, the state marginal after each step is again a
base-grid measure, regardless of any sub-cell structure in the policy.  A
policy therefore enters the dynamics only through its length-averaged action
probabilities per cell, and the occupancy series can be accumulated exactly,
with the truncation point certified by the absorption certificate.
"""

from __future__ import annotations

import numpy as np

from .measure import PieceMeasure, StatePartition, total_variation
from .model import (
    AtomlessMDP,
    DeterministicPolicy,
    StationaryPolicy,
    cell_action_weights,
    validate_policy,
)

__all__ = [
    "OccupancyMeasure",
    "marginal_step",
    "occupancy",
    "performance",
    "policy_from_occupancy",
    "occupancy_total_variation",
]


class OccupancyMeasure:
    """Expected visit counts on state-interval x action pairs before absorption."""

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

    def refined_masses(self, finer: StatePartition) -> np.ndarray:
        owner = finer.index_map_from(self.partition)
        frac = finer.widths / self.partition.widths[owner]
        return self.masses[owner] * frac[:, None]

    def __repr__(self):
        return (
            f"OccupancyMeasure(total={self.total:.6g}, intervals={self.partition.cell_count}, "
            f"err<={self.truncation_error:.2g})"
        )


def _as_stationary(model, policy):
    if isinstance(policy, DeterministicPolicy):
        return policy.to_stationary(model.action_count)
    return policy


def marginal_step(model: AtomlessMDP, policy, q_n: PieceMeasure) -> PieceMeasure:
    """One exact transition step: returns the next state marginal on the base grid."""
    pi = _as_stationary(model, policy)
    validate_policy(model, pi)
    joint = q_n.partition.refine(pi.partition).refine(model.grid)
    q_masses = q_n.refined_to(joint).masses
    probs = pi.refined_to(joint).probs
    owner = joint.index_map_from(model.grid)
    weights = np.zeros((model.cell_count, model.action_count))
    np.add.at(weights, owner, q_masses[:, None] * probs)
    out = np.einsum("ia,iaj->j", weights, model.kernel)
    return PieceMeasure(model.grid, out)


def transition_matrix(model: AtomlessMDP, policy) -> np.ndarray:
    """Substochastic cell-to-cell matrix induced by the policy's cell averages."""
    w = cell_action_weights(model, policy)
    return np.einsum("ia,iaj->ij", w, model.kernel)


def occupancy(model: AtomlessMDP, policy, tol: float = 1e-9) -> OccupancyMeasure:
    """Accumulate the visit-count series with certificate-certified truncation.

    The partial sums are grown by doubling:  S_{2k} = S_k + S_k P^k  keeps the
    accumulation exact while reaching the certified cutoff in O(log) matrix
    products.  The reported truncation error bounds the total mass missed.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    cert = model.certificate()
    pi = _as_stationary(model, policy)
    mu = model.initial.masses

    if model.is_one_step():
        validate_policy(model, pi)
        partial, bound, k = mu.copy(), 0.0, 1
    else:
        P = transition_matrix(model, pi)
        partial = mu.copy()      # sum of q_0 .. q_{k-1}
        power = P                # P^k
        k = 1
        while True:
            alive = float((mu @ power).sum())
            bound = min(cert.tail(k), cert.L * alive)
            if bound <= tol or alive == 0.0:
                break
            if k > 2**48:
                raise RuntimeError("occupancy series failed to reach the certified cutoff")
            partial = partial + partial @ power
            power = power @ power
            k *= 2

    part = pi.partition.refine(model.grid)
    marginal = PieceMeasure(model.grid, partial).refined_to(part)
    probs = pi.refined_to(part).probs
    masses = marginal.masses[:, None] * probs
    return OccupancyMeasure(model, part, masses, truncation_error=bound, terms=k)


def performance(model: AtomlessMDP, policy, tol: float = 1e-9) -> np.ndarray:
    """Expected total reward vector of the policy; see OccupancyMeasure.performance."""
    return occupancy(model, policy, tol).performance()


def policy_from_occupancy(q: OccupancyMeasure) -> StationaryPolicy:
    """Stationary policy whose occupancy reproduces ``q``: conditional action
    probabilities given the state interval; zero-marginal intervals get the
    lowest available action deterministically."""
    model = q.model
    marg = q.masses.sum(axis=1)
    owner = q.partition.index_map_from(model.grid)
    probs = np.zeros_like(q.masses)
    for s in range(q.partition.cell_count):
        if marg[s] > 0.0:
            probs[s] = q.masses[s] / marg[s]
        else:
            probs[s, model.available[owner[s]][0]] = 1.0
    return StationaryPolicy(q.partition, probs)


def occupancy_total_variation(q1: OccupancyMeasure, q2: OccupancyMeasure) -> float:
    """Total variation between two occupancy measures on state x action."""
    part = q1.partition.refine(q2.partition)
    return float(np.abs(q1.refined_masses(part) - q2.refined_masses(part)).sum())


def fixed_point_residual(model: AtomlessMDP, policy, q: OccupancyMeasure) -> float:
    """Total-variation defect of q = mu + step(q); equals the truncated tail."""
    marginal = q.state_marginal().coarsened_to(model.grid)
    stepped = marginal_step(model, policy, marginal)
    reproduced = PieceMeasure(model.grid, model.initial.masses + stepped.masses)
    return total_variation(marginal, reproduced)
