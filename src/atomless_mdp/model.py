"""MDP data model on X = [0,1] with an absorbing sink.

Kernels and rewards are constant in the source state across each cell of a
base grid, and every kernel row is a piecewise-uniform destination measure
plus an explicit absorption mass.  That closure property is what makes every
construction downstream exact: state marginals stay piecewise-uniform no
matter how policies subdivide cells.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np
import orjson

from .errors import (
    ModelFormatError,
    NotCertifiedError,
    PartitionMismatchError,
)
from .measure import (
    PieceMeasure,
    StatePartition,
    MERGE_TOL,
    merge_breakpoints,
    place_rows,
)

ROW_SUM_TOL = 1e-12

ABSORBING = "absorbing"
DISCOUNTED = "discounted"


def _first(flags: np.ndarray):
    """Index tuple of the first True entry in row-major order, or None."""
    if not flags.any():
        return None
    return tuple(int(k) for k in np.unravel_index(np.argmax(flags), flags.shape))


class AtomlessMDP:
    """Finite-action MDP on [0,1] with piecewise-constant kernels and rewards.

    ``kernel[i, a, j]`` is the mass moved from cell i under action a into
    destination cell j; ``absorb[i, a]`` is the mass sent to the sink.  Each
    available row satisfies destination + absorb = 1.  Rows for unavailable
    actions are neutral (absorb 1, zero rewards) and never consulted.
    """

    def __init__(self, grid, action_count, available, kernel, absorb, rewards,
                 initial, kind=ABSORBING, beta=None):
        self.grid = grid
        self.action_count = int(action_count)
        self.available = tuple(tuple(sorted(a)) for a in available)
        self.kernel = np.array(kernel, dtype=float)
        self.absorb = np.array(absorb, dtype=float)
        self.rewards = np.array(rewards, dtype=float)
        self.initial = initial
        self.kind = kind
        self.beta = None if beta is None else float(beta)
        self._certificate = None
        self._long_kernel = None
        self._validate()
        for arr in (self.kernel, self.absorb, self.rewards, self._mask):
            arr.setflags(write=False)
        self._one_step = not bool(self.kernel.any())

    # -- basic shape ------------------------------------------------------

    @property
    def cell_count(self) -> int:
        return self.grid.cell_count

    @property
    def criteria(self) -> int:
        return self.rewards.shape[2]

    def _validate(self):
        """Check every invariant; builds the availability mask on the way."""
        m, a = self.cell_count, self.action_count
        if a < 1:
            raise ModelFormatError("actions", "need at least one action")
        if len(self.available) != m:
            raise ModelFormatError("available", f"expected {m} cell entries")
        self._mask = np.zeros((m, a), dtype=bool)
        for i, acts in enumerate(self.available):
            if not acts:
                raise ModelFormatError(f"available[{i}]", "empty action set")
            if acts[0] < 0 or acts[-1] >= a:
                raise ModelFormatError(f"available[{i}]", "action index out of range")
            self._mask[i, acts] = True
        if self.kernel.shape != (m, a, m):
            raise ModelFormatError("kernel", f"expected shape {(m, a, m)}, got {self.kernel.shape}")
        if self.absorb.shape != (m, a):
            raise ModelFormatError("kernel", f"expected absorb shape {(m, a)}")
        if self.rewards.ndim != 3 or self.rewards.shape[:2] != (m, a):
            raise ModelFormatError("rewards", f"expected shape ({m}, {a}, N)")
        if not np.all(np.isfinite(self.rewards)):
            raise ModelFormatError("rewards", "rewards must be finite")
        bad = _first(~(np.isfinite(self.kernel).all(axis=2) & np.isfinite(self.absorb)))
        if bad is not None:
            raise ModelFormatError("kernel[{}][{}]".format(*bad), "masses must be finite")
        if np.any(self.kernel < 0) or np.any(self.absorb < 0):
            raise ModelFormatError("kernel", "negative mass")
        sums = self.kernel.sum(axis=2) + self.absorb
        bad = _first(self._mask & (np.abs(sums - 1.0) > ROW_SUM_TOL))
        if bad is not None:
            raise ModelFormatError("kernel[{}][{}]".format(*bad),
                                   f"row sums to {float(sums[bad])!r}, not 1")
        if self.initial.partition != self.grid:
            raise ModelFormatError("initial", "initial measure must live on the base grid")
        if abs(self.initial.total - 1.0) > ROW_SUM_TOL:
            raise ModelFormatError("initial", f"total mass {self.initial.total!r}, not 1")
        if self.kind == DISCOUNTED:
            if self.beta is None or not 0.0 <= self.beta < 1.0:
                raise ModelFormatError("kind", "discounted model needs beta in [0,1)")
        elif self.kind != ABSORBING:
            raise ModelFormatError("kind", f"unknown kind {self.kind!r}")

    # -- availability helpers ----------------------------------------------

    def available_mask(self) -> np.ndarray:
        """Read-only (cells, actions) mask of the available actions."""
        return self._mask

    def certificate(self, tol: float = 1e-12) -> "AbsorptionCertificate":
        """Uniform-absorption certificate for ``tol``, cached until a call asks
        for another tol; raises for discounted models."""
        if self._certificate is None or self._certificate.tol != tol:
            self._certificate = absorption_certificate(self, tol)
        return self._certificate

    def is_one_step(self) -> bool:
        """True when every action absorbs immediately (all kernel rows zero)."""
        return self._one_step

    def long_kernel(self) -> np.ndarray:
        """Read-only np.longdouble copy of the kernel, made at the first call."""
        if self._long_kernel is None:
            self._long_kernel = self.kernel.astype(np.longdouble)
            self._long_kernel.setflags(write=False)
        return self._long_kernel


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------


class DeterministicPolicy:
    """Interval-partitioned action selector."""

    __slots__ = ("partition", "actions")

    def __init__(self, partition: StatePartition, actions):
        acts = np.asarray(actions)
        if acts.dtype.kind not in "iu":     # integer arrays, every internal caller's, pass
            acts = acts.astype(float)
            if not np.all(np.isfinite(acts) & (acts == np.round(acts))):
                raise ValueError("actions must be finite integers")
        if acts.shape != (partition.cell_count,):
            raise ValueError("one action per partition interval required")
        acts = acts.astype(int)
        acts.setflags(write=False)
        self.partition = partition
        self.actions = acts

    def canonical(self) -> "DeterministicPolicy":
        """Merge adjacent intervals carrying the same action."""
        pts, acts = self.partition.points, self.actions
        keep = np.concatenate(([True], np.diff(acts) != 0))
        new_pts = np.concatenate((pts[:-1][keep], [1.0]))
        return DeterministicPolicy(StatePartition(new_pts), acts[keep])

    def refined_to(self, finer: StatePartition) -> "DeterministicPolicy":
        return DeterministicPolicy(finer, self.actions[finer.index_map_from(self.partition)])

    def to_stationary(self, action_count: int) -> "StationaryPolicy":
        probs = np.zeros((self.partition.cell_count, action_count))
        probs[np.arange(self.actions.size), self.actions] = 1.0
        return StationaryPolicy(self.partition, probs)

    def __eq__(self, other):
        if not isinstance(other, DeterministicPolicy):
            return NotImplemented
        a, b = self.canonical(), other.canonical()
        return a.partition == b.partition and bool(np.array_equal(a.actions, b.actions))

    def __repr__(self):
        return f"DeterministicPolicy({self.partition.cell_count} intervals)"


class StationaryPolicy:
    """Interval-partitioned action distributions."""

    __slots__ = ("partition", "probs")

    def __init__(self, partition: StatePartition, probs):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 2 or p.shape[0] != partition.cell_count:
            raise ValueError("probs must be (intervals, actions)")
        if not np.all(np.isfinite(p)):
            raise ValueError("action probabilities must be finite")
        if np.any(p < -1e-15):
            raise ValueError("negative action probability")
        rows = p.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-9):
            raise ValueError("action probabilities must sum to 1 per interval")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        self.partition = partition
        self.probs = p

    @property
    def action_count(self) -> int:
        return self.probs.shape[1]

    def refined_to(self, finer: StatePartition) -> "StationaryPolicy":
        return StationaryPolicy(finer, self.probs[finer.index_map_from(self.partition)])

    def is_deterministic(self, tol: float = 0.0) -> bool:
        return bool(np.all(self.probs.max(axis=1) >= 1.0 - tol))

    def to_deterministic(self) -> DeterministicPolicy:
        if not self.is_deterministic(1e-12):
            raise ValueError("policy is randomized")
        return DeterministicPolicy(self.partition, np.argmax(self.probs, axis=1))

    def __repr__(self):
        return f"StationaryPolicy({self.partition.cell_count} intervals, {self.action_count} actions)"


def validate_policy(model: AtomlessMDP, policy) -> None:
    """Check that the policy's support is available everywhere it applies.

    Availability is checked on the joint refinement with the base grid, so a
    policy coarser than the grid is accepted exactly when its choice is valid
    in every cell it covers; when a single policy interval straddles cells and
    violates availability, that is reported as a partition mismatch.
    """
    _on_joint(model, policy)


def _on_joint(model: AtomlessMDP, policy):
    """validate_policy's check, returning what it builds: the joint refinement
    of the policy's partition with the base grid, each joint cell's base cell
    and share of that cell's width, and the policy's action probabilities."""
    joint = policy.partition.refine(model.grid)
    owner, frac = joint.rebin_from(model.grid)
    interval_of = joint.index_map_from(policy.partition)
    if isinstance(policy, DeterministicPolicy):
        acts = policy.actions[interval_of]
        out_of_range = (acts < 0) | (acts >= model.action_count)
        probs = np.eye(model.action_count)[np.where(out_of_range, 0, acts)]
    else:
        if policy.action_count != model.action_count:
            raise ModelFormatError("policy", "action count mismatch")
        out_of_range, probs = False, policy.probs[interval_of]
    unavailable = (probs > 1e-12) & ~model.available_mask()[owner]
    bad = np.flatnonzero(out_of_range | unavailable.any(axis=1))
    if bad.size == 0:
        return joint, owner, frac, probs
    s = bad[0]
    what = (f"unavailable action {acts[s]}" if isinstance(policy, DeterministicPolicy)
            else "mass on an unavailable action")
    what = f"{what} in cell {owner[s]}"
    if policy.partition.refines(model.grid):
        raise ModelFormatError(f"policy[{interval_of[s]}]", what)
    raise PartitionMismatchError(
        f"policy interval {interval_of[s]} straddles the base grid and uses {what}"
    )


def _joint_weights(model: AtomlessMDP, owner, frac, probs) -> np.ndarray:
    w = np.zeros((model.cell_count, model.action_count))
    np.add.at(w, owner, probs * frac[:, None])
    return w


def cell_action_weights(model: AtomlessMDP, policy) -> np.ndarray:
    """Length-weighted average action probabilities per base cell.

    State marginals have constant density on each base cell, so these averages
    are the only part of a policy the occupancy dynamics can see.
    """
    return _joint_weights(model, *_on_joint(model, policy)[1:])


# ---------------------------------------------------------------------------
# absorption certificate
# ---------------------------------------------------------------------------


class AbsorptionCertificate:
    """Certified uniform-absorption data.

    ``L`` bounds sup over start states and policies of the expected hitting
    time of the sink.  ``survival[n]`` bounds the worst-case probability of
    still being alive after n steps from the model's initial distribution, and
    ``tail(n)`` bounds the worst-case expected remaining lifetime from step n.
    ``L``, ``sigma`` and ``half_horizon`` need only the first half_horizon
    steps of the survival recursion; ``profile_through(n)`` continues it
    through step n, ``survival`` to its end.  The certificate holds the
    recursion's arrays, never the model, so a model that caches it forms no
    reference cycle.
    """

    __slots__ = ("L", "sigma", "half_horizon", "tol", "_profile", "_resume")

    def __init__(self, L: float, sigma: float, half_horizon: int, tol: float,
                 profile: list, resume: tuple):
        self.L, self.tol = L, tol
        self.sigma = sigma            # max over cells of the half-horizon survival bound
        self.half_horizon = half_horizon
        self._profile = profile       # survival[0..n] so far, an array once complete
        self._resume = resume         # (kernel, neg, mu, s_vec, cap) at step n, then None

    def profile_through(self, n: int):
        """The survival profile through step n, or all of it where the
        recursion stops first; it may run further."""
        profile = self._profile
        if self._resume is None or len(profile) > n:
            return profile
        kernel, neg, mu, s_vec, cap = self._resume
        step, worst = len(profile) - 1, float(s_vec.max(initial=0.0))
        while not (profile[-1] <= self.tol * 1e-4 or worst == 0.0 or step >= cap):
            if step >= n:
                self._resume = (kernel, neg, mu, s_vec, cap)
                return profile
            s_vec = _survival_step(kernel, neg, s_vec)
            step += 1
            profile.append(float(min(profile[-1], mu @ s_vec)))
            worst = float(s_vec.max(initial=0.0))
        self._profile, self._resume = np.asarray(profile), None
        return self._profile

    @property
    def survival(self) -> np.ndarray:
        return self.profile_through(np.inf)

    def tail(self, n: int) -> float:
        n = int(n)
        markov = self.L * self.L / (n + 1)
        survival = self.profile_through(n)
        s = survival[min(n, len(survival) - 1)]
        return float(min(self.L, markov, self.L * s))

    def summary(self) -> dict:
        horizon = int(self.survival.size - 1)
        return {
            "L": self.L,
            "half_horizon": self.half_horizon,
            "sigma": self.sigma,
            "survival_horizon": horizon,
            "tail_at_horizon": self.tail(horizon),
        }


def _survival_step(kernel, neg, s_vec):
    """S_{n+1}(i) = max over available a of sum_j k[i,a,j] S_n(j)."""
    return np.max(np.einsum("iaj,j->ia", kernel, s_vec) + neg, axis=1)


def absorption_certificate(model: AtomlessMDP, tol: float = 1e-12,
                           cap: int = 200_000) -> AbsorptionCertificate:
    """Certify uniform absorption by dynamic programming on the base grid.

    Runs the worst-case survival recursion S_{n+1}(i) = max_a sum_j k[i,a,j] S_n(j)
    alongside the expected-life value iteration.  The bound on the expected
    hitting time uses submultiplicativity of the survival profile: once the
    worst cell's survival drops to sigma <= 1/2 after H steps, the expected
    life is at most (sum of the first H survival vectors) / (1 - sigma).
    The recursion stops at H; the survival profile continues it until the
    profile falls below tol * 1e-4, the worst cell reaches 0 or ``cap``
    steps have run.
    """
    if model.kind != ABSORBING:
        raise NotCertifiedError("certificate requires an absorbing model; transform first")
    m = model.cell_count
    neg = np.where(model.available_mask(), 0.0, -np.inf)

    s_vec = np.ones(m)                     # per-cell worst-case survival
    partial = np.zeros(m)                  # sum of survival vectors up to H
    mu = model.initial.masses
    profile = [1.0]
    n = 0
    while True:
        partial = partial + s_vec
        s_vec = _survival_step(model.kernel, neg, s_vec)
        n += 1
        profile.append(float(min(profile[-1], mu @ s_vec)))
        worst = float(s_vec.max(initial=0.0))
        if worst <= 0.5:
            break
        if n >= cap:
            raise NotCertifiedError(
                f"worst-case survival still {worst:.3g} after {n} steps; "
                "the model is not certified uniformly absorbing"
            )
    L = float(partial.max() / (1.0 - worst))
    return AbsorptionCertificate(L, worst, n, tol, profile, (model.kernel, neg, mu, s_vec, cap))


# ---------------------------------------------------------------------------
# model transforms
# ---------------------------------------------------------------------------


def discounted_to_absorbing(model: AtomlessMDP) -> AtomlessMDP:
    """Fold the discount factor into the dynamics: scale kernels by beta and
    absorb the remaining (1 - beta) mass each step.  Expected discounted
    rewards of the input equal expected total rewards of the output,
    policy by policy."""
    if model.kind != DISCOUNTED:
        raise ModelFormatError("kind", "model is not discounted")
    beta = model.beta
    return AtomlessMDP(
        grid=model.grid,
        action_count=model.action_count,
        available=model.available,
        kernel=beta * model.kernel,
        absorb=(1.0 - beta) + beta * model.absorb,
        rewards=model.rewards,
        initial=model.initial,
        kind=ABSORBING,
    )


class WeightConditionError(ModelFormatError):
    """The weight function fails the substochastic expansion bound."""


def weighted_transform(model: AtomlessMDP, w) -> AtomlessMDP:
    """Similarity transform by a positive cellwise weight.

    Kernel rows become w(y) p(dy|x,a) / w(x) with the shortfall absorbed,
    rewards are divided by w(x) and rescaled by the weighted initial mass, and
    the initial distribution is reweighted by w.  Performance vectors are
    preserved policy by policy.  For discounted models whose weighted kernels
    expand, the discount factor is raised to keep rows substochastic.
    """
    w = np.asarray(w, dtype=float)
    if w.shape != (model.cell_count,) or not np.all((w > 0) & (w < np.inf)):
        raise ModelFormatError("weights", "need one positive finite weight per base cell")
    mask = model.available_mask()
    ratio = np.where(mask, np.einsum("iaj,j->ia", model.kernel, w) / w[:, None], 0.0)
    i, a = np.unravel_index(np.argmax(ratio), ratio.shape)
    worst = float(ratio[i, a])
    scale = 1.0
    beta = model.beta
    if model.kind == ABSORBING:
        if worst > 1.0 + ROW_SUM_TOL:
            raise WeightConditionError(
                f"kernel[{i}][{a}]",
                f"weighted row expands by {worst!r} > 1; certificate fails",
            )
    else:
        if model.beta * worst >= 1.0 - 1e-12:
            raise WeightConditionError(
                f"kernel[{i}][{a}]",
                f"beta * weighted expansion = {model.beta * worst!r} >= 1",
            )
        if worst > 1.0:
            scale = 1.0 / worst
            beta = model.beta * worst
    kernel = scale * model.kernel * w[None, None, :] / w[:, None, None]
    absorb = 1.0 - kernel.sum(axis=2)
    absorb[~mask] = 1.0
    kernel[~mask] = 0.0
    absorb = np.clip(absorb, 0.0, 1.0)
    weighted_mu = float(w @ model.initial.masses)
    rewards = model.rewards * (weighted_mu / w)[:, None, None]
    rewards[~mask] = 0.0
    initial = PieceMeasure(model.grid, w * model.initial.masses / weighted_mu)
    return AtomlessMDP(
        grid=model.grid,
        action_count=model.action_count,
        available=model.available,
        kernel=kernel,
        absorb=absorb,
        rewards=rewards,
        initial=initial,
        kind=model.kind,
        beta=beta,
    )


# ---------------------------------------------------------------------------
# document I/O
# ---------------------------------------------------------------------------


def _numbers(values) -> np.ndarray:
    """A list of JSON numbers as a float array.  Raises TypeError unless
    ``values`` is a list of ints and floats (no booleans, no strings), and
    OverflowError for an int beyond the double range."""
    if type(values) is not list or not all(
            issubclass(t, (int, float)) and not issubclass(t, bool) for t in set(map(type, values))):
        raise TypeError("expected a list of numbers")
    return np.fromiter(values, float, len(values))


def _row_table(rows) -> np.ndarray:
    """``[lo, hi, mass]`` rows as one (rows, 3) float table, their numbers
    read as ``np.fromiter`` reads them.  Raises ValueError naming the fault
    unless every row is a list of three numbers it reads."""
    if set(map(type, rows)) - {list} or set(map(len, rows)) - {3}:
        raise ValueError("expected [lo, hi, mass] rows")
    try:
        return np.fromiter(chain.from_iterable(rows), float, 3 * len(rows)).reshape(-1, 3)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"expected [lo, hi, mass] rows: {exc}") from None


def _reward_values(reward_lists) -> np.ndarray:
    """The numbers of every reward list, one flat float array."""
    if set(map(type, reward_lists)) - {list}:
        raise TypeError("expected a list of numbers")
    return _numbers(list(chain.from_iterable(reward_lists)))


def _convert(convert, items):
    """``convert(items)``, an empty list and None; or None, a list holding
    the index of the first item that ``convert([item])`` rejects, and its
    error message."""
    try:
        return convert(items), [], None
    except (TypeError, ValueError, OverflowError):
        for k, item in enumerate(items):
            try:
                convert([item])
            except (TypeError, ValueError, OverflowError) as exc:
                return None, [k], str(exc)
        raise


def _is_integer(a) -> bool:
    """An integral number that is not a bool (JSON has no integer type)."""
    if isinstance(a, float):
        return a.is_integer()
    return isinstance(a, int) and not isinstance(a, bool)


def read_model_document(data: bytes, where):
    """Parse a model document from the bytes of its file.

    orjson parses the strict UTF-8 JSON every writer here emits.  What it
    refuses goes to ``json.loads`` on the same bytes, which also reads the
    ``NaN`` and ``Infinity`` tokens ``json.dump`` writes, UTF-16 and UTF-32
    input and numbers beyond the double range (as infinities); its message
    words the error when neither parser accepts the bytes, raised as
    ModelFormatError naming ``where``.  orjson reads integers beyond 64 bits
    as floats, a size no field here can hold.
    """
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        pass
    try:
        return json.loads(data)
    except ValueError as exc:         # malformed JSON or bytes that are not text
        raise ModelFormatError(where, f"invalid JSON: {exc}") from None


def load_model(doc: dict) -> AtomlessMDP:
    """Build and fully validate a model from its document form.

    The rows, absorb masses and rewards of every base (cell, action) entry
    are gathered in document order, the initial rows last, and each field is
    converted for all entries at once.  Every check has one column in one
    table of entries, so the error names the first faulty entry: a malformed
    entry before any bad mass.  The grid is refined to every row endpoint,
    each entry's row is placed on the refined grid once, and refined cells
    take the row of their base cell.  Numbers in ``beta``, ``grid``,
    ``absorb`` and ``rewards`` must be JSON numbers, not booleans or
    strings; those in the rows are read as ``np.fromiter`` reads them.
    """
    if not isinstance(doc, dict):
        raise ModelFormatError("document", "expected a mapping")
    kind = doc.get("kind")
    if kind not in (ABSORBING, DISCOUNTED):
        raise ModelFormatError("kind", f"expected 'absorbing' or 'discounted', got {kind!r}")
    beta = doc.get("beta")
    if kind == DISCOUNTED:
        if isinstance(beta, bool) or not isinstance(beta, (int, float)) or not 0.0 <= beta < 1.0:
            raise ModelFormatError("beta", "discounted model needs beta in [0,1)")
    try:
        base = StatePartition(_numbers(doc.get("grid")))
    except (TypeError, OverflowError):
        raise ModelFormatError("grid", "expected a list of breakpoints") from None
    except ValueError as exc:
        raise ModelFormatError("grid", str(exc)) from None
    n_actions = doc.get("actions")
    if isinstance(n_actions, bool) or not isinstance(n_actions, int) or n_actions < 1:
        raise ModelFormatError("actions", "expected a positive integer")

    available = doc.get("available")
    if not isinstance(available, list) or len(available) != base.cell_count:
        raise ModelFormatError("available", f"expected {base.cell_count} per-cell action lists")
    avail = []
    for i, acts in enumerate(available):
        if not isinstance(acts, list) or not all(map(_is_integer, acts)):
            raise ModelFormatError(f"available[{i}]", "expected a list of action indices")
        acts = sorted({int(a) for a in acts})
        if not acts:
            raise ModelFormatError(f"available[{i}]", "empty action set")
        if acts[0] < 0 or acts[-1] >= n_actions:
            raise ModelFormatError(f"available[{i}]", "action index out of range")
        avail.append(tuple(acts))

    kernel_doc = doc.get("kernel")
    rewards_doc = doc.get("rewards")
    if not isinstance(kernel_doc, list) or len(kernel_doc) != base.cell_count:
        raise ModelFormatError("kernel", f"expected {base.cell_count} per-cell entries")
    if not isinstance(rewards_doc, list) or len(rewards_doc) != base.cell_count:
        raise ModelFormatError("rewards", f"expected {base.cell_count} per-cell entries")

    # the entries of the cells before the first whose kernel or rewards list
    # does not hold one entry per available action, in document order, and
    # a last entry: the initial rows, or that cell
    sized = np.array([[isinstance(c, list) and len(c) == len(acts) for acts, c in zip(avail, lists)]
                      for lists in (kernel_doc, rewards_doc)])
    wrong = _first(~sized.T)
    cells = len(avail) if wrong is None else wrong[0]
    entries = list(chain.from_iterable(kernel_doc[:cells]))
    reward_lists = list(chain.from_iterable(rewards_doc[:cells]))
    paths = [f"kernel[{i}][{k}]" for i in range(cells) for k in range(len(avail[i]))]
    if wrong is None:
        paths.append("initial")
        last_rows, count_message = doc.get("initial", []), None
    else:
        paths.append(f"{('kernel', 'rewards')[wrong[1]]}[{cells}]")
        last_rows, count_message = [], f"expected {len(avail[cells])} action entries"
    n = len(paths)
    objects = [e if isinstance(e, dict) else {} for e in entries]
    # a `to` that is not a list reads as one row, which is not a list either
    to = [t if type(t) is list else [t]
          for t in (*map(dict.get, objects, repeat("to"), repeat([])), last_rows)]
    entry_of = np.repeat(np.arange(n), np.fromiter(map(len, to), np.intp, n))
    rows = list(chain.from_iterable(to))
    table, bad_row, row_message = _convert(_row_table, rows)
    absorb, bad_absorb, _ = _convert(
        _numbers, [*map(dict.get, objects, repeat("absorb"), repeat(0.0)), 0.0])
    rewards, bad_reward, _ = _convert(_reward_values, reward_lists)
    criteria = np.array([len(r) if type(r) is list else -1 for r in reward_lists], dtype=int)

    def per_entry(row_flags):
        return np.bincount(entry_of, weights=row_flags, minlength=n) > 0

    def rows_path(e):
        return paths[e] if e == n - 1 else f"{paths[e]}.to"

    # one row per entry, one column per check in the order they are
    # reported; the mass checks run once every entry is well formed, so
    # the first fault of the document, if any, is structural
    faults = np.zeros((n, 10), dtype=bool)
    faults[-1, 0] = count_message is not None
    faults[:-1, 1] = [not isinstance(e, dict) for e in entries]
    faults[entry_of[bad_row], 2] = True
    faults[bad_absorb, 3] = True
    faults[bad_reward, 4] = True
    faults[:-1, 5] = criteria != criteria[:1]
    if not faults.any():
        lo, hi, mass = table.T
        # bincount adds each entry's masses in row order, as a sequential sum does
        totals = np.bincount(entry_of, weights=mass, minlength=n) + absorb
        bad_interval = ~((0.0 <= lo) & (lo < hi) & (hi <= 1.0))
        faults[:, 6] = per_entry(~np.isfinite(mass)) | ~np.isfinite(absorb)
        faults[:, 7] = np.abs(totals - 1.0) > ROW_SUM_TOL
        faults[:, 8] = per_entry(mass < 0) | (absorb < 0)
        faults[:, 9] = per_entry(bad_interval)
    fault = _first(faults)
    if fault is not None:
        e, check = fault
        path, rewards_path = paths[e], "rewards" + paths[e][len("kernel"):]
        if check == 7:
            word = "total mass" if path == "initial" else "row sums to"
            raise ModelFormatError(path, f"{word} {float(totals[e])!r}, not 1")
        if check == 9:
            r = np.flatnonzero(bad_interval & (entry_of == e))[0]
            raise ModelFormatError(rows_path(e), f"bad interval ({lo[r]}, {hi[r]})")
        raise ModelFormatError(*{
            0: (path, count_message),
            1: (path, "expected an object with 'to' and 'absorb'"),
            2: (rows_path(e), row_message),
            3: (f"{path}.absorb", "expected a number"),
            4: (rewards_path, "expected a list of numbers"),
            5: (rewards_path, "inconsistent criteria count"),
            6: (path, "masses must be finite"),
            8: (path, "negative mass"),
        }[check])

    grid, placed = place_rows(
        base.points, lo, hi, mass, entry_of, n,
        # a chain of endpoints, each within MERGE_TOL of the next, merged
        # into one breakpoint farther than MERGE_TOL from some of them
        lambda r, x: ModelFormatError(
            rows_path(entry_of[r]), f"endpoint {x!r} is within {MERGE_TOL} of another "
            "endpoint but not of the breakpoint they merge to"))
    rewards = rewards.reshape(criteria.size, criteria[0])
    slot_cell = np.repeat(np.arange(base.cell_count), [len(acts) for acts in avail])
    slot_action = np.array([a for acts in avail for a in acts])
    kernel = np.zeros((base.cell_count, n_actions, grid.cell_count))
    base_absorb = np.ones((base.cell_count, n_actions))
    base_rewards = np.zeros((base.cell_count, n_actions, rewards.shape[1]))
    kernel[slot_cell, slot_action] = placed[:-1]
    base_absorb[slot_cell, slot_action] = absorb[:-1]
    base_rewards[slot_cell, slot_action] = rewards
    owner = grid.index_map_from(base)
    return AtomlessMDP(
        grid=grid,
        action_count=n_actions,
        available=[avail[i] for i in owner],
        kernel=kernel[owner],
        absorb=base_absorb[owner],
        rewards=base_rewards[owner],
        initial=PieceMeasure(grid, placed[-1]),
        kind=kind,
        beta=beta if kind == DISCOUNTED else None,
    )


def model_to_doc(model: AtomlessMDP) -> dict:
    """Canonical document form; load_model(model_to_doc(m)) reproduces m."""
    pts = model.grid.points
    kernel_doc, rewards_doc = [], []
    for i in range(model.cell_count):
        cell_kernel, cell_rewards = [], []
        for act in model.available[i]:
            to_rows = [
                [float(pts[j]), float(pts[j + 1]), float(mass)]
                for j, mass in enumerate(model.kernel[i, act])
                if mass > 0.0
            ]
            cell_kernel.append({"to": to_rows, "absorb": float(model.absorb[i, act])})
            cell_rewards.append([float(r) for r in model.rewards[i, act]])
        kernel_doc.append(cell_kernel)
        rewards_doc.append(cell_rewards)
    doc = {
        "kind": model.kind,
        "grid": [float(t) for t in pts],
        "actions": model.action_count,
        "available": [list(a) for a in model.available],
        "kernel": kernel_doc,
        "rewards": rewards_doc,
        "initial": [
            [float(pts[j]), float(pts[j + 1]), float(mass)]
            for j, mass in enumerate(model.initial.masses)
            if mass > 0.0
        ],
    }
    if model.kind == DISCOUNTED:
        doc["beta"] = model.beta
    return doc


def model_from_bytes(data: bytes, where):
    """Parse a model file's bytes and build its model: the AtomlessMDP of
    an ``absorbing`` or ``discounted`` document, the doubling corridor of a
    ``discrete-chain`` one.  Bytes that do not parse and a chain's bad
    ``depth`` raise ModelFormatError naming ``where``; load_model names the
    fields of the others.

    The cycle collector is paused from the parse until the parsed document
    is freed, then left as the caller had it.  The document is an acyclic
    tree of lists, dicts and numbers that reference counting frees, so the
    collector has nothing in it to reclaim; running, it would scan the tree
    dozens of times while it is built.  The tree is freed inside the pause
    because freeing takes its objects back off the collector's allocation
    count, which would otherwise start deferred passes once it resumes.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        doc = read_model_document(data, where)
        if isinstance(doc, dict) and doc.get("kind") == "discrete-chain":
            depth = doc.get("depth", 10)
            if not _is_integer(depth):
                raise ModelFormatError(where, "depth: expected an integer")
            try:
                return doubling_corridor(int(depth))
            except ValueError as exc:
                raise ModelFormatError(where, f"depth: {exc}") from None
        return load_model(doc)
    finally:
        doc = None          # free the document before the collector resumes
        if enabled:
            gc.enable()


def load_model_file(path) -> AtomlessMDP:
    with open(path, "rb") as fh:
        data = fh.read()
    model = model_from_bytes(data, path)
    if not isinstance(model, AtomlessMDP):
        raise ModelFormatError("kind", "expected 'absorbing' or 'discounted', got 'discrete-chain'")
    return model


def save_model_file(model: AtomlessMDP, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_doc(model), fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# discrete diagnostic chain
# ---------------------------------------------------------------------------


@dataclass
class DiscreteAbsorbingChain:
    """Finite absorbing chain over opaque states, used only by diagnostics.

    This is an atomic model (probability mass sits on individual states), so
    it deliberately lives outside AtomlessMDP.  Transitions form a forward DAG
    except for self-loops, which keeps expected hitting times exactly solvable
    by back-substitution.
    """

    states: list
    actions_of: dict          # state -> tuple of actions
    transitions: dict         # (state, action) -> list[(prob, next_state)]
    initial: object
    sink: object
    note: str = ""

    def _post_order(self, successors):
        """Post-order DFS over the non-sink states along ``successors(state)``."""
        seen, order = set(), []
        stack = [(s, False) for s in self.states if s != self.sink]
        while stack:
            state, expanded = stack.pop()
            if expanded:
                order.append(state)
                continue
            if state in seen or state == self.sink:
                continue
            seen.add(state)
            stack.append((state, True))
            for nxt in successors(state):
                if nxt not in seen and nxt != self.sink and nxt != state:
                    stack.append((nxt, False))
        return order

    def _resolve(self, state, action, value):
        """Expected steps from ``state`` under ``action`` given its successors'
        ``value``: loop probability p and continuation c give c / (1 - p).

        None when the action never leaves the state.
        """
        self_p, acc = 0.0, 1.0
        for prob, nxt in self.transitions[(state, action)]:
            if nxt == state:
                self_p += prob
            else:
                if nxt not in value:
                    raise NotCertifiedError("chain has a cycle beyond self-loops")
                acc += prob * value[nxt]
        return acc / (1.0 - self_p) if self_p < 1.0 else None

    def expected_absorption_time(self, policy) -> float:
        """E T for a deterministic policy given as state -> action."""
        value = {self.sink: 0.0}
        order = self._post_order(lambda s: (n for _, n in self.transitions[(s, policy(s))]))
        for state in order:
            steps = self._resolve(state, policy(state), value)
            if steps is None:
                raise NotCertifiedError(f"state {state!r} never reaches the sink")
            value[state] = steps
        return value[self.initial]

    def sup_expected_time(self) -> float:
        """sup over states and deterministic policies of E_x T.

        Exact on forward chains: states are processed in reverse topological
        order over the union of all actions' edges.
        """
        value = {self.sink: 0.0}
        order = self._post_order(
            lambda s: (n for a in self.actions_of[s] for _, n in self.transitions[(s, a)]))
        for state in order:
            times = [t for a in self.actions_of[state]
                     if (t := self._resolve(state, a, value)) is not None]
            if not times:
                raise NotCertifiedError(f"state {state!r} never reaches the sink")
            value[state] = max(times)
        return max(v for s, v in value.items() if s != self.sink)

    def survival_profile(self, policy, horizon: int) -> np.ndarray:
        """P{T > t} for t = 0..horizon under a deterministic policy."""
        dist = {self.initial: 1.0}
        out = [1.0]
        for _ in range(horizon):
            nxt = {}
            for state, p in dist.items():
                for prob, n in self.transitions[(state, policy(state))]:
                    if n != self.sink:
                        nxt[n] = nxt.get(n, 0.0) + p * prob
            dist = nxt
            out.append(sum(dist.values()))
        return np.asarray(out)

    def tail_mass(self, policy, n: int, horizon: int) -> float:
        """E sum_{t>=n} I{t < T} under the policy, summed to the given horizon."""
        surv = self.survival_profile(policy, horizon)
        return float(surv[n:].sum())

    def max_survival(self, horizon: int) -> np.ndarray:
        """sup over policies of P{T > t} from the initial state, t = 0..horizon.

        Backward induction on survival: S_0 = 1 and
        S_{t+1}(x) = max_a sum over non-sink successors of p * S_t.
        """
        surv = {s: 1.0 for s in self.states if s != self.sink}
        out = [1.0]
        for _ in range(horizon):
            surv = {
                s: max(
                    sum(p * surv.get(n, 0.0) for p, n in self.transitions[(s, a)] if n != self.sink)
                    for a in self.actions_of[s]
                )
                for s in self.states
                if s != self.sink
            }
            out.append(surv.get(self.initial, 0.0))
        return np.asarray(out)


CONTINUE, STOP = 0, 1
MAX_CORRIDOR_DEPTH = 16     # 2^17 + 1 states: about 0.7 s and 120 MiB to build


def doubling_corridor(depth: int) -> DiscreteAbsorbingChain:
    """Depth-truncated stop-or-continue chain with doubling stop corridors.

    At level i the controller may stop, which commits to 2^i deterministic
    steps before absorption, or continue, which flips a fair coin between
    absorption and level i+1.  Levels above ``depth`` are replaced by a single
    keep-flipping state, so the truncation is absorbing with expected times
    3 - 2^(1-n) under stop-at-n and exactly 2 under always-continue, while the
    full (untruncated) chain is absorbing but not uniformly so.  The chain
    has about 2^(depth+1) states, so ``depth`` is at most MAX_CORRIDOR_DEPTH.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > MAX_CORRIDOR_DEPTH:
        raise ValueError(f"depth must be at most {MAX_CORRIDOR_DEPTH}")
    sink = ("sink",)
    tail = ("tail",)
    states, actions_of, transitions = [sink, tail], {}, {}
    actions_of[tail] = (CONTINUE,)
    transitions[(tail, CONTINUE)] = [(0.5, sink), (0.5, tail)]
    for i in range(depth + 1):
        level = ("level", i)
        states.append(level)
        actions_of[level] = (CONTINUE, STOP)
        nxt = ("level", i + 1) if i < depth else tail
        transitions[(level, CONTINUE)] = [(0.5, sink), (0.5, nxt)]
        first_corridor = ("corridor", i, 1) if i > 0 else sink
        transitions[(level, STOP)] = [(1.0, first_corridor)]
        for j in range(1, 2**i):
            c = ("corridor", i, j)
            states.append(c)
            actions_of[c] = (STOP,)
            nxt_c = ("corridor", i, j + 1) if j + 1 < 2**i else sink
            transitions[(c, STOP)] = [(1.0, nxt_c)]
    return DiscreteAbsorbingChain(
        states=states,
        actions_of=actions_of,
        transitions=transitions,
        initial=("level", 0),
        sink=sink,
        note=(
            "depth-truncated chain: certified absorbing as truncated, but stop "
            "corridors double with depth, so the untruncated chain is not "
            "uniformly absorbing"
        ),
    )


def stop_policy(n: int):
    """Continue below level n, stop at level n (and in corridors)."""

    def pick(state):
        if state[0] == "level" and state[1] < n:
            return CONTINUE
        if state[0] == "tail":
            return CONTINUE
        return STOP

    return pick


def always_continue(state):
    if state[0] in ("level", "tail"):
        return CONTINUE
    return STOP


# ---------------------------------------------------------------------------
# builtin models and random instances
# ---------------------------------------------------------------------------


def _onestep(grid: StatePartition, rewards_by_cell: np.ndarray, initial: PieceMeasure) -> AtomlessMDP:
    m = grid.cell_count
    rewards = np.zeros((m, 2, rewards_by_cell.shape[1]))
    rewards[:, 1, :] = rewards_by_cell
    return AtomlessMDP(
        grid=grid,
        action_count=2,
        available=[(0, 1)] * m,
        kernel=np.zeros((m, 2, m)),
        absorb=np.ones((m, 2)),
        rewards=rewards,
        initial=initial,
        kind=ABSORBING,
    )


def builtin(name: str, seed=None):
    """Named test models.

    Names: ``unit-interval-onestep``, ``lyapunov-onestep``,
    ``doubling-corridor:<depth>`` (a discrete diagnostics chain, not an
    AtomlessMDP) and ``random:<cells>x<actions>x<criteria>`` (seeded).
    """
    base, _, arg = name.partition(":")
    try:
        sizes = [int(x) for x in arg.split("x")] if arg else []
    except ValueError:
        raise ModelFormatError("builtin", f"bad size {arg!r} in {name!r}") from None
    if base == "unit-interval-onestep":
        grid = StatePartition([0.0, 1.0])
        return _onestep(grid, np.array([[1.0]]), PieceMeasure.uniform())
    if base == "lyapunov-onestep":
        grid = StatePartition([0.0, 0.25, 0.5, 0.75, 1.0])
        mids = 0.5 * (grid.points[:-1] + grid.points[1:])
        dens = np.column_stack([np.ones(4), 2.0 * mids])
        return _onestep(grid, dens, PieceMeasure(grid, grid.widths))
    if base == "doubling-corridor":
        if len(sizes) > 1 or min(sizes, default=0) < 0:
            raise ModelFormatError("builtin", "corridor depth must be a nonnegative integer")
        try:
            return doubling_corridor(sizes[0] if sizes else 10)
        except ValueError as exc:
            raise ModelFormatError("builtin", f"corridor {exc}") from None
    if base == "random":
        dims = sizes or [6, 3, 2]
        if len(dims) != 3 or min(dims) < 1:
            raise ModelFormatError("builtin", "random model size must be CELLSxACTIONSxCRITERIA, "
                                   "each at least 1")
        return random_model(*dims, seed=0 if seed is None else seed)
    raise ModelFormatError("builtin", f"unknown builtin {name!r}")


RANDOM_MIN_ABSORB = 0.12  # absorption floor of random_model's rows


def random_model(cells: int, actions: int, criteria: int, seed) -> AtomlessMDP:
    """Seeded uniformly absorbing atomless model generator for tests."""
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.uniform(0.05, 0.95, size=cells - 1)) if cells > 1 else []
    grid = StatePartition([0.0, *cuts, 1.0])
    available = []
    for _ in range(cells):
        k = int(rng.integers(1, actions + 1))
        available.append(tuple(sorted(rng.choice(actions, size=k, replace=False).tolist())))
    kernel = np.zeros((cells, actions, cells))
    absorb = np.ones((cells, actions))
    rewards = np.zeros((cells, actions, criteria))
    for i in range(cells):
        for a in available[i]:
            absorb[i, a] = rng.uniform(RANDOM_MIN_ABSORB, 0.6)
            weights = rng.random(cells) * (rng.random(cells) < 0.7)
            if weights.sum() == 0:
                weights[rng.integers(cells)] = 1.0
            kernel[i, a] = weights / weights.sum() * (1.0 - absorb[i, a])
            rewards[i, a] = rng.uniform(-1.0, 1.0, size=criteria)
    mu = rng.random(cells) + 0.05
    initial = PieceMeasure(grid, mu / mu.sum())
    return AtomlessMDP(grid, actions, available, kernel, absorb, rewards, initial)


def random_stationary_policy(model: AtomlessMDP, rng, extra_cuts: int = 2) -> StationaryPolicy:
    cuts = rng.uniform(0.0, 1.0, size=int(rng.integers(0, extra_cuts + 1)))
    part = StatePartition(merge_breakpoints(model.grid.points, cuts)) if cuts.size else model.grid
    owner = part.index_map_from(model.grid)
    probs = np.zeros((part.cell_count, model.action_count))
    for s, i in enumerate(owner):
        acts = list(model.available[i])
        weights = rng.dirichlet(np.ones(len(acts)))
        probs[s, acts] = weights
    return StationaryPolicy(part, probs)


def random_deterministic_policy(model: AtomlessMDP, rng, extra_cuts: int = 2) -> DeterministicPolicy:
    cuts = rng.uniform(0.0, 1.0, size=int(rng.integers(0, extra_cuts + 1)))
    part = StatePartition(merge_breakpoints(model.grid.points, cuts)) if cuts.size else model.grid
    owner = part.index_map_from(model.grid)
    actions = np.array([rng.choice(model.available[i]) for i in owner])
    return DeterministicPolicy(part, actions)
