"""Tests for scalarized dynamic programming, support functions and conserving submodels."""

import importlib
import itertools

import numpy as np
import pytest

from atomless_mdp.errors import CertifiedFailure, ToleranceError
from atomless_mdp.measure import PieceMeasure, StatePartition
from atomless_mdp.model import (
    AtomlessMDP,
    DeterministicPolicy,
    builtin,
    discounted_to_absorbing,
    random_deterministic_policy,
    random_model,
    random_stationary_policy,
)
from atomless_mdp.occupancy import performance
from atomless_mdp.scalar_dp import (
    SubmodelSpec,
    _policy_iteration,
    _solve,
    conserving_submodel,
    support,
    value_iteration,
)
from tests.test_model import one_cell_discounted


def as_sets(allowed):
    """The per-interval action tuples of an allowed-action mask."""
    return tuple(tuple(np.flatnonzero(row).tolist()) for row in allowed)


def random_policy_in(sub, rng):
    actions = [int(rng.choice(acts)) for acts in as_sets(sub.allowed)]
    return DeterministicPolicy(sub.partition, actions)


def test_zero_direction():
    m = random_model(5, 3, 2, seed=0)
    vf, policy, h = value_iteration(SubmodelSpec.full(m), np.zeros(2))
    assert h == 0.0
    assert np.all(vf.values == 0.0)
    # lowest-index tie-break everywhere
    assert all(policy.actions[s] == m.available[i][0]
               for s, i in enumerate(SubmodelSpec.full(m).owner))


def test_unit_interval_upper_endpoint():
    m = builtin("unit-interval-onestep")
    vf, policy, h = value_iteration(SubmodelSpec.full(m), np.array([1.0]))
    assert h == pytest.approx(1.0, abs=1e-12)
    assert policy.actions.tolist() == [1]


def test_h_dominates_random_policies():
    m = random_model(6, 2, 2, seed=31)
    rng = np.random.default_rng(77)
    sub = SubmodelSpec.full(m)
    for _ in range(50):
        b = rng.normal(size=2)
        h, _, _ = support(sub, b)
        pi = random_stationary_policy(m, rng)
        assert h >= float(b @ performance(m, pi, tol=1e-12)) - 1e-9


def test_support_sign_symmetry():
    m = random_model(5, 3, 1, seed=9)
    negated = AtomlessMDP(m.grid, m.action_count, m.available, m.kernel, m.absorb,
                          -m.rewards, m.initial)
    h_pos, _, _ = support(m, np.array([1.0]))
    h_neg, _, _ = support(negated, np.array([-1.0]))
    assert h_pos == pytest.approx(h_neg, abs=1e-12)


def test_support_constant_reward_equals_c_times_lifetime():
    # after the discount transform every policy has lifetime (1-beta)^-1
    c, beta = 0.7, 0.5
    m = discounted_to_absorbing(one_cell_discounted(beta, reward=c))
    h, _, _ = support(m, np.array([1.0]))
    assert h == pytest.approx(c / (1.0 - beta), abs=1e-11)


def test_support_subadditive_and_homogeneous():
    m = random_model(6, 3, 2, seed=17)
    rng = np.random.default_rng(5)
    sub = SubmodelSpec.full(m)
    for _ in range(50):
        b1, b2 = rng.normal(size=2), rng.normal(size=2)
        h1, _, _ = support(sub, b1)
        h2, _, _ = support(sub, b2)
        h12, _, _ = support(sub, b1 + b2)
        assert h12 <= h1 + h2 + 1e-9
    b = rng.normal(size=2)
    h, _, _ = support(sub, b)
    h2, _, _ = support(sub, 2.5 * b)
    assert h2 == pytest.approx(2.5 * h, abs=1e-9)


def test_value_function_bounded():
    m = random_model(7, 3, 3, seed=23)
    rng = np.random.default_rng(1)
    b = rng.normal(size=3)
    vf, _, _ = value_iteration(SubmodelSpec.full(m), b)
    bound = m.certificate().L * np.abs(m.rewards @ b).max()
    assert np.all(np.abs(vf.values) <= bound + 1e-9)


def test_greedy_policy_achieves_h():
    m = random_model(6, 3, 2, seed=51)
    rng = np.random.default_rng(3)
    for _ in range(10):
        b = rng.normal(size=2)
        h, policy, _ = support(m, b)
        achieved = float(b @ performance(m, policy, tol=1e-12))
        assert achieved == pytest.approx(h, abs=1e-9)


# ---------------------------------------------------------------------------
# conserving submodels
# ---------------------------------------------------------------------------

def test_conserving_one_action_model():
    m = discounted_to_absorbing(one_cell_discounted(0.5))
    sub = SubmodelSpec.full(m)
    vf, _, _ = value_iteration(sub, np.array([1.0]))
    kept = conserving_submodel(sub, np.array([1.0]), vf, eta=1e-8)
    assert as_sets(kept.allowed) == as_sets(sub.allowed)


def test_conserving_strict_gap_prunes():
    m = builtin("unit-interval-onestep")
    sub = SubmodelSpec.full(m)
    b = np.array([1.0])
    vf, _, _ = value_iteration(sub, b)
    kept = conserving_submodel(sub, b, vf, eta=1e-8)
    assert as_sets(kept.allowed) == ((1,),)


def test_conserving_empty_raises():
    from atomless_mdp.scalar_dp import ValueFunction

    m = builtin("unit-interval-onestep")
    sub = SubmodelSpec.full(m)
    b = np.array([1.0])
    vf, _, _ = value_iteration(sub, b)
    # a value function off by more than eta leaves no conserving action
    shifted = ValueFunction(vf.partition, vf.values + 1e-6, vf.error_bound)
    with pytest.raises(ToleranceError):
        conserving_submodel(sub, b, shifted, eta=1e-9)


def test_conserving_quantitative():
    m = random_model(6, 3, 2, seed=77)
    rng = np.random.default_rng(8)
    b = rng.normal(size=2)
    sub = SubmodelSpec.full(m)
    vf, _, h = value_iteration(sub, b)
    eta = 1e-8 * (1.0 + np.abs(m.rewards @ b).max())
    kept = conserving_submodel(sub, b, vf, eta)
    L = m.certificate().L
    for _ in range(20):
        phi = random_policy_in(kept, rng)
        v = performance(m, phi, tol=1e-12)
        assert abs(float(b @ v) - h) <= L * eta + 1e-9


def test_frozen_below_forces_low_policy():
    m = random_model(4, 2, 1, seed=2)
    sub = SubmodelSpec.full(m)
    low = DeterministicPolicy(m.grid, [acts[0] for acts in m.available])
    frozen = sub.frozen_below(0.5, low)
    mids = 0.5 * (frozen.partition.points[:-1] + frozen.partition.points[1:])
    low_ref = low.refined_to(frozen.partition)
    for s, mid in enumerate(mids):
        if mid < 0.5:
            assert as_sets(frozen.allowed)[s] == (int(low_ref.actions[s]),)


# ---------------------------------------------------------------------------
# the vertex vector returned by support
# ---------------------------------------------------------------------------

def seeded_discounted(seed, beta=0.8, criteria=2):
    """random_model's dynamics renormalized to stay put, with discount beta:
    after the transform the expected lifetime L is 1 / (1 - beta)."""
    m = random_model(5, 3, criteria, seed=seed)
    mask = m.available_mask()
    kernel = m.kernel / np.where(mask, 1.0 - m.absorb, 1.0)[..., None]
    return discounted_to_absorbing(AtomlessMDP(
        m.grid, m.action_count, m.available, kernel, np.where(mask, 0.0, 1.0), m.rewards,
        m.initial, kind="discounted", beta=beta))


def onestep_model(seed):
    m = random_model(7, 3, 3, seed=seed)
    return AtomlessMDP(m.grid, m.action_count, m.available, np.zeros_like(m.kernel),
                       np.ones_like(m.absorb), m.rewards, m.initial)


def check_vertex_vector(sub_or_model, b):
    h, policy, v = support(sub_or_model, b)
    model = sub_or_model.model if isinstance(sub_or_model, SubmodelSpec) else sub_or_model
    ref = performance(model, policy, tol=1e-12)
    assert v.shape == (model.criteria,)
    assert np.linalg.norm(v - ref) <= 1e-11 * (1.0 + np.linalg.norm(v))
    assert abs(float(b @ v) - h) <= 1e-12 * (1.0 + abs(h))


@pytest.mark.parametrize("kind", ["absorbing", "discounted", "one-step"])
def test_support_vector_matches_occupancy(kind):
    rng = np.random.default_rng({"absorbing": 1, "discounted": 2, "one-step": 3}[kind])
    for seed in range(3):
        m = {"absorbing": lambda s: random_model(6, 3, 2, seed=600 + s),
             "discounted": lambda s: seeded_discounted(700 + s),
             "one-step": onestep_model}[kind](seed)
        assert m.is_one_step() == (kind == "one-step")
        for _ in range(5):
            check_vertex_vector(m, rng.normal(size=m.criteria))


def test_support_vector_on_pair_and_frozen_submodels():
    rng = np.random.default_rng(4)
    for seed in range(3):
        m = random_model(6, 3, 2, seed=650 + seed)
        phi0 = random_deterministic_policy(m, rng)
        phi1 = random_deterministic_policy(m, rng)
        pair = SubmodelSpec.from_pair(m, phi0, phi1)
        frozen = pair.frozen_below(float(rng.uniform(0.1, 0.9)), phi1)
        for sub in (pair, frozen):
            for _ in range(5):
                check_vertex_vector(sub, rng.normal(size=2))


def dense_performances(sub, policies):
    """Performance vectors of intervalwise-deterministic policies (rows of
    action indices on sub's intervals), one dense cell-level solve each:
    v = mu (I - P_w)^{-1} r_w for the policy's cell-action weights w."""
    m = sub.model
    w = np.zeros((len(policies), m.cell_count, m.action_count))
    for k, actions in enumerate(policies):
        np.add.at(w[k], (sub.owner, actions), sub.frac)
    p_w = np.einsum("kia,iaj->kij", w, m.kernel)
    r_w = np.einsum("kia,ian->kin", w, m.rewards)
    mu = np.broadcast_to(m.initial.masses[:, None], (len(policies), m.cell_count, 1))
    visits = np.linalg.solve(np.eye(m.cell_count) - np.swapaxes(p_w, 1, 2), mu)[..., 0]
    return np.einsum("ki,kin->kn", visits, r_w)


SIX_INTERVAL_CASES = [
    (5, 2102), (5, 2116), (5, 2122), (4, 2133), (3, 2117), (5, 2213), (5, 2216), (5, 2226),
]


def six_interval_submodel(cells, seed):
    """The seeded generator and a full-action submodel of 6 intervals on a
    model of ``cells`` cells (seeds 22xx discounted, L = 5)."""
    rng = np.random.default_rng(seed)
    m = seeded_discounted(seed) if seed >= 2200 else random_model(cells, 3, 2, seed=seed)
    cuts = np.sort(rng.uniform(0.0, 1.0, size=6 - m.cell_count))
    part = m.grid.refine(StatePartition(np.concatenate(([0.0], cuts, [1.0]))))
    owner, _ = part.rebin_from(m.grid)
    return rng, m, SubmodelSpec(m, part, m.available_mask()[owner])


@pytest.mark.parametrize("cells, seed", SIX_INTERVAL_CASES)
def test_support_is_optimal_over_every_policy(cells, seed):
    # on submodels of 6 intervals with up to 3 actions each, every
    # intervalwise-deterministic policy is enumerated and evaluated densely:
    # h is within the certified gap of the best of them, and the returned
    # vertex's v is its dense value within the solve's certified bound;
    # slack covers the dense reference's own rounding.  The models (seeds
    # 22xx discounted, L = 5) have two or three actions in most cells
    rng, m, sub = six_interval_submodel(cells, seed)
    policies = np.array(list(itertools.product(*as_sets(sub.allowed))))
    assert sub.partition.cell_count == 6 and len(policies) >= 54
    dense = dense_performances(sub, policies)
    L = m.certificate().L
    for _ in range(6):
        b = rng.normal(size=2)
        _, _, err, bound = _policy_iteration(sub, b, 1e-10)
        h, policy, v = support(sub, b)
        slack = 8.0 * np.finfo(float).eps * L * (1.0 + abs(h))
        assert h >= float((dense @ b).max()) - err - slack
        k = int(np.flatnonzero((policies == policy.actions).all(axis=1))[0])
        assert np.abs(v - dense[k]).max() <= bound + slack


def interval_policy_iteration(sub, b):
    """Policy iteration that evaluates each policy on the interval-sized
    system I - P, P[s, t] the mass it moves from interval s to t, with the
    scalarized and the reward columns as right-hand sides: (actions, x)."""
    m, owner, rows = sub.model, sub.owner, np.arange(sub.partition.cell_count)
    scalar_r = m.rewards @ b
    keep_gain = 1e-13 * (1.0 + float(np.abs(scalar_r).max())) * m.certificate().L
    actions = np.where(sub.allowed, scalar_r[owner], -np.inf).argmax(axis=1)
    while True:
        system = np.eye(len(rows)) - m.kernel[owner[:, None], actions[:, None], owner] * sub.frac
        rhs = np.column_stack((scalar_r[owner, actions], m.rewards[owner, actions]))
        x = np.linalg.solve(system, rhs)
        cell_avg = np.bincount(owner, sub.frac * x[:, 0], m.cell_count)
        q = np.where(sub.allowed, (scalar_r + m.kernel @ cell_avg)[owner], -np.inf)
        best = q.argmax(axis=1)
        best = np.where(q[rows, best] - q[rows, actions] <= keep_gain, actions, best)
        if np.array_equal(best, actions):
            return actions, x
        actions = best


@pytest.mark.parametrize("cells, seed", SIX_INTERVAL_CASES)
def test_policy_iteration_solves_on_the_base_grid(monkeypatch, cells, seed):
    # with more intervals than cells, support and value_iteration solve only
    # cells x cells systems, and _solve picks the actions of policy iteration
    # on the interval-sized system, with its values to rounding
    rng, m, sub = six_interval_submodel(cells, seed)
    shapes = []
    original = np.linalg.solve

    def recording(a, b):
        shapes.append(np.shape(a))
        return original(a, b)

    for _ in range(6):
        b = rng.normal(size=2)
        ref_actions, ref_x = interval_policy_iteration(sub, b)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "solve", recording)
            support(SubmodelSpec(m, sub.partition, sub.allowed), b)
            value_iteration(SubmodelSpec(m, sub.partition, sub.allowed), b)
        actions, x, _, _ = _solve(SubmodelSpec(m, sub.partition, sub.allowed), b, 1e-10)
        assert np.array_equal(actions, ref_actions)
        assert np.all(np.abs(x - ref_x) <= 1e-14 * (1.0 + np.abs(ref_x)))
    assert shapes and set(shapes) == {(m.cell_count, m.cell_count)}
    assert m.cell_count < sub.partition.cell_count


def test_support_reuses_submodel_setup(monkeypatch):
    # a submodel computes its initial masses once, when built; support
    # reads v from the solve that evaluates the optimum, so it makes no more
    # solves than value_iteration on an equal submodel (a twin, since the
    # same submodel answers a solved direction without a solve) and returns
    # the same policy and h
    original_refined, original_solve = PieceMeasure.refined_to, np.linalg.solve
    counts = {"refined_to": 0, "solve": 0}

    def counting_refined(self, finer):
        counts["refined_to"] += 1
        return original_refined(self, finer)

    def counting_solve(a, b):
        counts["solve"] += 1
        return original_solve(a, b)

    monkeypatch.setattr(PieceMeasure, "refined_to", counting_refined)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    rng = np.random.default_rng(12)
    for seed in range(3):
        m = random_model(6, 3, 2, seed=680 + seed)
        phi0 = random_deterministic_policy(m, rng)
        phi1 = random_deterministic_policy(m, rng)
        threshold = float(rng.uniform(0.1, 0.9))
        sub, twin = (SubmodelSpec.from_pair(m, phi0, phi1).frozen_below(threshold, phi1)
                     for _ in range(2))
        support(sub, rng.normal(size=2))
        assert not sub.initial_masses.flags.writeable
        for _ in range(4):
            b = rng.normal(size=2)
            counts.update(refined_to=0, solve=0)
            h, policy, _ = support(sub, b)
            assert counts["refined_to"] == 0
            support_solves, counts["solve"] = counts["solve"], 0
            _, vi_policy, vi_h = value_iteration(twin, b)
            assert counts["refined_to"] == 0
            assert support_solves <= counts["solve"]
            assert h == vi_h and np.array_equal(policy.actions, vi_policy.actions)
            assert policy.partition == vi_policy.partition


def test_solved_direction_is_answered_without_a_solve(monkeypatch):
    # a submodel keeps each direction's policy-iteration answer: a repeated
    # support, and value_iteration at a direction support solved, make no
    # solve and return what a fresh solve on an equal submodel returns
    original_solve = np.linalg.solve
    solves = [0]

    def counting_solve(a, b):
        solves[0] += 1
        return original_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    rng = np.random.default_rng(31)
    for seed in range(3):
        m = random_model(6, 3, 2, seed=690 + seed)
        phi0 = random_deterministic_policy(m, rng)
        phi1 = random_deterministic_policy(m, rng)
        threshold = float(rng.uniform(0.1, 0.9))
        sub, twin = (SubmodelSpec.from_pair(m, phi0, phi1).frozen_below(threshold, phi1)
                     for _ in range(2))
        for _ in range(3):
            b = rng.normal(size=2)
            solves[0] = 0
            h, policy, v = support(sub, b)
            assert solves[0] > 0
            solves[0] = 0
            again = support(sub, b.copy())
            vf, vi_policy, vi_h = value_iteration(sub, list(b))
            assert solves[0] == 0
            fresh_h, fresh_policy, fresh_v = support(twin, b)
            fresh_vf, _, fresh_vi_h = value_iteration(twin, b)
            for h_, policy_, v_ in (again, (fresh_h, fresh_policy, fresh_v)):
                assert h_ == h and np.array_equal(policy_.actions, policy.actions)
                assert v_.tobytes() == v.tobytes()
            assert vi_h == h == fresh_vi_h
            assert np.array_equal(vi_policy.actions, policy.actions)
            assert vf.values.tobytes() == fresh_vf.values.tobytes()
            assert vf.error_bound == fresh_vf.error_bound


def test_solved_direction_checks_tol_per_call(monkeypatch):
    # a kept answer serves every tol its vector bound meets; a tighter tol
    # solves again, refining the final solve, and keeps that answer.  Each
    # call checks its own tol: the optimality gap from both readers, the
    # vector bound from support where refinement cannot meet it (as where
    # np.longdouble is float64)
    module = importlib.import_module("atomless_mdp.scalar_dp")
    m = random_model(6, 3, 2, seed=693)
    sub = SubmodelSpec.full(m)

    def refined_gap(b):
        return module._solve(SubmodelSpec.full(m), b, 0.0)[2]

    rng = np.random.default_rng(32)
    b = next(b for b in rng.normal(size=(20, 2)) if refined_gap(b) > 0.0)
    err = refined_gap(b)
    with pytest.raises(ToleranceError, match="optimality gap"):
        support(sub, b, tol=0.5 * err)
    with pytest.raises(ToleranceError, match="optimality gap"):
        value_iteration(sub, b, tol=0.5 * err)

    loose = SubmodelSpec.full(m)
    _, _, float_err, perf_err = _policy_iteration(loose, b, 1.0)
    tol = 0.5 * perf_err
    assert float_err <= tol
    support(loose, b, tol=tol)
    kept = _policy_iteration(loose, b, tol)
    assert kept[3] <= tol and _policy_iteration(loose, b, 1.0) is kept
    with monkeypatch.context() as patch:
        patch.setattr(module, "refine", lambda model, w, x, L, left: (x, perf_err, 0.0))
        unrefined = SubmodelSpec.full(m)
        with pytest.raises(ToleranceError, match="performance error"):
            support(unrefined, b, tol=tol)
        value_iteration(unrefined, b, tol=tol)
    actions, x, _, _ = _policy_iteration(sub, b, 1e-10)
    h, policy, _ = support(sub, b)
    assert np.array_equal(policy.actions, actions) and h == float(sub.initial_masses @ x[:, 0])


def test_solved_answers_are_read_only_and_failures_are_not_kept(monkeypatch):
    m = random_model(6, 3, 2, seed=694)
    sub = SubmodelSpec.full(m)
    b = np.array([0.6, -0.8])
    actions, x, _, _ = _policy_iteration(sub, b, 1e-10)
    vf, _, _ = value_iteration(sub, b)
    for arr in (actions, x, vf.values):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    # a CertifiedFailure is raised again by the next query, not stored
    module = importlib.import_module("atomless_mdp.scalar_dp")

    def failing(sub, direction, tol):
        raise CertifiedFailure("policy iteration did not stabilize", residual=np.inf)

    c = np.array([-0.8, 0.6])
    with monkeypatch.context() as patch:
        patch.setattr(module, "_solve", failing)
        with pytest.raises(CertifiedFailure):
            support(sub, c)
        with pytest.raises(CertifiedFailure):
            support(sub, c)
    h, _, _ = support(sub, c)
    assert h == support(SubmodelSpec.full(m), c)[0]


# ---------------------------------------------------------------------------
# allowed-action masks against a tuple-of-tuples reference
# ---------------------------------------------------------------------------

def ref_from_pair(model, phi0, phi1):
    part = phi0.partition.refine(phi1.partition).refine(model.grid)
    a0 = phi0.refined_to(part).actions
    a1 = phi1.refined_to(part).actions
    return part, tuple(tuple(sorted({int(x), int(y)})) for x, y in zip(a0, a1))


def ref_frozen_below(part, sets, threshold, low):
    finer = part.refine(low.partition).with_point(threshold)
    idx = finer.index_map_from(part)
    low_actions = low.refined_to(finer).actions
    mids = 0.5 * (finer.points[:-1] + finer.points[1:])
    return finer, tuple((int(low_actions[s]),) if mids[s] < threshold else sets[idx[s]]
                        for s in range(finer.cell_count))


def ref_gaps(model, sub, b, vf):
    """|one-step value - vf| per interval and action."""
    owner = sub.partition.index_map_from(model.grid)
    frac = sub.partition.widths / model.grid.widths[owner]
    cell_averages = np.zeros(model.cell_count)
    np.add.at(cell_averages, owner, frac * vf.values)
    q = (model.rewards @ b + model.kernel @ cell_averages)[owner]
    return np.abs(q - vf.values[:, None])


def ref_conserving(sets, gaps, eta):
    return tuple(tuple(a for a in acts if gaps[s, a] <= eta) for s, acts in enumerate(sets))


def ref_pair_from_sets(part, sets, phi0, phi1):
    a0 = phi0.refined_to(part).actions.copy()
    a1 = phi1.refined_to(part).actions.copy()
    for s, acts in enumerate(sets):
        if a0[s] not in acts:
            a0[s] = acts[0] if len(acts) == 1 else acts[-1]
        if a1[s] not in acts:
            a1[s] = acts[-1] if len(acts) == 1 else acts[0]
    return a0, a1


def pair_actions(sub, phi0, phi1):
    """_pair_from_submodel on both policies' actions on the submodel's
    partition; the returned pair allows exactly {a0, a1} on each interval."""
    from atomless_mdp.derandomize import _pair_from_submodel

    part = sub.partition
    pair, a0, a1 = _pair_from_submodel(sub, phi0.refined_to(part).actions,
                                       phi1.refined_to(part).actions)
    assert pair.partition is part
    assert as_sets(pair.allowed) == tuple(tuple(sorted({x, y})) for x, y in zip(a0.tolist(), a1.tolist()))
    return a0, a1


def test_masks_match_tuple_reference():
    from atomless_mdp.derandomize import make_context

    rng = np.random.default_rng(11)
    rng_ctx = np.random.default_rng(12)
    pruned = 0
    for seed in range(8):
        m = random_model(int(rng.integers(4, 8)), 3, 2, seed=900 + seed)
        phi0 = random_deterministic_policy(m, rng)
        phi1 = random_deterministic_policy(m, rng)
        pair = SubmodelSpec.from_pair(m, phi0, phi1)
        part, sets = ref_from_pair(m, phi0, phi1)
        assert pair.partition == part and as_sets(pair.allowed) == sets
        # the two-policy context freezes from its split arrays, as frozen_below does
        ctx = make_context(m, phi0, phi1)
        inner = ctx.pair.partition.points[1:-1]
        near = min(1.0, ctx.q.cdf(inner[inner.size // 2]) / ctx.q.total) if inner.size else 0.5
        for alpha in (0.0, 1.0, near, *rng_ctx.uniform(0.0, 1.0, size=3)):
            t = ctx.threshold(alpha)
            frozen, ref = ctx.submodel_at(alpha), pair.frozen_below(t, phi1)
            assert np.array_equal(frozen.partition.points, ref.partition.points)
            assert np.array_equal(frozen.allowed, ref.allowed)
            part_f, sets_f = ref_frozen_below(part, sets, t, phi1)
            assert frozen.partition == part_f and as_sets(frozen.allowed) == sets_f
        for threshold in rng.uniform(0.0, 1.0, size=3):
            frozen = pair.frozen_below(float(threshold), phi1)
            part_f, sets_f = ref_frozen_below(part, sets, float(threshold), phi1)
            assert frozen.partition == part_f and as_sets(frozen.allowed) == sets_f
            b = rng.normal(size=2)
            vf, _, _ = value_iteration(frozen, b)
            gaps = ref_gaps(m, frozen, b, vf)
            eta = 1e-8 * (1.0 + np.abs(m.rewards @ b).max())
            kept = conserving_submodel(frozen, b, vf, eta)
            sets_k = ref_conserving(sets_f, gaps, eta)
            assert as_sets(kept.allowed) == sets_k
            pruned += sets_k != sets_f
            p0, p1 = pair_actions(kept, phi0, phi1)
            r0, r1 = ref_pair_from_sets(part_f, sets_k, phi0, phi1)
            assert np.array_equal(p0, r0) and np.array_equal(p1, r1)
        # on the full model, with eta equal to one of the gaps
        full = SubmodelSpec.full(m)
        b = rng.normal(size=2)
        vf, _, _ = value_iteration(full, b)
        gaps = ref_gaps(m, full, b, vf)
        floor = float(np.min(np.where(full.allowed, gaps, np.inf), axis=1).max())
        above = np.sort(gaps[full.allowed & (gaps > floor)])
        eta = float(above[above.size // 2]) if above.size else floor
        sets_k = ref_conserving(as_sets(full.allowed), gaps, eta)
        assert as_sets(conserving_submodel(full, b, vf, eta).allowed) == sets_k
        # arbitrary policies against an arbitrary mask
        mask = m.available_mask() & (rng.random(m.available_mask().shape) < 0.6)
        mask[~mask.any(axis=1)] = m.available_mask()[~mask.any(axis=1)]
        sub = SubmodelSpec(m, m.grid, mask)
        phi0 = DeterministicPolicy(m.grid, rng.integers(0, 3, size=m.cell_count))
        phi1 = DeterministicPolicy(m.grid, rng.integers(0, 3, size=m.cell_count))
        p0, p1 = pair_actions(sub, phi0, phi1)
        r0, r1 = ref_pair_from_sets(m.grid, as_sets(mask), phi0, phi1)
        assert np.array_equal(p0, r0) and np.array_equal(p1, r1)
    assert pruned > 0


def test_mask_is_read_only():
    m = random_model(5, 3, 2, seed=3)
    sub = SubmodelSpec.full(m)
    assert sub.allowed.dtype == bool and sub.allowed.shape == (m.cell_count, m.action_count)
    with pytest.raises(ValueError):
        sub.allowed[0, 0] = True
    with pytest.raises(ValueError):
        sub.owner[0] = 1
    mask = m.available_mask().copy()
    built = SubmodelSpec(m, m.grid, mask)
    mask[:] = True
    assert np.array_equal(built.allowed, m.available_mask())


def test_mask_errors_name_first_bad_interval():
    m = random_model(6, 3, 2, seed=5)
    avail = m.available_mask()
    missing = [i for i in range(m.cell_count) if not avail[i].all()]
    assert len(missing) >= 2
    first, later = missing[0], missing[-1]

    mask = avail.copy()
    mask[first] = ~avail[first]          # unavailable actions only
    mask[later] = False
    with pytest.raises(ValueError, match=rf"^interval {first}: actions .* not all available"):
        SubmodelSpec(m, m.grid, mask)

    mask = avail.copy()
    mask[first] = False
    mask[later] = ~avail[later]
    with pytest.raises(ValueError, match=rf"^interval {first}: empty allowed set"):
        SubmodelSpec(m, m.grid, mask)


@pytest.mark.parametrize("cells, seed", SIX_INTERVAL_CASES)
def test_optimality_gap_covers_the_bellman_residual_of_the_values(cells, seed):
    # _solve reads the gap from its last greedy round's Q-values on the cell
    # values c and adds the solve's residual times |b|_1; that covers the
    # Bellman residual of the returned values themselves (their Q-values on
    # their own cell averages, up to that computation's own rounding), and
    # stays within the tol asked
    rng, m, sub = six_interval_submodel(cells, seed)
    L = m.certificate().L
    for b in rng.normal(size=(6, m.criteria)):
        actions, x, err, _ = _solve(sub, b, 1e-10)
        scalar_r = m.rewards @ b
        q_masked = np.where(sub.allowed, scalar_r[sub.owner], -np.inf)
        cell_avg = np.bincount(sub.owner, sub.frac * x[:, 0], m.cell_count)
        q = q_masked + (m.kernel @ cell_avg)[sub.owner]
        rounding = (x.shape[0] + m.cell_count + 2) * np.finfo(float).eps * abs(x[:, 0]).max()
        assert L * float(abs(q.max(axis=1) - x[:, 0]).max()) <= err + L * rounding
        assert err <= 1e-10
