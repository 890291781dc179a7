"""Tests for scalarized dynamic programming, support functions and conserving submodels."""

import numpy as np
import pytest

from atomless_mdp.errors import ToleranceError
from atomless_mdp.measure import PieceMeasure
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


def test_support_reuses_submodel_setup(monkeypatch):
    # a submodel computes its initial masses once, when built; support
    # reads v from the solve that evaluates the optimum, so it makes no more
    # solves than value_iteration and returns the same policy and h
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
        sub = SubmodelSpec.from_pair(m, phi0, phi1).frozen_below(float(rng.uniform(0.1, 0.9)), phi1)
        support(sub, rng.normal(size=2))
        assert not sub.initial_masses.flags.writeable
        for _ in range(4):
            b = rng.normal(size=2)
            counts.update(refined_to=0, solve=0)
            h, policy, _ = support(sub, b)
            assert counts["refined_to"] == 0
            support_solves, counts["solve"] = counts["solve"], 0
            _, vi_policy, vi_h = value_iteration(sub, b)
            assert counts["refined_to"] == 0
            assert support_solves <= counts["solve"]
            assert h == vi_h and np.array_equal(policy.actions, vi_policy.actions)
            assert policy.partition == vi_policy.partition


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


def test_masks_match_tuple_reference():
    from atomless_mdp.derandomize import _pair_from_submodel, make_context

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
        inner = ctx.partition.points[1:-1]
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
            p0, p1 = _pair_from_submodel(kept, phi0, phi1)
            r0, r1 = ref_pair_from_sets(part_f, sets_k, phi0, phi1)
            assert np.array_equal(p0.actions, r0) and np.array_equal(p1.actions, r1)
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
        p0, p1 = _pair_from_submodel(sub, phi0, phi1)
        r0, r1 = ref_pair_from_sets(m.grid, as_sets(mask), phi0, phi1)
        assert np.array_equal(p0.actions, r0) and np.array_equal(p1.actions, r1)
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
