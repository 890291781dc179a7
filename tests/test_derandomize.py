"""Tests for the threshold-path constructions, pairwise mixing and derandomization."""

import importlib
import pickle
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from atomless_mdp.derandomize import (
    DistanceResult,
    alpha_hat,
    caratheodory,
    derandomize,
    distance_to_performance_set,
    make_context,
    mix_pair,
    path_policy,
    path_value,
    tv_modulus,
)
from atomless_mdp.errors import CertifiedFailure, ModelFormatError, PartitionMismatchError
from atomless_mdp.measure import MERGE_TOL, PieceMeasure, StatePartition, total_variation
from atomless_mdp.model import (
    AtomlessMDP,
    DeterministicPolicy,
    StationaryPolicy,
    builtin,
    cell_action_weights,
    discounted_to_absorbing,
    random_deterministic_policy,
    random_model,
    random_stationary_policy,
    validate_policy,
)
from atomless_mdp.occupancy import occupancy, occupancy_total_variation, performance
from atomless_mdp.scalar_dp import SubmodelSpec, conserving_submodel, support, value_iteration
from tests.test_model import one_cell_discounted
from tests.test_scalar_dp import seeded_discounted


def unit_interval_pair():
    m = builtin("unit-interval-onestep")
    return m, DeterministicPolicy(m.grid, [0]), DeterministicPolicy(m.grid, [1])


# ---------------------------------------------------------------------------
# make_context
# ---------------------------------------------------------------------------

def test_context_degenerate_pair():
    m = random_model(5, 3, 1, seed=1)
    rng = np.random.default_rng(0)
    phi = random_deterministic_policy(m, rng)
    ctx = make_context(m, phi, phi)
    q_phi = occupancy(m, phi, tol=1e-12).state_marginal().coarsened_to(m.grid)
    assert total_variation(ctx.q, q_phi) <= 1e-10


def test_context_one_step_occupancy_is_initial():
    m, phi0, phi1 = unit_interval_pair()
    ctx = make_context(m, phi0, phi1)
    assert total_variation(ctx.q, m.initial) <= 1e-12


def test_context_mass_bounded_by_certificate():
    m = random_model(6, 3, 2, seed=9)
    rng = np.random.default_rng(4)
    ctx = make_context(m, random_deterministic_policy(m, rng),
                       random_deterministic_policy(m, rng))
    assert ctx.q.total <= m.certificate().L + 1e-9


# ---------------------------------------------------------------------------
# path_policy
# ---------------------------------------------------------------------------

def test_path_alpha_zero_is_phi0():
    m, phi0, phi1 = unit_interval_pair()
    ctx = make_context(m, phi0, phi1)
    assert path_policy(ctx, 0.0) == phi0


def test_path_alpha_one_matches_phi1_performance():
    m = random_model(6, 2, 2, seed=12)
    rng = np.random.default_rng(5)
    phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
    ctx = make_context(m, phi0, phi1)
    v_path = performance(m, path_policy(ctx, 1.0), tol=1e-12)
    v_phi1 = performance(m, phi1, tol=1e-12)
    assert np.linalg.norm(v_path - v_phi1) <= 1e-10


def test_path_threshold_interpolates_one_step():
    m, phi0, phi1 = unit_interval_pair()
    ctx = make_context(m, phi0, phi1)
    phi = path_policy(ctx, 0.3)
    assert performance(m, phi)[0] == pytest.approx(0.3, abs=1e-12)


def test_path_exact_fraction_law():
    m = random_model(7, 3, 2, seed=3)
    rng = np.random.default_rng(7)
    phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
    ctx = make_context(m, phi0, phi1)
    for alpha in (0.0, 0.17, 0.5, 0.93, 1.0):
        t = ctx.threshold(alpha)
        assert ctx.q.mass_below(t) == pytest.approx(alpha * ctx.q.total, abs=1e-12)


def test_path_rejects_bad_alpha():
    m, phi0, phi1 = unit_interval_pair()
    ctx = make_context(m, phi0, phi1)
    with pytest.raises(ValueError):
        path_policy(ctx, 1.5)


def path_contexts():
    """12 seeded contexts: absorbing two-criterion, discounted then
    transformed, and one-step models, four of each."""
    from tests.test_scalar_dp import onestep_model, seeded_discounted

    rng = np.random.default_rng(31)
    for seed in range(4):
        for m in (random_model(int(rng.integers(4, 8)), 3, 2, seed=1200 + seed),
                  seeded_discounted(1300 + seed), onestep_model(1400 + seed)):
            phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
            yield m, make_context(m, phi0, phi1)


def test_path_value_is_the_path_policy_evaluation():
    # the bisection's step evaluates w(alpha) without building a policy; it
    # must be the evaluation of the policy path_policy would build
    near_breakpoint = 0
    for m, ctx in path_contexts():
        alphas = [0.0, 1.0, *np.linspace(0.0, 1.0, 23)[1:-1]]
        for p in ctx.pair.partition.points[1:-1]:
            # the threshold lands within MERGE_TOL of an existing breakpoint,
            # so the split adds none
            alpha = min(1.0, ctx.q.cdf(p) / ctx.q.total)
            if abs(ctx.threshold(alpha) - p) <= MERGE_TOL:
                assert ctx.pair.partition.with_point(ctx.threshold(alpha)) is ctx.pair.partition
                alphas.append(alpha)
                near_breakpoint += 1
        for alpha in alphas:
            w, v, bound = path_value(ctx, alpha)
            phi = path_policy(ctx, alpha)
            assert np.array_equal(w, cell_action_weights(m, phi)), alpha
            ref = performance(m, phi, tol=1e-12)
            assert np.all(np.abs(v - ref) <= 1e-12 * (1.0 + np.abs(v))), alpha
            assert 0.0 <= bound <= 1e-12 * np.abs(m.rewards).max()
    assert near_breakpoint >= 12


@pytest.mark.parametrize("beta", [0.99, 0.995])
def test_long_lifetime_context_path_and_pipeline(beta):
    # expected lifetimes of 100 and 200: the context's q, every path step and
    # the one-criterion pipeline stay certified at the evaluator's 1e-12
    from tests.test_scalar_dp import seeded_discounted

    rng = np.random.default_rng(41)
    for seed in range(4):
        m = seeded_discounted(1500 + seed, beta)
        phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
        ctx = make_context(m, phi0, phi1)
        for alpha in np.linspace(0.0, 1.0, 7):
            _, v, bound = path_value(ctx, alpha)
            ref = performance(m, path_policy(ctx, alpha), tol=1e-12)
            assert np.all(np.abs(v - ref) <= 1e-12 * (1.0 + np.abs(v))), alpha
            assert 0.0 <= bound <= 1e-12 * np.abs(m.rewards).max()

        one = seeded_discounted(1500 + seed, beta, criteria=1)
        phi0, phi1 = random_deterministic_policy(one, rng), random_deterministic_policy(one, rng)
        lam = float(rng.uniform(0.2, 0.8))
        phi, cert = mix_pair(one, phi0, phi1, lam, tol=1e-6)
        target = (lam * performance(one, phi0, tol=1e-12)
                  + (1 - lam) * performance(one, phi1, tol=1e-12))
        assert np.linalg.norm(performance(one, phi, tol=1e-12) - target) <= 1e-6
        assert cert.error <= 1e-6
        pi = random_stationary_policy(one, rng)
        phi, _ = derandomize(one, pi, tol=1e-6)
        assert isinstance(phi, DeterministicPolicy)
        assert np.linalg.norm(performance(one, phi, tol=1e-12)
                              - performance(one, pi, tol=1e-12)) <= 1e-6


# ---------------------------------------------------------------------------
# tv_modulus
# ---------------------------------------------------------------------------

def test_tv_modulus_zero_delta_vanishes():
    m, phi0, phi1 = unit_interval_pair()
    ctx = make_context(m, phi0, phi1)
    assert tv_modulus(ctx, 0.0) <= 1e-12


def test_tv_modulus_closed_form_beta_half():
    # one-cell transform: tail(l) = 2^(1-l), q(X) = 2
    m = discounted_to_absorbing(one_cell_discounted(0.5))
    phi = DeterministicPolicy(m.grid, [0])
    ctx = make_context(m, phi, phi)
    for delta in (1e-6, 1e-4, 1e-2):
        expected = min(
            2.0 * (2.0 ** (1 - level) + (2.0**level) * 2.0 * delta) for level in range(0, 60)
        )
        assert tv_modulus(ctx, delta) == pytest.approx(expected, rel=1e-12)


def test_tv_modulus_reads_only_the_profile_it_needs():
    # the modulus equals the minimum over every cut up to 64 steps past the
    # whole survival profile's end, while computing the profile only as far
    # as the cuts it tries
    for seed in range(3):
        for delta in (0.0, 1e-12, 1e-6, 0.05, 0.5):
            m = random_model(8, 3, 2, seed=120 + seed)
            rng = np.random.default_rng(seed)
            ctx = make_context(m, random_deterministic_policy(m, rng),
                               random_deterministic_policy(m, rng))
            value = tv_modulus(ctx, delta)
            partial = len(m.certificate().profile_through(-1))
            cert = m.certificate()
            best = np.inf
            for level in range(cert.survival.size + 64):
                grow = (2.0**level) * ctx.q.total * delta
                if grow >= best:
                    break
                best = min(best, 2.0 * (cert.tail(level) + grow))
            assert np.float64(value).tobytes() == np.float64(best).tobytes(), (seed, delta)
            if delta >= 1e-6:
                assert partial < cert.survival.size


def test_tv_modulus_dominates_measured_tv():
    m = random_model(6, 2, 2, seed=21)
    rng = np.random.default_rng(11)
    phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
    ctx = make_context(m, phi0, phi1)
    for _ in range(50):
        alpha = float(rng.uniform(0, 1))
        delta = float(rng.uniform(0, 1 - alpha))
        q_a = occupancy(m, path_policy(ctx, alpha), tol=1e-12)
        q_b = occupancy(m, path_policy(ctx, alpha + delta), tol=1e-12)
        measured = occupancy_total_variation(q_a, q_b)
        assert measured <= tv_modulus(ctx, delta) + 1e-9


# ---------------------------------------------------------------------------
# distance to performance set
# ---------------------------------------------------------------------------

def test_distance_membership_of_achieved_vector():
    m = random_model(6, 3, 2, seed=31)
    rng = np.random.default_rng(2)
    phi = random_deterministic_policy(m, rng)
    res = distance_to_performance_set(SubmodelSpec.full(m), performance(m, phi), tol=1e-9)
    assert res.g <= 1e-9


def test_distance_one_dimensional_margin():
    m = builtin("unit-interval-onestep")
    from atomless_mdp.scalar_dp import support

    h, _, _ = support(m, np.array([1.0]))
    margin = 0.25
    res = distance_to_performance_set(SubmodelSpec.full(m),
                                      np.array([h + margin]), tol=1e-10)
    assert res.g == pytest.approx(margin, abs=1e-8)


def test_distance_matches_dense_hull_oracle():
    # 2-criteria: compare against the distance to a densely sampled vertex hull
    m = random_model(5, 3, 2, seed=41)
    rng = np.random.default_rng(3)
    from atomless_mdp.scalar_dp import support

    verts = []
    for theta in np.linspace(0, 2 * np.pi, 720, endpoint=False):
        _, phi, _ = support(m, np.array([np.cos(theta), np.sin(theta)]))
        verts.append(performance(m, phi, tol=1e-12))
    verts = np.unique(np.round(np.array(verts), 12), axis=0)

    # independent exact distance to the polygon via edge projections
    from scipy.spatial import ConvexHull

    hull = ConvexHull(verts)
    poly = verts[hull.vertices]

    def dist_to_polygon(p):
        best = np.inf
        k = len(poly)
        for i in range(k):
            a, b = poly[i], poly[(i + 1) % k]
            ab = b - a
            t = np.clip((p - a) @ ab / (ab @ ab), 0.0, 1.0)
            best = min(best, float(np.linalg.norm(p - (a + t * ab))))
        return best

    for _ in range(8):
        target = verts.mean(axis=0) + rng.normal(size=2) * 3.0
        res = distance_to_performance_set(SubmodelSpec.full(m), target, tol=1e-8)
        # the weights are the min-norm combination of the vertices
        weights, vectors = res.weights, np.array([v for _, v in res.vertices])
        assert np.all(weights >= 0.0) and abs(weights.sum() - 1.0) <= 1e-12
        assert np.allclose(weights @ vectors, res.projection, rtol=0.0, atol=1e-12)
        oracle = dist_to_polygon(target)
        if oracle == 0.0:
            continue
        assert res.g == pytest.approx(oracle, abs=1e-4)


def test_distance_direction_attains_lower(monkeypatch):
    # an "outside" answer's direction is the one whose support call gave the
    # lower bound, so it separates the target from the set by that much; in
    # the pool-seeded membership tests of derandomize on small
    # three-criterion models the last queried direction is often weaker
    module = importlib.import_module("atomless_mdp.derandomize")
    original = module._membership
    answers = []

    def recording(sub, target, tol, active, pool, alpha):
        ok, res = original(sub, target, tol, active, pool, alpha)
        if not ok and res.lower > 0.0:
            answers.append((sub, np.asarray(target), active, res))
        return ok, res

    monkeypatch.setattr(module, "_membership", recording)
    for s in range(2, 7):
        rng = np.random.default_rng(200 + s)
        m = random_model(int(rng.integers(2, 9)), int(rng.integers(2, 4)), 3, seed=7000 + s)
        derandomize(m, random_stationary_policy(m, rng), tol=1e-6)
    assert len(answers) >= 100
    for sub, target, active, res in answers:
        b = np.zeros(target.size)
        b[list(active)] = res.direction
        h, _, _ = support(sub, b)
        scale = 1.0 + abs(h) + float(np.abs(target).max())
        assert h <= float(b @ target) - res.lower + 1e-15 * scale


# ---------------------------------------------------------------------------
# alpha_hat
# ---------------------------------------------------------------------------

def test_alpha_hat_at_phi1_is_one():
    m = random_model(5, 2, 2, seed=8)
    rng = np.random.default_rng(6)
    phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
    ctx = make_context(m, phi0, phi1)
    v1 = performance(m, phi1, tol=1e-12)
    assert alpha_hat(ctx, v1, tol=1e-7) == 1.0


def test_alpha_hat_midpoint_one_step():
    m, phi0, phi1 = unit_interval_pair()
    ctx = make_context(m, phi0, phi1)
    v = 0.5 * performance(m, phi0) + 0.5 * performance(m, phi1)
    a = alpha_hat(ctx, v, tol=1e-9)
    assert a == pytest.approx(0.5, abs=1e-6)


def test_alpha_hat_exposed_endpoint_zero():
    # targeting v(phi0) = 0 on the unit-interval model: any frozen mass forces
    # the first coordinate strictly above 0, so alpha_hat must stay at 0
    m, phi0, phi1 = unit_interval_pair()
    ctx = make_context(m, phi0, phi1)
    v0 = performance(m, phi0, tol=1e-12)
    a = alpha_hat(ctx, v0, tol=1e-9)
    assert a <= 1e-6


def test_alpha_hat_rejects_outside_target():
    m, phi0, phi1 = unit_interval_pair()
    ctx = make_context(m, phi0, phi1)
    with pytest.raises(CertifiedFailure):
        alpha_hat(ctx, np.array([5.0]), tol=1e-9)


def test_alpha_hat_evaluates_no_vertex_through_occupancy(monkeypatch):
    # vertex vectors come from the support oracle, so the bisection's
    # membership tests never run the occupancy series
    module = importlib.import_module("atomless_mdp.derandomize")
    m = random_model(5, 2, 2, seed=50)
    rng = np.random.default_rng(9)
    phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
    ctx = make_context(m, phi0, phi1)
    v = 0.4 * performance(m, phi0, tol=1e-12) + 0.6 * performance(m, phi1, tol=1e-12)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return performance(*args, **kwargs)

    monkeypatch.setattr(module, "performance", counting)
    a = alpha_hat(ctx, v, tol=1e-7)
    assert 0.0 < a < 1.0
    assert calls == []


def count_calls(monkeypatch, *methods):
    """Count calls of each (class, method name) pair by name."""
    calls = Counter()
    for owner, name in methods:
        def counting(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)
    return calls


def test_trusted_submodels_skip_revalidation(monkeypatch):
    # frozen and conserving submodels reuse their checked parent's owner,
    # shares and mask: no nesting test, owner lookup or availability check
    m = random_model(5, 2, 2, seed=50)
    rng = np.random.default_rng(9)
    phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
    ctx = make_context(m, phi0, phi1)
    v = 0.4 * performance(m, phi0, tol=1e-12) + 0.6 * performance(m, phi1, tol=1e-12)
    frozen = ctx.submodel_at(0.3)
    b = np.array([0.6, -0.8])
    vf, _, _ = value_iteration(frozen, b)
    calls = count_calls(monkeypatch, (StatePartition, "refines"),
                        (StatePartition, "index_map_from"), (SubmodelSpec, "__init__"),
                        (type(ctx), "submodel_at"))
    a = alpha_hat(ctx, v, tol=1e-7)
    kept = conserving_submodel(frozen, b, vf, 1e-8)
    assert 0.0 < a < 1.0 and calls.pop("submodel_at") > 3
    assert calls == Counter()
    assert np.array_equal(kept.owner, frozen.owner) and np.array_equal(kept.frac, frozen.frac)
    assert not (kept.allowed & ~frozen.allowed).any()
    # a policy is put on its joint refinement with the base grid once per call
    calls = count_calls(monkeypatch, (StatePartition, "refine"))
    pi = random_stationary_policy(m, rng)
    for evaluate in (occupancy, performance, cell_action_weights):
        calls.clear()
        evaluate(m, pi)
        assert calls["refine"] == 1, evaluate.__name__


@pytest.mark.parametrize("criteria", [2, 3])
def test_realize_builds_no_checked_objects(monkeypatch, criteria):
    # mix_pair checks each policy once, in the evaluation that gives its
    # vector; every level of the recursion below derives its pair from
    # checked arrays, so no policy is checked or refined and no submodel
    # goes through the checking constructor
    module = importlib.import_module("atomless_mdp.derandomize")
    model_module = importlib.import_module("atomless_mdp.model")
    calls = count_calls(monkeypatch, (module, "validate_policy"), (module, "make_context"),
                        (SubmodelSpec, "__init__"), (SubmodelSpec, "from_pair"),
                        (DeterministicPolicy, "refined_to"))
    joined, on_joint = [], model_module._on_joint

    def recording(model, policy):
        joined.append(policy)
        return on_joint(model, policy)

    monkeypatch.setattr(model_module, "_on_joint", recording)
    inside = Counter()
    original = module._realize

    def realize(*args, **kwargs):
        if len(args) >= 8:                  # a deeper level of the same call
            return original(*args, **kwargs)
        before = calls.copy()
        phi = original(*args, **kwargs)
        inside.update(calls - before)
        return phi

    monkeypatch.setattr(module, "_realize", realize)
    rng = np.random.default_rng(40 + criteria)
    depths, bisected = [], 0
    for seed in range(3):
        m = random_model(6, 3, criteria, seed=1700 + 10 * criteria + seed)
        phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
        joined.clear()
        _, cert = mix_pair(m, phi0, phi1, float(rng.uniform(0.2, 0.8)), tol=1e-6)
        assert sum(p is phi0 for p in joined) == sum(p is phi1 for p in joined) == 1, seed
        depths.append(sum(e["kind"] == "reduce" for e in cert.trace))
        bisected += any(e["kind"] == "scalar" and e["iters"] > 0 for e in cert.trace)
    assert min(depths) >= 1 and max(depths) == criteria - 1 and bisected > 0
    assert calls["validate_policy"] == 0 and calls["__init__"] > 0
    assert inside == Counter()


def test_public_entries_reject_bad_policies():
    # checks happen at the public entry points, each with its typed error
    grid = StatePartition([0.0, 0.5, 1.0])
    rewards = np.arange(8.0).reshape(2, 2, 2)
    m = AtomlessMDP(grid, 2, [(0,), (0, 1)], np.zeros((2, 2, 2)), np.ones((2, 2)),
                    rewards, PieceMeasure(grid, [0.5, 0.5]))
    good = DeterministicPolicy(grid, [0, 1])
    unavailable = DeterministicPolicy(grid, [1, 0])               # action 1 in cell 0
    straddling = DeterministicPolicy(StatePartition([0.0, 1.0]), [1])
    for bad, error in ((unavailable, ModelFormatError), (straddling, PartitionMismatchError)):
        for phi in (bad, bad.to_stationary(2)):
            for evaluate in (occupancy, performance, cell_action_weights):
                with pytest.raises(error):
                    evaluate(m, phi)
        for call in (lambda: make_context(m, bad, good), lambda: make_context(m, good, bad),
                     lambda: mix_pair(m, good, bad, 0.5), lambda: mix_pair(m, bad, good, 1.0)):
            with pytest.raises(error):
                call()
    # an action out of range is bad input too, not an IndexError or a wrapped index
    for acts in ([0, 2], [0, -1]):
        for evaluate in (occupancy, performance, cell_action_weights, validate_policy):
            with pytest.raises(ModelFormatError, match=rf"unavailable action {acts[1]} in cell 1"):
                evaluate(m, DeterministicPolicy(grid, acts))
    for bad in (unavailable, straddling):
        with pytest.raises(ValueError, match="not all available"):
            SubmodelSpec.from_pair(m, bad, good)
    with pytest.raises(ValueError, match="^interval 0: empty allowed set"):
        SubmodelSpec(m, grid, [[False, False], [True, True]])
    with pytest.raises(ValueError, match="^interval 0: actions"):
        SubmodelSpec(m, grid, [[True, True], [True, True]])
    full = SubmodelSpec.full(m)
    assert np.array_equal(full.allowed, m.available_mask())
    assert np.array_equal(SubmodelSpec.from_pair(m, good, good).allowed, [[1, 0], [0, 1]])


def test_alpha_hat_monotone_distance_profile():
    m = random_model(5, 2, 2, seed=50)
    rng = np.random.default_rng(9)
    phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
    ctx = make_context(m, phi0, phi1)
    v = 0.4 * performance(m, phi0, tol=1e-12) + 0.6 * performance(m, phi1, tol=1e-12)
    tol = 1e-8
    values = []
    for alpha in np.arange(0.0, 1.0001, 0.01):
        res = distance_to_performance_set(ctx.submodel_at(min(alpha, 1.0)), v, tol=tol)
        values.append(res.g)
    for a, b in zip(values, values[1:]):
        assert b >= a - 2 * tol


def test_alpha_hat_stop_is_certified(monkeypatch):
    # at the returned alpha the membership test said "inside" (gap >= -tol)
    # and one support call in the returned direction puts the target on or
    # beyond the supporting hyperplane (gap <= 0), without a fixed resolution
    module = importlib.import_module("atomless_mdp.derandomize")
    original = module._membership
    answers = []

    def recording(sub, target, tol, active, pool, alpha):
        ok, res = original(sub, target, tol, active, pool, alpha)
        answers.append((alpha, ok))
        return ok, res

    monkeypatch.setattr(module, "_membership", recording)
    tol = 1e-7
    interior = 0
    for seed in range(12):
        m = random_model(6, 3, 2, seed=460 + seed)
        rng = np.random.default_rng(seed)
        phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
        ctx = make_context(m, phi0, phi1)
        lam = float(rng.uniform(0.2, 0.8))
        v = lam * performance(m, phi0, tol=1e-12) + (1.0 - lam) * performance(m, phi1, tol=1e-12)
        stop = {}
        start = len(answers)
        a = alpha_hat(ctx, v, tol=tol, certificate=stop)
        assert (a, True) in answers[start:], seed
        if a == 1.0:
            continue
        interior += 1
        b = stop["direction"]
        h, _, _ = support(ctx.submodel_at(a), b)
        scale = 1.0 + abs(h) + float(np.abs(v).max())
        assert h <= float(b @ v) + 1e-15 * scale, seed
    assert interior >= 10
    assert len(answers) / 12 <= 30


def test_alpha_hat_membership_tests_per_call(monkeypatch):
    # the witness face's root ends most searches after a few "outside"
    # answers, and the root solve settles most other steps by one support
    # call, so on the contexts above alpha_hat averages at most 6 membership
    # tests, the two endpoint tests included, and 25 support calls; its
    # certificate counts both
    module = importlib.import_module("atomless_mdp.derandomize")
    original = module._membership
    tests = [0]

    def counting(*args, **kwargs):
        tests[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "_membership", counting)
    per_call, support_calls, face_steps = [], [], []
    for seed in range(12):
        m = random_model(6, 3, 2, seed=460 + seed)
        rng = np.random.default_rng(seed)
        phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
        ctx = make_context(m, phi0, phi1)
        lam = float(rng.uniform(0.2, 0.8))
        v = lam * performance(m, phi0, tol=1e-12) + (1.0 - lam) * performance(m, phi1, tol=1e-12)
        stop = {}
        tests[0] = 0
        alpha_hat(ctx, v, tol=1e-7, certificate=stop)
        assert stop["membership_tests"] == tests[0], seed
        assert stop["support_calls"] >= tests[0] - 2, seed
        per_call.append(tests[0])
        support_calls.append(stop["support_calls"])
        face_steps.append(stop["face_steps"])
    assert np.mean(per_call) <= 6
    assert np.mean(support_calls) <= 25
    assert sum(face_steps) > 0


def test_alpha_hat_raises_on_a_collapsed_bracket(monkeypatch):
    # above the fraction alpha_hat returns, every membership test is made to
    # answer "outside" with a positive lower bound in a direction that does
    # not separate, so every root-solve step moves the bracket's low end
    # without a membership test until the bracket is two adjacent floats;
    # the search raises there and never returns its last "inside" fraction
    module = importlib.import_module("atomless_mdp.derandomize")
    m = random_model(6, 3, 2, seed=1731)
    rng = np.random.default_rng(5)
    phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
    _, cert = mix_pair(m, phi0, phi1, 0.4, tol=1e-6)
    (entry,) = [e for e in cert.trace if e["kind"] == "reduce"]
    cut, original, search = entry["alpha_hat"], module._membership, module.alpha_hat
    first, returned = [], []

    def forcing(sub, target, tol, active, pool, alpha):
        ok, res = original(sub, target, tol, active, pool, alpha)
        if alpha <= cut:
            return ok, res
        first.append(res.direction)
        # -b is where the target lies inside: h(-b) - <-b, t> > 0
        return False, DistanceResult(res.g, tol, [], -first[0], res.projection, res.vertices)

    def recording(*args, **kwargs):
        returned.append(search(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(module, "_membership", forcing)
    monkeypatch.setattr(module, "alpha_hat", recording)
    with pytest.raises(CertifiedFailure, match="collapsed") as failure:
        mix_pair(m, phi0, phi1, 0.4, tol=1e-6)
    assert failure.value.residual > 0.0
    assert len(first) == 1 and returned == []


def test_alpha_hat_work_counts_are_recorded():
    # each reduction level records its search's membership tests and support
    # calls; the search is deterministic, so a repeated mix repeats them
    def counts():
        m = random_model(6, 3, 3, seed=1731)
        rng = np.random.default_rng(5)
        phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
        _, cert = mix_pair(m, phi0, phi1, 0.4, tol=1e-6)
        return [(e["membership_tests"], e["support_calls"])
                for e in cert.trace if e["kind"] == "reduce"]

    first = counts()
    assert len(first) == 2 and all(tests >= 3 and calls >= 1 for tests, calls in first)
    assert counts() == first


def test_alpha_hat_decides_alpha_zero_from_the_path_ends(monkeypatch):
    # the path's two ends are policies of V(0), and at the top level of a
    # two-criterion mix the target lies on their segment, so the alpha = 0
    # membership test says "inside" without a support call
    module = importlib.import_module("atomless_mdp.derandomize")
    member, oracle = module._membership, module.support
    at_zero, answers, calls = [False], [], [0]

    def recording(sub, target, tol, active, pool, alpha):
        at_zero[0] = alpha == 0.0
        ok, res = member(sub, target, tol, active, pool, alpha)
        at_zero[0] = False
        if alpha == 0.0:
            answers.append(ok)
        return ok, res

    def counting(*args, **kwargs):
        calls[0] += at_zero[0]
        return oracle(*args, **kwargs)

    monkeypatch.setattr(module, "_membership", recording)
    monkeypatch.setattr(module, "support", counting)
    rng = np.random.default_rng(23)
    for seed in range(6):
        m = random_model(6, 3, 2, seed=1900 + seed)
        phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
        mix_pair(m, phi0, phi1, float(rng.uniform(0.2, 0.8)), tol=1e-6)
    assert len(answers) >= 5 and all(answers)
    assert calls[0] == 0


def test_realize_keeps_the_stopping_submodel(monkeypatch):
    # the reduce step finds its direction, solves and prunes on the submodel
    # of alpha_hat's stopping "inside" test; it builds no second submodel at
    # the returned fraction
    module = importlib.import_module("atomless_mdp.derandomize")
    member, search, solve = module._membership, module.alpha_hat, module.value_iteration
    frozen_at = module.TwoPolicyContext.submodel_at
    events = []

    def recording(sub, target, tol, active, pool, alpha):
        ok, res = member(sub, target, tol, active, pool, alpha)
        events.append(("inside" if ok else "outside", sub, alpha))
        return ok, res

    def stopping(ctx, target, tol=1e-7, active=None, *, certificate=None):
        a = search(ctx, target, tol=tol, active=active, certificate=certificate)
        events.append(("stop", ctx, a))
        return a

    def submodel_at(ctx, alpha):
        events.append(("submodel_at", ctx, alpha))
        return frozen_at(ctx, alpha)

    def value_iteration(sub, *args, **kwargs):
        events.append(("value_iteration", sub, None))
        return solve(sub, *args, **kwargs)

    monkeypatch.setattr(module, "_membership", recording)
    monkeypatch.setattr(module, "alpha_hat", stopping)
    monkeypatch.setattr(module.TwoPolicyContext, "submodel_at", submodel_at)
    monkeypatch.setattr(module, "value_iteration", value_iteration)
    rng = np.random.default_rng(29)
    for seed in range(4):
        m = random_model(6, 3, 2 + seed % 2, seed=1950 + seed)
        phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
        mix_pair(m, phi0, phi1, float(rng.uniform(0.2, 0.8)), tol=1e-6)
    stops = [k for k, (kind, _, a) in enumerate(events) if kind == "stop" and a < 1.0]
    assert len(stops) >= 5
    for k in stops:
        _, ctx, a = events[k]
        inside = [sub for kind, sub, alpha in events[:k] if kind == "inside" and alpha == a]
        after = events[k + 1:]
        solved = next(sub for kind, sub, _ in after if kind == "value_iteration")
        assert solved is inside[-1]
        assert ("submodel_at", ctx, a) not in after


def test_membership_decision_matches_full_iteration(monkeypatch):
    # with a decision level the iteration stops at the first bound that
    # settles d <= tol; without seeds it is a prefix of the full iteration,
    # so it gives the same bit, and over the grid it makes fewer support calls
    module = importlib.import_module("atomless_mdp.derandomize")
    original = module.support
    calls = [0]

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "support", counting)
    tol = 1e-7
    full_calls = decided_calls = 0
    bits = set()
    for seed in range(12):
        m = random_model(6, 3, 2, seed=460 + seed)
        rng = np.random.default_rng(seed)
        phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
        ctx = make_context(m, phi0, phi1)
        lam = float(rng.uniform(0.2, 0.8))
        v = lam * performance(m, phi0, tol=1e-12) + (1.0 - lam) * performance(m, phi1, tol=1e-12)
        # a grid, and a ladder above alpha_hat where the distance crosses tol
        a_star = alpha_hat(ctx, v, tol=tol)
        ladder = np.minimum(a_star + 10.0 ** np.arange(-9.0, -3.0), 1.0)
        for alpha in np.concatenate((np.linspace(0.0, 1.0, 21), ladder)):
            sub = ctx.submodel_at(float(alpha))
            calls[0] = 0
            full = distance_to_performance_set(sub, v, tol=0.25 * tol)
            full_calls += calls[0]
            calls[0] = 0
            res = distance_to_performance_set(sub, v, tol=0.25 * tol, decide=tol)
            decided_calls += calls[0]
            assert (res.g <= tol) == (full.g <= tol), (seed, alpha)
            if res.g > tol:
                assert res.lower > tol or res.g - res.lower <= 0.25 * tol, (seed, alpha)
            bits.add(bool(res.g <= tol))
    assert bits == {True, False}
    assert decided_calls < full_calls


# ---------------------------------------------------------------------------
# the Illinois root solve
# ---------------------------------------------------------------------------

ROOT_CASES = {
    # exactly flat: bitwise-equal values over [0, 0.95), where a plain
    # secant step stalls
    "flat": lambda x: -0.5 if x < 0.95 else 40.0 * (x - 0.9625),
    # flat at -1e-4, then a slope: the secant creeps along the flat part
    # until the halved end value brings it across
    "hockey-stick": lambda x: -1e-4 + 10.0 * max(0.0, x - 0.2),
    # no value within tol of 0: the solve runs until the bracket is narrow
    "step": lambda x: -1.0 if x < 1.0 / 3.0 else 1.0,
    # one sign change, at 0.3, with the slope changing sign around it
    "non-monotone": lambda x: (x - 0.3) * (1.0 + 0.9 * np.sin(25.0 * x)),
}


def bisection_steps(f, tol):
    a, b = 0.0, 1.0
    for k in range(1, 200):
        x = 0.5 * (a + b)
        if abs(f(x)) <= tol:
            return k
        a, b = (x, b) if f(x) < 0.0 else (a, x)
    raise AssertionError("bisection did not stop")


@pytest.mark.parametrize("name", ROOT_CASES)
@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_illinois_keeps_a_sign_change_within_twice_bisection(name, tol):
    # the secant steps that alpha_hat and the witness face take: every step
    # lands strictly inside the bracket and keeps f(a) < 0 <= f(b), with the
    # stored end values of f's signs, and the solve stops with |f(x)| <= tol
    # or the bracket under 1e-12 wide
    f = ROOT_CASES[name]
    module = importlib.import_module("atomless_mdp.derandomize")
    bracket = module._Illinois(0.0, f(0.0), 1.0, f(1.0))
    for k in range(1, 200):
        x = bracket.secant()
        assert bracket.a < x < bracket.b
        if abs(f(x)) <= tol:
            break
        bracket.move(x, f(x))
        assert f(bracket.a) < 0.0 <= f(bracket.b), (k, bracket.a, bracket.b)
        assert (bracket.f_a < 0.0) == (f(bracket.a) < 0.0)
        assert (bracket.f_b < 0.0) == (f(bracket.b) < 0.0)
        if bracket.b - bracket.a <= 1e-12:
            break
    assert abs(f(x)) <= tol or bracket.b - bracket.a <= 1e-12, k


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
def test_illinois_beats_bisection_on_a_smooth_function(tol):
    # on a smooth concave f the secant approaches the root from one side; the
    # halving of the end kept twice running brings it across, so the solve
    # takes a third of bisection's steps or fewer
    def f(x):
        return np.log1p(9.0 * x) - 1.0

    module = importlib.import_module("atomless_mdp.derandomize")
    bracket = module._Illinois(0.0, f(0.0), 1.0, f(1.0))
    for k in range(1, 200):
        x = bracket.secant()
        if abs(f(x)) <= tol:
            break
        bracket.move(x, f(x))
    assert 3 * k <= bisection_steps(f, tol), k


# ---------------------------------------------------------------------------
# supporting directions
# ---------------------------------------------------------------------------

def test_polish_starts_from_the_stopping_witness():
    # the reduce direction comes from one distance iteration, seeded with
    # the witness of alpha_hat's stopping test, from the target pushed out
    # of V(alpha_hat) along alpha_hat's direction; on these mixes it
    # certifies the normal after one support call per reduce level
    rng = np.random.default_rng(31)
    calls = []
    for seed in range(8):
        m = random_model(6, 3, 2 + seed % 2, seed=2100 + seed)
        phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
        _, cert = mix_pair(m, phi0, phi1, float(rng.uniform(0.2, 0.8)), tol=1e-6)
        assert cert.error <= 1e-6
        calls += [e["polish_calls"] for e in cert.trace if e["kind"] == "reduce"]
    assert len(calls) >= 8
    assert np.mean(calls) <= 1.5


@pytest.mark.parametrize("criteria", [2, 3, 4, 5])
def test_reduce_direction_supports_the_frozen_set(criteria):
    # every reduce level's direction b has h(b) - <b, target> in
    # [-member_tol, 0] up to rounding, on V(alpha_hat): the target lies on
    # the supporting hyperplane's side within the tolerance the conserving
    # actions' Q-gap eta = 4 member_tol allows
    rng = np.random.default_rng(40 + criteria)
    ratios = []
    for seed in range(3):
        m = random_model(6, 3, criteria, seed=2300 + 10 * criteria + seed)
        _, cert = derandomize(m, random_stationary_policy(m, rng), tol=1e-6)
        ratios += [4.0 * e["support_gap"] / e["eta"] for e in cert.trace
                   if e["kind"] == "reduce"]
    assert len(ratios) >= 3 * (criteria - 1)
    assert min(ratios) >= -1.0 and max(ratios) <= 1e-6


# ---------------------------------------------------------------------------
# mix_pair
# ---------------------------------------------------------------------------

def test_mix_endpoints():
    m = random_model(5, 3, 2, seed=2)
    rng = np.random.default_rng(1)
    phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
    out0, cert0 = mix_pair(m, phi0, phi1, 1.0, tol=1e-8)
    assert out0 == phi0 and cert0.error == 0.0
    out1, cert1 = mix_pair(m, phi0, phi1, 0.0, tol=1e-8)
    assert out1 == phi1 and cert1.error == 0.0


def test_mix_degenerate_pair():
    m = random_model(4, 2, 2, seed=6)
    rng = np.random.default_rng(2)
    phi = random_deterministic_policy(m, rng)
    out, cert = mix_pair(m, phi, phi, 0.37, tol=1e-8)
    assert out == phi
    assert cert.error == 0.0


def test_mix_one_step_half():
    m, phi0, phi1 = unit_interval_pair()
    phi, cert = mix_pair(m, phi0, phi1, 0.5, tol=1e-9)
    assert performance(m, phi)[0] == pytest.approx(0.5, abs=1e-9)
    assert phi.partition.points.tolist() == pytest.approx([0.0, 0.5, 1.0])


def test_mix_random_two_criteria():
    m = random_model(6, 3, 2, seed=71)
    rng = np.random.default_rng(13)
    for _ in range(6):
        phi0 = random_deterministic_policy(m, rng)
        phi1 = random_deterministic_policy(m, rng)
        lam = float(rng.random())
        phi, cert = mix_pair(m, phi0, phi1, lam, tol=1e-5)
        target = lam * performance(m, phi0, tol=1e-12) + (1 - lam) * performance(m, phi1, tol=1e-12)
        assert np.linalg.norm(performance(m, phi, tol=1e-12) - target) <= 1e-5
        assert cert.error <= 1e-5


def count_realizations(monkeypatch):
    """Record the tolerance of every top-level ``_realize`` call (depth 0)."""
    module = importlib.import_module("atomless_mdp.derandomize")
    original = module._realize
    calls = []

    def counting(*args, **kwargs):
        if len(args) < 8 and "depth" not in kwargs:
            calls.append(args[5])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, "_realize", counting)
    return calls


@pytest.mark.parametrize("criteria", [2, 3])
def test_mix_pair_realizes_once(monkeypatch, criteria):
    # one realization at tol / (2N), verified by evaluation: no retry at a
    # tighter level and no pre-compensated second aim
    calls = count_realizations(monkeypatch)
    rng = np.random.default_rng(criteria)
    for seed in range(4):
        m = random_model(6, 3, criteria, seed=600 + 10 * criteria + seed)
        phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
        calls.clear()
        _, cert = mix_pair(m, phi0, phi1, float(rng.uniform(0.2, 0.8)), tol=1e-6)
        assert calls == [1e-6 / (2 * criteria)], seed
        assert cert.error <= 1e-6


def test_scalar_realization_evaluates_one_path_policy(monkeypatch):
    # the scalar step solves once, on cell weights, at the closed-form root;
    # only the accepted root is built as a policy, and the vector handed
    # back with it is its certified path value, bitwise what performance
    # returns for it, so performance never evaluates it again
    module = importlib.import_module("atomless_mdp.derandomize")
    evaluated, realized = [], []

    def counting(evaluate):
        def wrapper(model, policy, *args, **kwargs):
            if isinstance(policy, DeterministicPolicy):
                evaluated.append(policy)
            return evaluate(model, policy, *args, **kwargs)
        return wrapper

    original = module._realize_scalar

    def realize(*args, **kwargs):
        before = len(evaluated)
        phi, v = original(*args, **kwargs)
        realized.append((args[4][-1]["iters"], evaluated[before:], phi, v, args[0].model))
        return phi, v

    monkeypatch.setattr(module, "performance", counting(performance))
    monkeypatch.setattr(module, "occupancy", counting(occupancy), raising=False)
    monkeypatch.setattr(module, "_realize_scalar", realize)
    rng = np.random.default_rng(17)
    for seed in range(12):
        m = random_model(6, 3, 1 + seed % 2, seed=1500 + seed)
        phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
        mix_pair(m, phi0, phi1, float(rng.uniform(0.2, 0.8)), tol=1e-6)
    solved = [(evals, phi, v, m) for iters, evals, phi, v, m in realized if iters > 0]
    assert len(solved) >= 8 and all(iters == 1 for iters, *_ in realized if iters > 0)
    for evals, phi, v, m in solved:
        assert evals == []
        assert np.array_equal(v, performance(m, phi, tol=module.EVAL_TOL))


@pytest.mark.parametrize("proposal", ["none", "short"])
def test_root_solves_certify_without_the_closed_form_proposal(monkeypatch, proposal):
    # where _crossing proposes nothing, or a fraction short of the root it
    # found, alpha_hat falls back on Illinois steps, counts them and still
    # certifies its fraction: the target within tol of V(alpha_hat), and
    # h(b) - <b, target> in [-tol, 0] there; the scalar step has no fallback,
    # so the mix raises CertifiedFailure with a finite residual
    module = importlib.import_module("atomless_mdp.derandomize")
    original = module._crossing

    def crossing(*args, **kwargs):
        x = original(*args, **kwargs)
        return None if proposal == "none" or x is None else 0.5 * x

    monkeypatch.setattr(module, "_crossing", crossing)
    rng = np.random.default_rng(23)
    tol, fallback, interior = 1e-7, 0, 0
    for seed in range(6):
        m = random_model(6, 3, 2 + seed % 2, seed=1700 + seed)
        phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
        lam = float(rng.uniform(0.2, 0.8))
        v = lam * performance(m, phi0, tol=1e-12) + (1.0 - lam) * performance(m, phi1, tol=1e-12)
        ctx, stop = make_context(m, phi0, phi1), {}
        a = alpha_hat(ctx, v, tol=tol, certificate=stop)
        fallback += stop["fallback_steps"]
        if a < 1.0:
            interior += 1
            sub = ctx.submodel_at(a)
            assert distance_to_performance_set(sub, v, tol=0.25 * tol).g <= tol, seed
            h, _, _ = support(sub, stop["direction"])
            slack = 1e-15 * (1.0 + abs(h) + float(np.abs(v).max()))
            assert -tol - slack <= h - float(stop["direction"] @ v) <= slack, seed
        with pytest.raises(CertifiedFailure, match="scalar path root solve") as failure:
            mix_pair(m, phi0, phi1, lam, tol=1e-6)
        assert np.isfinite(failure.value.residual), seed
    assert fallback > 0 and interior >= 4


def test_no_submodel_solves_a_direction_twice(monkeypatch):
    # alpha_hat's membership tests query the direction its gap step just
    # solved, and the reduce step's value_iteration the separating direction
    # of its distance iteration: the submodel answers those from its kept
    # solves
    module = importlib.import_module("atomless_mdp.scalar_dp")
    original_solve, original_query = module._solve, module._policy_iteration
    solved, kept, queries = Counter(), [], [0]

    def solve(sub, direction, tol):
        kept.append(sub)          # hold it, so that no id is reused
        solved[id(sub), np.asarray(direction, dtype=float).tobytes()] += 1
        return original_solve(sub, direction, tol)

    def query(*args):
        queries[0] += 1
        return original_query(*args)

    monkeypatch.setattr(module, "_solve", solve)
    monkeypatch.setattr(module, "_policy_iteration", query)
    rng = np.random.default_rng(17)
    for seed in range(12):
        m = random_model(6, 3, 1 + seed % 2, seed=1500 + seed)
        phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
        mix_pair(m, phi0, phi1, float(rng.uniform(0.2, 0.8)), tol=1e-6)
    assert max(solved.values()) == 1
    assert queries[0] > sum(solved.values()) > 100


def test_scalar_root_solve_work_counts():
    # the scalar step's path solves, a count that does not depend on the
    # host's speed: the closed-form root is certified by at most one solve,
    # on the models above, on a three-criterion model and on a long-lived
    # discounted one (L = 500)
    rng = np.random.default_rng(17)
    models = [random_model(6, 3, 1 + seed % 2, seed=1500 + seed) for seed in range(6)]
    models += [random_model(6, 3, 3, seed=1502), seeded_discounted(2000, beta=0.998)]
    iters = []
    for m in models:
        phi0, phi1 = random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
        _, cert = mix_pair(m, phi0, phi1, float(rng.uniform(0.2, 0.8)), tol=1e-6)
        iters += [e["iters"] for e in cert.trace if e["kind"] == "scalar"]
        assert cert.summary()["path_solves"] == iters[-1]
    assert len(iters) == 8 and max(iters) <= 1 and sum(iters) >= 6


def test_mix_rejects_bad_lambda():
    m, phi0, phi1 = unit_interval_pair()
    with pytest.raises(ValueError):
        mix_pair(m, phi0, phi1, 1.5)


@pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0])
@pytest.mark.parametrize("entry", ["mix_pair", "caratheodory", "derandomize", "find_set"])
def test_entries_reject_bad_tolerances(entry, tol):
    # bad input, not a certified miss, and before any work: the entries on
    # a model compute no absorption certificate first
    from atomless_mdp.lyapunov import as_onestep_mdp, find_set
    from tests.test_lyapunov import random_vm

    vm = random_vm(4, 2, seed=2)
    m = as_onestep_mdp(vm)
    phi0, phi1 = DeterministicPolicy(m.grid, [0] * 4), DeterministicPolicy(m.grid, [1] * 4)
    pi = StationaryPolicy(m.grid, np.full((4, 2), 0.5))
    calls = {
        "mix_pair": lambda: mix_pair(m, phi0, phi1, 0.5, tol=tol),
        "caratheodory": lambda: caratheodory(m, pi, tol=tol),
        "derandomize": lambda: derandomize(m, pi, tol=tol),
        "find_set": lambda: find_set(vm, 0.5 * vm.total(), tol=tol),
    }
    with pytest.raises(ValueError, match="tol must be positive"):
        calls[entry]()
    assert m._certificate is None


# ---------------------------------------------------------------------------
# caratheodory
# ---------------------------------------------------------------------------

def test_caratheodory_deterministic_single_term():
    m = random_model(5, 3, 2, seed=14)
    rng = np.random.default_rng(3)
    phi = random_deterministic_policy(m, rng)
    terms = caratheodory(m, phi.to_stationary(m.action_count), tol=1e-8)
    assert len(terms) == 1
    assert terms[0][0] == 1.0
    assert terms[0][1] == phi


def test_caratheodory_rejects_invalid_deterministic_policies():
    m = random_model(6, 3, 2, seed=1)
    cell, action = np.argwhere(~m.available_mask())[0]
    unavailable = np.argmax(m.available_mask(), axis=1)
    unavailable[cell] = action
    for acts in ([7] * 6, unavailable):
        phi = DeterministicPolicy(m.grid, acts)
        for call in (caratheodory, derandomize):
            with pytest.raises(ModelFormatError, match="unavailable action"):
                call(m, phi)


def test_caratheodory_orthogonal_one_step():
    # two actions with orthogonal reward vectors; the half/half policy
    # decomposes uniquely with equal weights
    from atomless_mdp.measure import PieceMeasure
    from atomless_mdp.model import AtomlessMDP

    grid = StatePartition([0.0, 1.0])
    rewards = np.zeros((1, 2, 2))
    rewards[0, 0] = [1.0, 0.0]
    rewards[0, 1] = [0.0, 1.0]
    m = AtomlessMDP(grid, 2, [(0, 1)], np.zeros((1, 2, 1)), np.ones((1, 2)),
                    rewards, PieceMeasure.uniform())
    pi = StationaryPolicy(grid, [[0.5, 0.5]])
    terms = caratheodory(m, pi, tol=1e-9)
    weights = sorted(l for l, _ in terms)
    recomb = sum(l * performance(m, p, tol=1e-12) for l, p in terms)
    assert np.allclose(recomb, [0.5, 0.5], atol=1e-9)
    assert len(terms) == 2
    assert weights == pytest.approx([0.5, 0.5], abs=1e-9)


def test_caratheodory_recombination_random():
    rng = np.random.default_rng(8)
    for seed in range(6):
        m = random_model(6, 3, 2, seed=100 + seed)
        pi = random_stationary_policy(m, rng)
        terms = caratheodory(m, pi, tol=1e-7)
        assert len(terms) <= m.criteria + 1
        assert sum(l for l, _ in terms) == pytest.approx(1.0, abs=1e-12)
        recomb = sum(l * performance(m, p, tol=1e-12) for l, p in terms)
        target = performance(m, pi, tol=1e-12)
        assert np.linalg.norm(recomb - target) <= 1e-7


# ---------------------------------------------------------------------------
# derandomize
# ---------------------------------------------------------------------------

def test_derandomize_deterministic_unchanged():
    m = random_model(5, 3, 2, seed=23)
    rng = np.random.default_rng(5)
    phi = random_deterministic_policy(m, rng)
    out, cert = derandomize(m, phi, tol=1e-8)
    assert out is phi
    assert cert.error == 0.0


def test_derandomize_one_step_coin_flip():
    m = builtin("unit-interval-onestep")
    pi = StationaryPolicy(m.grid, [[0.5, 0.5]])
    phi, cert = derandomize(m, pi, tol=1e-8)
    assert performance(m, phi)[0] == pytest.approx(0.5, abs=1e-8)
    assert phi.partition.points.tolist() == pytest.approx([0.0, 0.5, 1.0])


def test_derandomize_random_three_criteria():
    rng = np.random.default_rng(17)
    for seed in range(4):
        m = random_model(8, 3, 3, seed=300 + seed)
        pi = random_stationary_policy(m, rng)
        phi, cert = derandomize(m, pi, tol=1e-5)
        v_pi = performance(m, pi, tol=1e-12)
        v_phi = performance(m, phi, tol=1e-12)
        assert np.linalg.norm(v_phi - v_pi) <= 1e-5
        assert isinstance(phi, DeterministicPolicy)


def test_derandomize_folds_checked_terms_once(monkeypatch):
    # derandomize checks pi once, in the evaluation that gives its target;
    # its terms are support vertices and its folds' outputs, so no fold
    # checks a term, and no policy goes through the check twice
    module = importlib.import_module("atomless_mdp.derandomize")
    model_module = importlib.import_module("atomless_mdp.model")
    calls = count_calls(monkeypatch, (module, "validate_policy"), (module, "_mix"))
    joined, on_joint = [], model_module._on_joint

    def recording(model, policy):
        joined.append(policy)             # kept alive, so ids stay distinct
        return on_joint(model, policy)

    monkeypatch.setattr(model_module, "_on_joint", recording)
    rng = np.random.default_rng(23)
    for seed in range(3):
        m = random_model(6, 3, 2, seed=1900 + seed)
        pi = random_stationary_policy(m, rng)
        calls.clear()
        joined.clear()
        _, cert = derandomize(m, pi, tol=1e-5)
        assert calls["_mix"] == cert.trace[0]["terms"] - 1 >= 1, seed
        assert calls["validate_policy"] == 0, seed
        assert sum(p is pi for p in joined) == 1, seed
        assert max(Counter(map(id, joined)).values()) == 1, seed


def test_derandomize_leaves_the_model_unchanged():
    # the pipeline carries each certified vector itself: calls with fresh
    # policies leave no per-policy state on the model
    m = random_model(8, 3, 2, seed=5)
    rng = np.random.default_rng(5)
    derandomize(m, random_stationary_policy(m, rng), tol=1e-5)
    state = pickle.dumps(m)
    for _ in range(4):
        derandomize(m, random_stationary_policy(m, rng), tol=1e-5)
    assert pickle.dumps(m) == state


def test_derandomize_summary_totals_the_work():
    # the certificate summary totals alpha_hat's membership tests and
    # support calls, the reduce directions' support calls and the scalar
    # path solves
    # over every fold; the search is deterministic, so a repeated run
    # repeats the totals
    def run():
        m = random_model(6, 3, 2, seed=1731)
        pi = random_stationary_policy(m, np.random.default_rng(8))
        _, cert = derandomize(m, pi, tol=1e-5)
        return cert

    cert = run()
    summary = cert.summary()
    reduce = [e for e in cert.trace if e["kind"] == "reduce"]
    scalar = [e for e in cert.trace if e["kind"] == "scalar"]
    assert cert.trace[0]["terms"] >= 3 and len(reduce) >= 2 and len(scalar) >= 2
    assert summary["membership_tests"] == sum(e["membership_tests"] for e in reduce) > 0
    assert summary["support_calls"] == sum(e["support_calls"] for e in reduce) > 0
    assert summary["face_steps"] == sum(e["face_steps"] for e in reduce) > 0
    assert summary["polish_calls"] == sum(e["polish_calls"] for e in reduce) > 0
    assert summary["path_solves"] == sum(e["iters"] for e in scalar) > 0
    assert run().summary() == summary


def test_derandomize_meets_tol_where_alpha_hat_collapsed():
    # a discount-0.95 model on which the nearly cancelled direction of a
    # distance iteration stopped the restarts of alpha_hat at 0.0 with a
    # collapsed bracket, uncertified, and the mix missed by 0.32; the witness
    # face's root is certified there
    from tests.test_scalar_dp import seeded_discounted

    m = seeded_discounted(2007, 0.95, criteria=2)
    rng = np.random.default_rng(7)
    random_deterministic_policy(m, rng), random_deterministic_policy(m, rng)
    pi = random_stationary_policy(m, rng)
    _, cert = derandomize(m, pi, tol=1e-6)
    assert cert.error <= 1e-6


@pytest.mark.parametrize("seed, beta", [(29, 0.98), (21, 0.99)])
def test_derandomize_meets_tol_at_long_lifetimes(seed, beta):
    # expected lifetimes 50 and 100: the membership tests' distance loop
    # queried the support oracle in (t - proj) / d, a direction formed by
    # cancellation down to d ~ tol, and the scalarized DP could not certify
    # its optimality gap there (ToleranceError); the corral's direction
    # comes from O(1) vectors
    from tests.test_scalar_dp import seeded_discounted

    m = seeded_discounted(2000 + seed, beta)
    pi = random_stationary_policy(m, np.random.default_rng(seed))
    phi, cert = derandomize(m, pi, tol=1e-6)
    assert cert.error <= 1e-6
    miss = performance(m, phi, tol=1e-12) - performance(m, pi, tol=1e-12)
    assert np.linalg.norm(miss) <= 1e-6


@pytest.mark.parametrize("rng_seed, draws, model_args", [
    (8, [(4, 9), (2, 4)], (7, 2, 3, 7008)),
    (0, [(4, 9), (2, 4)], (8, 3, 4, 8000)),
    (5, [(4, 9), (2, 4)], (7, 3, 4, 8005)),
    (0, [], (16, 3, 5, 500)),
    (43, [], (6, 3, 3, 2330)),
], ids=["N3-seed7008", "N4-seed8000", "N4-seed8005", "N5-seed500", "N3-seed2330"])
def test_derandomize_where_a_corral_lies_on_one_facet(rng_seed, draws, model_args):
    # on N3-seed2330 the distance iteration of a reduce step holds a corral
    # of N + 1 vertices of one facet, affinely independent only by rounding
    # (smallest singular value 7e-17 of the largest); without the affine
    # hull's numerical rank it found no direction off the hull.  The other
    # four are draws of the N = 3 to 5 sweeps, kept as regression cases for
    # the reduce step; the rng first makes the draws that chose their size
    rng = np.random.default_rng(rng_seed)
    for lo, hi in draws:
        rng.integers(lo, hi)
    cells, actions, criteria, seed = model_args
    m = random_model(cells, actions, criteria, seed=seed)
    pi = random_stationary_policy(m, rng)
    phi, cert = derandomize(m, pi, tol=1e-6)
    assert cert.error <= 1e-6
    miss = performance(m, phi, tol=1e-12) - performance(m, pi, tol=1e-12)
    assert np.linalg.norm(miss) <= 1e-6


def test_derandomize_at_a_tolerance_below_the_distance_floor_is_a_certified_failure():
    # the reduce step's pushed target lies within the distance iteration's
    # 1e-14 floor of V(alpha_hat), so no direction separates it: a certified
    # failure, not an internal error
    m = random_model(7, 3, 2, seed=7010)
    pi = random_stationary_policy(m, np.random.default_rng(10))
    with pytest.raises(CertifiedFailure, match="no separating direction"):
        derandomize(m, pi, tol=1e-13)


@pytest.mark.parametrize("rng_seed, draws, model_args", [
    (15, [(2, 9), (2, 4), (1, 4)], (8, 3, 3, 5015)),
    (100, [(4, 9), (2, 4)], (7, 3, 4, 8000)),
    (1, [(2, 9), (2, 4)], (6, 3, 5, 9001)),
], ids=["N3-seed5015", "N4-seed8000", "N5-seed9001"])
def test_derandomize_former_certified_failures(rng_seed, draws, model_args):
    # on these models an uncertified "outside" membership answer stops
    # alpha_hat short and mix_pair misses its tolerance; the rng first makes
    # the draws that chose the model's size in the sweep that found them
    rng = np.random.default_rng(rng_seed)
    for lo, hi in draws:
        rng.integers(lo, hi)
    cells, actions, criteria, seed = model_args
    m = random_model(cells, actions, criteria, seed=seed)
    pi = random_stationary_policy(m, rng)
    phi, _ = derandomize(m, pi, tol=1e-5)
    v_pi = performance(m, pi, tol=1e-12)
    v_phi = performance(m, phi, tol=1e-12)
    assert np.linalg.norm(v_phi - v_pi) <= 1e-5 * (1.0 + np.linalg.norm(v_pi))


def test_face_root_uses_only_affinely_independent_faces(monkeypatch):
    # on this model a three-coordinate level's witness loses affine rank
    # (singular ratio 1.5e-16): the face step must then give up, never
    # take the arbitrary normal such a face has, at x, at the bracket's
    # other end or at any secant step.  The policy is the rng's second
    # draw; its first was for random_model(6, 3, 5, seed=2350)
    module = importlib.import_module("atomless_mdp.derandomize")
    complement, face_root = module.affine_complement, module._face_root
    roots, ratios = [], None

    def recording_complement(points):
        perp, sv = complement(points)
        if ratios is not None:
            ratios.append(sv.min() / sv.max() if sv.size else 1.0)
        return perp, sv

    def recording_face_root(*args):
        nonlocal ratios
        ratios = []
        roots.append((ratios, face_root(*args)))
        ratios = None
        return roots[-1][1]

    monkeypatch.setattr(module, "affine_complement", recording_complement)
    monkeypatch.setattr(module, "_face_root", recording_face_root)
    rng = np.random.default_rng(45)
    random_stationary_policy(random_model(6, 3, 5, seed=2350), rng)
    m = random_model(6, 3, 5, seed=2351)
    pi = random_stationary_policy(m, rng)
    phi, cert = derandomize(m, pi, tol=1e-6)
    assert cert.error <= 1e-6
    assert np.linalg.norm(performance(m, phi, tol=1e-12) - performance(m, pi, tol=1e-12)) <= 1e-6
    deficient = [(ratios, result) for ratios, result in roots if min(ratios, default=1.0) <= 1e-8]
    assert deficient
    for ratios, result in deficient:
        assert result is None and min(ratios[:-1], default=1.0) > 1e-8


def test_face_root_gives_up_where_a_later_face_loses_rank(monkeypatch):
    # every face step's second evaluation (at the bracket's other end) on a
    # level of three or more coordinates is made to report affinely
    # dependent vertices: each such step returns None there, and the
    # construction still meets tol without it
    module = importlib.import_module("atomless_mdp.derandomize")
    complement, face_root = module.affine_complement, module._face_root
    steps, evaluations = [], None

    def degrading_complement(points):
        perp, sv = complement(points)
        if evaluations is not None:
            evaluations.append(sv.size)
            if len(evaluations) == 2 and sv.size >= 2:
                sv = np.append(sv[:-1], 1e-9 * sv.max())
        return perp, sv

    def recording_face_root(*args):
        nonlocal evaluations
        evaluations = []
        steps.append((evaluations, face_root(*args)))
        evaluations = None
        return steps[-1][1]

    monkeypatch.setattr(module, "affine_complement", degrading_complement)
    monkeypatch.setattr(module, "_face_root", recording_face_root)
    m = random_model(6, 3, 3, seed=2330)
    pi = random_stationary_policy(m, np.random.default_rng(43))
    phi, cert = derandomize(m, pi, tol=1e-6)
    assert cert.error <= 1e-6
    assert np.linalg.norm(performance(m, phi, tol=1e-12) - performance(m, pi, tol=1e-12)) <= 1e-6
    cut = [(sizes, result) for sizes, result in steps if len(sizes) >= 2 and sizes[1] >= 2]
    assert cut
    assert all(len(sizes) == 2 and result is None for sizes, result in cut)


# ---------------------------------------------------------------------------
# the threshold path in closed form within one pair interval
# ---------------------------------------------------------------------------


def seeded_contexts(count, cells=8, criteria=2):
    for seed in range(count):
        m = random_model(cells, 3, criteria, seed=900 + seed)
        rng = np.random.default_rng(seed)
        yield m, make_context(m, random_deterministic_policy(m, rng),
                              random_deterministic_policy(m, rng))


def continued(ctx, policy):
    """Each policy's action on the piece that ends at every pair breakpoint."""
    pts = ctx.pair.partition.points
    return policy.actions[np.searchsorted(policy.partition.points, pts[1:]) - 1]


def test_closed_form_path_matches_path_value_on_every_piece():
    # across each pair interval the path's value is a rank-one update of one
    # solve at the interval's start; it agrees with the certified evaluation
    # of the split policy there
    for _, ctx in seeded_contexts(20):
        k = ctx.pair.partition.cell_count
        paths = ctx.paths(np.arange(k), np.broadcast_to(ctx.a0, (k, k)))
        for j in range(k):
            start, end = ctx.fraction(j, 0.0), ctx.fraction(j, float(ctx.pair.frac[j]))
            for alpha in np.linspace(start, end, 6)[1:-1]:
                s = ctx.position(alpha, j)
                _, v, _ = path_value(ctx, alpha)
                assert np.abs(paths.value(s)[j] - v).max() <= 1e-12 * (1.0 + np.abs(v).max())


def test_continued_policy_is_a_lower_bound_on_the_support():
    # the policy optimal at alpha_lo, continued along the path (phi1 below
    # the threshold, its own actions above), stays in V(alpha) for alpha >=
    # alpha_lo: its value never exceeds support's h_alpha(b) there, and
    # matches it at alpha_lo
    rng = np.random.default_rng(4)
    pts_checked = 0
    for m, ctx in seeded_contexts(12):
        pts = ctx.pair.partition.points
        for alpha_lo in rng.uniform(0.0, 0.8, size=2):
            b = rng.normal(size=m.criteria)
            h_lo, policy, _ = support(ctx.submodel_at(alpha_lo), b)
            above = continued(ctx, policy)
            for alpha in np.concatenate(([alpha_lo], rng.uniform(alpha_lo, 1.0, size=6))):
                j = min(int(np.searchsorted(pts, ctx.threshold(alpha), side="right")) - 1,
                        pts.size - 2)
                value = ctx.paths(np.array([j]), above[None]).value(ctx.position(alpha, j))[0] @ b
                h = support(ctx.submodel_at(alpha), b)[0]
                assert value <= h + 2e-10
                if alpha == alpha_lo:
                    assert value == pytest.approx(h_lo, abs=2e-10)
                pts_checked += 1
    assert pts_checked == 12 * 2 * 7


def test_crossing_lands_on_the_level_inside_its_window():
    # _crossing's alpha, between a start inside the path and the window's
    # end, is one where the path policy's value reaches the level; on a
    # one-step model, where that value is linear across each pair interval,
    # it is the first such alpha.  A level that the value reaches only
    # beyond the window's end gives no alpha past that end.
    module = importlib.import_module("atomless_mdp.derandomize")
    rng = np.random.default_rng(41)
    found, beyond = Counter(), 0
    for m, ctx in path_contexts():
        pts = ctx.pair.partition.points
        for _ in range(3):
            e = rng.normal(size=m.criteria)
            a, end = np.sort(rng.uniform(0.0, 1.0, size=2))
            grid = np.linspace(a, 1.0, 81)
            values = np.array([path_value(ctx, x)[1] @ e for x in grid])
            inside = values[grid <= end]
            j = min(int(np.searchsorted(pts, ctx.threshold(a), side="right")) - 1, pts.size - 2)
            if values.max() > inside.max() + 1e-6:
                level = inside.max() + 0.5 * (values.max() - inside.max())
                x = module._crossing(ctx, ctx.a0, e, level, j, ctx.position(a, j), end)
                assert x is None or x <= end + 1e-12
                beyond += 1
            if not inside.max() > values[0] + 1e-9:
                continue
            level = values[0] + 0.6 * (inside.max() - values[0])
            x = module._crossing(ctx, ctx.a0, e, level, j, ctx.position(a, j), end)
            if x is None:
                assert not m.is_one_step()
                continue
            assert a <= x <= end
            assert path_value(ctx, x)[1] @ e == pytest.approx(level, abs=1e-9 * (1.0 + abs(level)))
            if m.is_one_step():
                assert values[grid < x].max() <= level + 1e-12
            found[m.is_one_step()] += 1
    assert found[True] >= 6 and found[False] >= 6 and beyond >= 6


def test_closed_form_steps_cut_the_oracle_work_on_the_fixed_inputs(monkeypatch, tmp_path):
    # the 36 fixed derandomize-small inputs (benchmark law, seeds 401 to 403,
    # rounds 0 to 2): alpha_hat's support calls and the scalar steps' path
    # solves fall from their totals with Illinois steps (883 and 513), and
    # every output meets the benchmark's tol
    bench = Path(__file__).resolve().parents[1] / "benchmark"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(bench))
    workloads = importlib.import_module("workloads")
    support_calls = path_solves = ops = 0
    for seed in (401, 402, 403):
        load = workloads.DerandomizeSmall(seed, False, str(tmp_path))
        for r in range(3):
            load.start_round(r)
            for k in range(len(load)):
                op = load.prepare(k)
                result = op.call()
                assert op.check(result)[2] is None
                summary = result[1].summary()
                support_calls += summary["support_calls"]
                path_solves += summary["path_solves"]
                ops += 1
    assert ops == 36
    assert support_calls < 883 and path_solves < 513
