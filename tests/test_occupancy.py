"""Tests for occupancy measures, performance vectors and the policy map."""

import importlib

import numpy as np
import pytest

from atomless_mdp.errors import ToleranceError
from atomless_mdp.measure import PieceMeasure, StatePartition, total_variation
from atomless_mdp.model import (
    AtomlessMDP,
    DeterministicPolicy,
    StationaryPolicy,
    builtin,
    cell_action_weights,
    discounted_to_absorbing,
    random_model,
    random_stationary_policy,
)
from atomless_mdp.occupancy import (
    evaluate_weights,
    fixed_point_residual,
    marginal_step,
    occupancy,
    occupancy_total_variation,
    performance,
    policy_from_occupancy,
)
from tests.test_model import absorb_immediately, one_cell_discounted


def uniform_policy(model):
    probs = np.zeros((model.cell_count, model.action_count))
    for i, acts in enumerate(model.available):
        probs[i, list(acts)] = 1.0 / len(acts)
    return StationaryPolicy(model.grid, probs)


def one_cell_half_absorb():
    grid = StatePartition([0.0, 1.0])
    kernel = np.full((1, 1, 1), 0.5)
    return AtomlessMDP(grid, 1, [(0,)], kernel, np.full((1, 1), 0.5),
                       np.ones((1, 1, 1)), PieceMeasure.uniform())


# ---------------------------------------------------------------------------
# marginal_step
# ---------------------------------------------------------------------------

def test_step_full_absorption_gives_zero():
    m = absorb_immediately()
    q1 = marginal_step(m, uniform_policy(m), m.initial)
    assert q1.total == 0.0


def test_step_half_absorption_halves_mass():
    m = one_cell_half_absorb()
    q1 = marginal_step(m, uniform_policy(m), m.initial)
    assert q1.total == pytest.approx(0.5)
    assert total_variation(q1, PieceMeasure(m.grid, m.initial.masses * 0.5)) == 0.0


def test_step_geometric_decay_for_beta_half():
    m = discounted_to_absorbing(one_cell_discounted(0.5))
    q = m.initial
    pi = uniform_policy(m)
    for n in range(1, 8):
        q = marginal_step(m, pi, q)
        assert q.total == pytest.approx(0.5**n)


def test_step_respects_sub_cell_policy_structure():
    m = builtin("unit-interval-onestep")
    # both actions absorb, so any policy kills all mass in one step
    phi = DeterministicPolicy(StatePartition([0.0, 0.4, 1.0]), [1, 0])
    assert marginal_step(m, phi, m.initial).total == 0.0


# ---------------------------------------------------------------------------
# occupancy
# ---------------------------------------------------------------------------

def test_occupancy_one_step_model():
    m = absorb_immediately()
    q = occupancy(m, uniform_policy(m), tol=1e-12)
    assert q.total == pytest.approx(1.0)
    assert q.truncation_error <= 1e-12


def test_occupancy_beta_half_total_two():
    m = discounted_to_absorbing(one_cell_discounted(0.5))
    q = occupancy(m, uniform_policy(m), tol=1e-12)
    assert q.total == pytest.approx(2.0, abs=1e-11)
    assert q.total <= m.certificate().L + 1e-11


def test_occupancy_matches_step_iteration():
    m = random_model(8, 3, 2, seed=21)
    rng = np.random.default_rng(2)
    pi = random_stationary_policy(m, rng)
    tol = 1e-9
    q = occupancy(m, pi, tol=tol)

    # independent oracle: iterate marginal_step until the running mass is tiny
    acc = np.zeros(m.cell_count)
    cur = m.initial
    for _ in range(2000):
        acc = acc + cur.coarsened_to(m.grid).masses
        cur = marginal_step(m, pi, cur)
        if cur.total < tol / 10:
            break
    assert cur.total < tol / 10
    oracle = PieceMeasure(m.grid, acc)
    assert total_variation(q.state_marginal().coarsened_to(m.grid), oracle) <= 2 * tol


def test_occupancy_fixed_point_residual():
    m = random_model(6, 2, 1, seed=4)
    pi = random_stationary_policy(m, np.random.default_rng(9))
    tol = 1e-10
    q = occupancy(m, pi, tol=tol)
    assert fixed_point_residual(m, pi, q) <= tol


def test_occupancy_total_bounded_by_certificate():
    for seed in range(4):
        m = random_model(5, 3, 1, seed=seed)
        pi = random_stationary_policy(m, np.random.default_rng(seed))
        q = occupancy(m, pi, tol=1e-10)
        assert q.total <= m.certificate().L + 1e-9


def test_truncation_error_is_the_certified_solve_bound():
    m = random_model(8, 3, 2, seed=21)
    pi = random_stationary_policy(m, np.random.default_rng(2))
    q = occupancy(m, pi, tol=1e-12)
    err = q.truncation_error
    assert 0.0 < err <= 1e-12
    # against a dense solve of the same system, the marginal is within err
    w = cell_action_weights(m, pi)
    system = np.eye(m.cell_count) - np.einsum("ia,iaj->ij", w, m.kernel)
    exact = np.linalg.solve(system.T, m.initial.masses)
    marginal = q.state_marginal().coarsened_to(m.grid).masses
    assert np.abs(marginal - exact).sum() <= err + 1e-14
    # below the float64 residual's bound the extended-precision refinement
    # certifies the marginal; a tolerance below that bound is refused
    tight = occupancy(m, pi, tol=0.5 * err)
    assert 0.0 < tight.truncation_error <= 0.5 * err
    refined = tight.state_marginal().coarsened_to(m.grid).masses
    assert np.abs(refined - exact).sum() <= tight.truncation_error + 1e-14
    with pytest.raises(ToleranceError):
        occupancy(m, pi, tol=0.5 * tight.truncation_error)
    with pytest.raises(ToleranceError):
        performance(m, pi, tol=0.5 * tight.truncation_error)
    # a one-step model's marginal is the initial measure itself
    one = absorb_immediately()
    assert occupancy(one, uniform_policy(one), tol=1e-300).truncation_error == 0.0


def series_marginal(model, w):
    """sum_k mu P_w^k by doubling (S_2k = S_k + S_k P^k) in np.longdouble,
    until the surviving mass is below 1e-30: a reference independent of the
    solve, whose own rounding is far below a float64 solve's eps L^2."""
    ext = np.longdouble
    mu = model.initial.masses.astype(ext)
    power = np.einsum("ia,iaj->ij", w.astype(ext), model.kernel.astype(ext))
    partial = mu.copy()
    while (mu @ power).sum() > 1e-30:
        partial = partial + partial @ power
        power = power @ power
    return partial


@pytest.mark.parametrize("beta", [0.99, 0.995, 0.998])
def test_long_lifetime_evaluation_meets_tight_tol(beta):
    # expected lifetimes L of 100 to 500: a float64 residual's rounding alone
    # puts the bound near n eps L^2, over 1e-12; the refined solve certifies
    # 1e-12, and the bound holds against an independent reference
    from tests.test_scalar_dp import seeded_discounted

    rng = np.random.default_rng(7)
    for seed in range(4):
        m = seeded_discounted(1500 + seed, beta)
        assert m.certificate().L == pytest.approx(1.0 / (1.0 - beta))
        for pi in (uniform_policy(m), random_stationary_policy(m, rng)):
            q = occupancy(m, pi, tol=1e-12)
            assert 0.0 <= q.truncation_error <= 1e-12
            w = cell_action_weights(m, pi)
            marginal, err, _ = evaluate_weights(m, w, tol=1e-12)
            assert err == q.truncation_error
            assert np.abs(marginal - series_marginal(m, w)).sum() <= err
            assert np.allclose(performance(m, pi, tol=1e-12), q.performance(),
                               rtol=1e-12, atol=1e-12)


def test_refinement_converts_the_kernel_once(monkeypatch):
    # two refined solves on one model share one np.longdouble kernel and give
    # what each gives on a model of its own, whose kernel it converts afresh
    from tests.test_scalar_dp import seeded_discounted

    module = importlib.import_module("atomless_mdp.occupancy")
    original, refined = module.refine, []

    def counting(model, *args):
        refined.append(model.long_kernel())
        return original(model, *args)

    monkeypatch.setattr(module, "refine", counting)
    m = seeded_discounted(2000, 0.998)
    assert m.certificate().L == pytest.approx(500.0)
    rng = np.random.default_rng(0)
    for pi in (uniform_policy(m), random_stationary_policy(m, rng)):
        w = cell_action_weights(m, pi)
        shared = evaluate_weights(m, w, tol=1e-12)
        alone = evaluate_weights(seeded_discounted(2000, 0.998), w, tol=1e-12)
        assert shared[0].tobytes() == alone[0].tobytes()
        assert shared[1] == alone[1] and shared[2].tobytes() == alone[2].tobytes()
    assert len(refined) == 4 and refined[0] is refined[2]
    assert refined[0].dtype == np.longdouble and not refined[0].flags.writeable


def fraction_solve(a, b):
    """The exact solution of a x = b, entries as Fractions (b is n x k)."""
    n = len(a)
    rows = [list(a[i]) + list(b[i]) for i in range(n)]
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i][k] != 0)
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(n):
            if i != k and rows[i][k] != 0:
                f = rows[i][k] / rows[k][k]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return [[x / rows[i][i] for x in rows[i][n:]] for i in range(n)]


@pytest.mark.parametrize("left", [True, False])
def test_certified_bound_covers_the_exact_error(left):
    # L = 500: the bound of the float64 solve is at least its exact error,
    # from Fractions, against the solution for the same float64 matrix and
    # right-hand side and against the one for I - P_w and the right-hand
    # side formed exactly from w, the kernel and mu or the rewards; so is
    # the refined solve's, which is tighter
    from fractions import Fraction

    from tests.test_scalar_dp import seeded_discounted

    module = importlib.import_module("atomless_mdp.occupancy")
    m = seeded_discounted(2000, 0.998)
    L = m.certificate().L
    assert L == pytest.approx(500.0)
    w = cell_action_weights(m, random_stationary_policy(m, np.random.default_rng(0)))
    n = m.cell_count
    wf = [[Fraction(x) for x in row] for row in w]
    p_w = [[sum(wf[i][a] * Fraction(m.kernel[i, a, j]) for a in range(m.action_count))
            for j in range(n)] for i in range(n)]
    system = [[(i == j) - p_w[i][j] for j in range(n)] for i in range(n)]
    if left:
        exact_a, exact_rhs = [list(col) for col in zip(*system)], [[Fraction(x)] for x in m.initial.masses]
    else:
        exact_a = system
        exact_rhs = [[sum(wf[i][a] * Fraction(m.rewards[i, a, k]) for a in range(m.action_count))
                      for k in range(m.criteria)] for i in range(n)]
    float_a, float_rhs = module._system(m, w, m.kernel, left)
    float_rhs = np.reshape(float_rhs, (n, -1))
    references = [fraction_solve([[Fraction(x) for x in row] for row in float_a],
                                 [[Fraction(x) for x in row] for row in float_rhs]),
                  fraction_solve(exact_a, exact_rhs)]

    def error(x, exact):
        diffs = [abs(Fraction(xi) - ei) for row, exact_row in zip(np.reshape(x, (n, -1)), exact)
                 for xi, ei in zip(row, exact_row)]
        return sum(diffs) if left else max(diffs)

    x, bound, _ = module.certified_solve(m, w, L, left)
    assert all(error(x, exact) <= Fraction(bound) for exact in references)
    refined, refined_bound, _ = module.refine(m, w, x, L, left)
    assert refined_bound < bound and error(refined, references[1]) <= Fraction(refined_bound)


@pytest.mark.parametrize("left", [True, False])
def test_refine_returns_the_float64_residual_of_its_solution(left):
    # refine's third value is certified_solve's residual, L |rhs - a x| in
    # float64, for the refined x
    from tests.test_scalar_dp import seeded_discounted

    module = importlib.import_module("atomless_mdp.occupancy")
    m = seeded_discounted(2000, 0.998)
    L = m.certificate().L
    w = cell_action_weights(m, random_stationary_policy(m, np.random.default_rng(0)))
    x, _, _ = module.certified_solve(m, w, L, left)
    refined, _, residual = module.refine(m, w, x, L, left)
    a, rhs = module._system(m, w, m.kernel, left)
    gap = np.abs(rhs - a @ refined)
    assert residual == L * float(gap.sum() if left else gap.max())


def test_occupancy_requires_certificate():
    m = one_cell_discounted(0.5)
    with pytest.raises(Exception):
        occupancy(m, uniform_policy(m), tol=1e-9)


# ---------------------------------------------------------------------------
# performance
# ---------------------------------------------------------------------------

def test_performance_zero_rewards():
    m = random_model(4, 2, 3, seed=1)
    zeroed = AtomlessMDP(m.grid, m.action_count, m.available, m.kernel, m.absorb,
                         np.zeros_like(m.rewards), m.initial)
    pi = random_stationary_policy(zeroed, np.random.default_rng(0))
    assert np.allclose(performance(zeroed, pi), 0.0)


def test_performance_unit_interval_action_one():
    m = builtin("unit-interval-onestep")
    phi = DeterministicPolicy(m.grid, [1])
    assert performance(m, phi)[0] == pytest.approx(1.0)


def test_performance_geometric_series():
    m = discounted_to_absorbing(one_cell_discounted(0.5))
    v = performance(m, uniform_policy(m), tol=1e-12)
    assert v[0] == pytest.approx(2.0, abs=1e-11)  # sum of 0.5^t


def test_performance_bound():
    m = random_model(7, 3, 2, seed=13)
    pi = random_stationary_policy(m, np.random.default_rng(5))
    v = performance(m, pi, tol=1e-10)
    bound = m.certificate().L * np.abs(m.rewards).max()
    assert np.all(np.abs(v) <= bound + 1e-9)


# ---------------------------------------------------------------------------
# policy_from_occupancy
# ---------------------------------------------------------------------------

def test_policy_from_occupancy_deterministic_fixed_point():
    m = random_model(5, 3, 1, seed=8)
    rng = np.random.default_rng(3)
    from atomless_mdp.model import random_deterministic_policy

    phi = random_deterministic_policy(m, rng)
    q = occupancy(m, phi, tol=1e-10)
    sigma = policy_from_occupancy(q)
    marg = q.masses.sum(axis=1)
    probs = sigma.refined_to(q.partition).probs
    expect = phi.to_stationary(m.action_count).refined_to(q.partition).probs
    assert np.allclose(probs[marg > 0], expect[marg > 0])


def test_policy_from_occupancy_one_step_identity():
    m = builtin("unit-interval-onestep")
    pi = StationaryPolicy(m.grid, [[0.5, 0.5]])
    sigma = policy_from_occupancy(occupancy(m, pi, tol=1e-12))
    assert np.allclose(sigma.probs, [[0.5, 0.5]])


def ref_policy_probs(q):
    """policy_from_occupancy's probabilities, one interval at a time."""
    marg = q.masses.sum(axis=1)
    owner = q.partition.index_map_from(q.model.grid)
    probs = np.zeros_like(q.masses)
    for s in range(q.partition.cell_count):
        if marg[s] > 0.0:
            probs[s] = q.masses[s] / marg[s]
        else:
            probs[s, q.model.available[owner[s]][0]] = 1.0
    return probs


def test_policy_from_occupancy_unreached_cell_gets_lowest_available_action():
    # no initial mass and no kernel row reaches cell 1, where actions 1 and 2 are available
    grid = StatePartition([0.0, 0.5, 1.0])
    kernel = np.zeros((2, 3, 2))
    kernel[0, :, 0] = 0.5
    absorb = np.ones((2, 3))
    absorb[0] = 0.5
    m = AtomlessMDP(grid, 3, [(0, 2), (1, 2)], kernel, absorb, np.ones((2, 3, 1)),
                    PieceMeasure(grid, [1.0, 0.0]))
    pi = StationaryPolicy(StatePartition([0.0, 0.25, 0.5, 1.0]),
                          [[0.5, 0.0, 0.5], [1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
    q = occupancy(m, pi, tol=1e-12)
    assert q.masses.sum(axis=1).tolist() == [1.0, 1.0, 0.0]
    sigma = policy_from_occupancy(q)
    assert sigma.probs.tolist() == [[0.5, 0.0, 0.5], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    assert np.array_equal(sigma.probs, ref_policy_probs(q))


def test_policy_from_occupancy_roundtrip():
    for seed in (0, 1, 2):
        m = random_model(8, 3, 2, seed=seed)
        pi = random_stationary_policy(m, np.random.default_rng(seed + 100))
        q_pi = occupancy(m, pi, tol=1e-12)
        sigma = policy_from_occupancy(q_pi)
        assert np.array_equal(sigma.probs, ref_policy_probs(q_pi))
        q_sigma = occupancy(m, sigma, tol=1e-12)
        assert occupancy_total_variation(q_pi, q_sigma) <= 1e-9


def test_absolute_continuity_support_inclusion():
    m = random_model(6, 3, 1, seed=40)
    rng = np.random.default_rng(7)
    pi = random_stationary_policy(m, rng)
    # sigma reuses pi's support, shifted toward its first positive action
    probs = np.zeros_like(pi.probs)
    for s in range(pi.probs.shape[0]):
        support = np.flatnonzero(pi.probs[s] > 0)
        probs[s, support[0]] = 1.0
    sigma = StationaryPolicy(pi.partition, probs)
    q_pi = occupancy(m, pi, tol=1e-12).state_marginal().coarsened_to(m.grid)
    q_sigma = occupancy(m, sigma, tol=1e-12).state_marginal().coarsened_to(m.grid)
    null = q_pi.masses <= 1e-13
    assert np.all(q_sigma.masses[null] <= 1e-10)
