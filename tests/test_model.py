"""Tests for the MDP data model, transforms, certificates and builtins."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomless_mdp.errors import ModelFormatError, NotCertifiedError, PartitionMismatchError
from atomless_mdp.measure import PieceMeasure, StatePartition
from atomless_mdp.model import (
    AtomlessMDP,
    DeterministicPolicy,
    StationaryPolicy,
    WeightConditionError,
    absorption_certificate,
    always_continue,
    builtin,
    cell_action_weights,
    discounted_to_absorbing,
    doubling_corridor,
    load_model,
    model_to_doc,
    random_deterministic_policy,
    random_model,
    stop_policy,
    validate_policy,
    weighted_transform,
)


def one_cell_discounted(beta, reward=1.0, criteria=1):
    """Single cell that stays put until the discount transform absorbs it."""
    grid = StatePartition([0.0, 1.0])
    kernel = np.ones((1, 1, 1))
    rewards = np.full((1, 1, criteria), reward)
    return AtomlessMDP(
        grid, 1, [(0,)], kernel, np.zeros((1, 1)), rewards,
        PieceMeasure.uniform(), kind="discounted", beta=beta,
    )


def absorb_immediately(criteria=1):
    grid = StatePartition([0.0, 1.0])
    return AtomlessMDP(
        grid, 1, [(0,)], np.zeros((1, 1, 1)), np.ones((1, 1)),
        np.ones((1, 1, criteria)), PieceMeasure.uniform(),
    )


# ---------------------------------------------------------------------------
# document loading
# ---------------------------------------------------------------------------

def minimal_doc():
    return {
        "kind": "absorbing",
        "grid": [0.0, 1.0],
        "actions": 1,
        "available": [[0]],
        "kernel": [[{"to": [], "absorb": 1.0}]],
        "rewards": [[[2.0]]],
        "initial": [[0.0, 1.0, 1.0]],
    }


def test_load_degenerate_model():
    m = load_model(minimal_doc())
    assert m.absorb[0, 0] == 1.0
    assert m.cell_count == 1
    assert m.criteria == 1


def test_load_rejects_bad_row_sum():
    doc = minimal_doc()
    doc["kernel"][0][0]["absorb"] = 0.9
    with pytest.raises(ModelFormatError, match=r"kernel\[0\]\[0\]"):
        load_model(doc)


def test_load_rejects_negative_mass():
    doc = minimal_doc()
    doc["kernel"][0][0] = {"to": [[0.0, 1.0, -0.5]], "absorb": 1.5}
    with pytest.raises(ModelFormatError, match="negative"):
        load_model(doc)


def test_load_rejects_empty_available():
    doc = minimal_doc()
    doc["available"] = [[]]
    with pytest.raises(ModelFormatError, match=r"available\[0\]"):
        load_model(doc)


def test_load_refines_grid_to_kernel_endpoints():
    doc = minimal_doc()
    doc["kernel"][0][0] = {"to": [[0.0, 0.25, 0.5]], "absorb": 0.5}
    m = load_model(doc)
    assert m.grid.points.tolist() == [0.0, 0.25, 1.0]
    assert m.kernel[0, 0].tolist() == [0.5, 0.0]


def test_builtin_roundtrip_unchanged():
    doc = model_to_doc(builtin("lyapunov-onestep"))
    again = model_to_doc(load_model(doc))
    assert doc == again


def test_roundtrip_random_model():
    m = random_model(5, 3, 2, seed=11)
    doc = model_to_doc(m)
    again = model_to_doc(load_model(doc))
    assert doc == again


@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 4), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_load_reproduces_random_model_bitwise(seed, cells, actions, criteria):
    m = random_model(cells, actions, criteria, seed=seed)
    again = load_model(model_to_doc(m))
    assert again.grid.points.tobytes() == m.grid.points.tobytes()
    for name in ("kernel", "absorb", "rewards"):
        assert getattr(again, name).tobytes() == getattr(m, name).tobytes(), name
    assert again.initial.masses.tobytes() == m.initial.masses.tobytes()
    assert again.available == m.available


def test_load_multicell_rows_on_refined_grid():
    # rows spanning several cells and ending inside cells refine the grid to
    # quarters; every mass below is exact in binary
    doc = {
        "kind": "absorbing",
        "grid": [0.0, 0.5, 1.0],
        "actions": 2,
        "available": [[0, 1], [1]],
        "kernel": [
            [{"to": [[0.0, 1.0, 0.5], [0.25, 0.5, 0.25]], "absorb": 0.25},
             {"to": [], "absorb": 1.0}],
            [{"to": [[0.5, 0.75, 0.5]], "absorb": 0.5}],
        ],
        "rewards": [[[1.0], [2.0]], [[3.0]]],
        "initial": [[0.0, 0.25, 0.5], [0.25, 0.75, 0.5]],
    }
    m = load_model(doc)
    assert m.grid.points.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert m.available == ((0, 1), (0, 1), (1,), (1,))
    row_a0 = [0.125, 0.375, 0.125, 0.125]
    row_b1 = [0.0, 0.0, 0.5, 0.0]
    zero = [0.0] * 4
    assert m.kernel.tolist() == [[row_a0, zero], [row_a0, zero], [zero, row_b1], [zero, row_b1]]
    assert m.absorb.tolist() == [[0.25, 1.0], [0.25, 1.0], [1.0, 0.5], [1.0, 0.5]]
    assert m.rewards[:, :, 0].tolist() == [[1.0, 2.0], [1.0, 2.0], [0.0, 3.0], [0.0, 3.0]]
    assert m.initial.masses.tolist() == [0.5, 0.25, 0.25, 0.0]


def reference_row_masses(rows, points):
    """Row-by-row placement of (lo, hi, mass) rows on a grid with every endpoint."""
    masses = np.zeros(points.size - 1)
    for lo, hi, mass in rows:
        a, b = int(np.flatnonzero(points == lo)[0]), int(np.flatnonzero(points == hi)[0])
        if b == a + 1:
            masses[a] += mass
        else:
            widths = np.diff(points)[a:b]
            masses[a:b] += mass * widths / widths.sum()
    return masses


def test_load_matches_row_by_row_placement():
    rng = np.random.default_rng(31)
    for _ in range(20):
        cells, actions = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        grid = np.unique(np.concatenate(([0.0, 1.0], rng.uniform(0.05, 0.95, cells - 1))))
        cuts = np.unique(np.concatenate((grid, rng.uniform(0.0, 1.0, 3))))

        def rows(total):
            out = []
            for _ in range(int(rng.integers(0, 6))):
                lo, hi = np.sort(rng.choice(cuts, 2, replace=False)).tolist()
                out.append([lo, hi, float(rng.uniform(0.0, total / 6))])
            return out

        available = [list(range(actions))] * (grid.size - 1)
        kernel = []
        for _ in available:
            cell = []
            for _ in range(actions):
                to = rows(0.9)
                cell.append({"to": to, "absorb": 1.0 - sum(r[2] for r in to)})
            kernel.append(cell)
        initial = rows(1.0)
        initial.append([0.0, 1.0, 1.0 - sum(r[2] for r in initial)])
        doc = {"kind": "absorbing", "grid": grid.tolist(), "actions": actions,
               "available": available, "kernel": kernel,
               "rewards": [[[1.0]] * actions] * len(available), "initial": initial}
        m = load_model(doc)
        owner = m.grid.index_map_from(StatePartition(grid))
        for i, base_cell in enumerate(owner):
            for a in range(actions):
                expected = reference_row_masses(kernel[base_cell][a]["to"], m.grid.points)
                assert m.kernel[i, a].tobytes() == expected.tobytes()
        expected = reference_row_masses(initial, m.grid.points)
        assert m.initial.masses.tobytes() == expected.tobytes()


def test_model_rejects_non_finite_masses():
    base = absorb_immediately()
    for kernel, absorb in ((np.full((1, 1, 1), np.nan), np.zeros((1, 1))),
                           (np.zeros((1, 1, 1)), np.full((1, 1), np.nan))):
        with pytest.raises(ModelFormatError, match=r"kernel\[0\]\[0\].*finite"):
            AtomlessMDP(base.grid, 1, [(0,)], kernel, absorb, base.rewards, base.initial)


# ---------------------------------------------------------------------------
# discounted -> absorbing
# ---------------------------------------------------------------------------

def test_beta_zero_absorbs_in_one_step():
    out = discounted_to_absorbing(one_cell_discounted(0.0))
    assert np.all(out.absorb == 1.0)
    assert out.kind == "absorbing"


def test_beta_half_expected_time_two():
    out = discounted_to_absorbing(one_cell_discounted(0.5))
    cert = out.certificate()
    assert cert.L == 2.0


def test_transform_rejects_absorbing_input():
    with pytest.raises(ModelFormatError):
        discounted_to_absorbing(absorb_immediately())


def discounted_performance_oracle(model, policy, cutoff=1e-12):
    """Direct discounted summation of expected rewards, geometric truncation."""
    from atomless_mdp.occupancy import marginal_step

    beta = model.beta
    w = cell_action_weights(model, policy)
    step_reward = np.einsum("ia,ian->in", w, model.rewards)
    q = model.initial
    total = np.zeros(model.criteria)
    factor = 1.0
    bound = np.abs(model.rewards).max()
    t = 0
    while factor * bound / (1.0 - beta) > cutoff and t < 10_000:
        total += factor * (q.coarsened_to(model.grid).masses @ step_reward)
        q = marginal_step(model, policy, q)
        factor *= beta
        t += 1
    return total


def test_discount_transform_matches_direct_summation():
    rng = np.random.default_rng(19)
    for seed, beta in ((0, 0.3), (1, 0.5), (2, 0.85)):
        base = random_model(5, 2, 2, seed=900 + seed)
        # same dynamics (including pre-absorption), discounted on top
        disc = AtomlessMDP(base.grid, base.action_count, base.available,
                           base.kernel, base.absorb, base.rewards, base.initial,
                           kind="discounted", beta=beta)
        phi = random_deterministic_policy(disc, rng)
        from atomless_mdp.occupancy import performance

        oracle = discounted_performance_oracle(disc, phi)
        direct = performance(discounted_to_absorbing(disc), phi, tol=1e-12)
        assert np.linalg.norm(oracle - direct) <= 1e-9


def test_certificate_exact_for_multicell_zero_preabsorption():
    # when no row pre-absorbs, the transformed model has survival beta
    # everywhere and the certificate reproduces 1/(1-beta) exactly
    rng = np.random.default_rng(7)
    grid = StatePartition([0.0, 0.3, 0.8, 1.0])
    kernel = np.zeros((3, 2, 3))
    for i in range(3):
        for a in range(2):
            row = rng.random(3)
            kernel[i, a] = row / row.sum()
    m = AtomlessMDP(grid, 2, [(0, 1)] * 3, kernel, np.zeros((3, 2)),
                    rng.normal(size=(3, 2, 1)), PieceMeasure(grid, grid.widths),
                    kind="discounted", beta=0.5)
    cert = discounted_to_absorbing(m).certificate()
    assert cert.L == 2.0


# ---------------------------------------------------------------------------
# absorption certificate
# ---------------------------------------------------------------------------

def test_certificate_exact_for_discount_transforms():
    for beta in (0.0, 0.5, 0.9):
        out = discounted_to_absorbing(one_cell_discounted(beta))
        cert = absorption_certificate(out)
        assert cert.L == pytest.approx(1.0 / (1.0 - beta), rel=1e-12)


def test_certificate_survival_geometric_for_beta_half():
    out = discounted_to_absorbing(one_cell_discounted(0.5))
    cert = out.certificate()
    for n in range(0, 10):
        assert cert.survival[n] == pytest.approx(0.5**n, abs=1e-15)


def test_certificate_absorb_immediately():
    cert = absorb_immediately().certificate()
    assert cert.L == 1.0
    assert cert.tail(1) == 0.0
    assert cert.tail(0) == 1.0


def test_certificate_tail_monotone():
    m = random_model(6, 3, 2, seed=3)
    cert = m.certificate()
    tails = [cert.tail(n) for n in range(0, 200, 5)]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert tails[-1] <= 1e-9


def test_not_certified_for_unreachable_loop():
    # second cell loops forever; worst-case survival never decays
    grid = StatePartition([0.0, 0.5, 1.0])
    kernel = np.zeros((2, 1, 2))
    kernel[1, 0, 1] = 1.0
    absorb = np.array([[1.0], [0.0]])
    initial = PieceMeasure(grid, [1.0, 0.0])
    m = AtomlessMDP(grid, 1, [(0,), (0,)], kernel, absorb,
                    np.zeros((2, 1, 1)), initial)
    with pytest.raises(NotCertifiedError):
        absorption_certificate(m, cap=3000)


def test_certificate_requires_absorbing_kind():
    with pytest.raises(NotCertifiedError):
        absorption_certificate(one_cell_discounted(0.5))


# ---------------------------------------------------------------------------
# weighted transform
# ---------------------------------------------------------------------------

def test_weighted_transform_unit_weight_identity():
    m = random_model(4, 2, 2, seed=5)
    t = weighted_transform(m, np.ones(4))
    assert np.allclose(t.kernel, m.kernel)
    assert np.allclose(t.rewards, m.rewards)
    assert np.allclose(t.initial.masses, m.initial.masses)


def test_weighted_transform_constant_weight_cancels():
    m = absorb_immediately()
    m = AtomlessMDP(m.grid, 1, [(0,)], m.kernel, m.absorb,
                    np.full((1, 1, 1), 3.0), m.initial)
    t = weighted_transform(m, np.array([2.0]))
    assert t.rewards[0, 0, 0] == pytest.approx(3.0)
    assert t.initial.masses.tolist() == [1.0]


def test_weighted_transform_rejects_expanding_weight():
    # all mass moves to the heavier cell, so the weighted row expands
    grid = StatePartition([0.0, 0.5, 1.0])
    kernel = np.zeros((2, 1, 2))
    kernel[0, 0, 1] = 1.0
    absorb = np.array([[0.0], [1.0]])
    m = AtomlessMDP(grid, 1, [(0,), (0,)], kernel, absorb,
                    np.zeros((2, 1, 1)), PieceMeasure(grid, [0.5, 0.5]))
    with pytest.raises(WeightConditionError, match=r"kernel\[0\]\[0\]"):
        weighted_transform(m, np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

def test_policy_validation():
    m = random_model(4, 3, 1, seed=7)
    phi = random_deterministic_policy(m, np.random.default_rng(0))
    validate_policy(m, phi)
    bad = DeterministicPolicy(StatePartition([0.0, 1.0]), [0])
    if m.grid.cell_count > 1:
        with pytest.raises(Exception):
            validate_policy(m, bad)


def test_policy_validation_names_first_offending_interval():
    grid = StatePartition([0.0, 0.5, 1.0])
    m = AtomlessMDP(grid, 2, [(0,), (1,)], np.zeros((2, 2, 2)), np.ones((2, 2)),
                    np.zeros((2, 2, 1)), PieceMeasure(grid, [0.5, 0.5]))
    fine = StatePartition([0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ModelFormatError, match=r"policy\[1\]: unavailable action 1 in cell 0"):
        validate_policy(m, DeterministicPolicy(fine, [0, 1, 0, 0]))
    with pytest.raises(ModelFormatError, match=r"policy\[2\]: mass on an unavailable action"):
        validate_policy(m, StationaryPolicy(fine, [[1, 0], [1, 0], [0.5, 0.5], [0, 1]]))
    with pytest.raises(PartitionMismatchError, match="policy interval 0 straddles"):
        validate_policy(m, DeterministicPolicy(StatePartition([0.0, 1.0]), [1]))
    validate_policy(m, DeterministicPolicy(fine, [0, 0, 1, 1]))


def test_stationary_policy_rejects_non_finite_probabilities():
    with pytest.raises(ValueError, match="finite"):
        StationaryPolicy(StatePartition([0.0, 1.0]), [[np.nan, 1.0]])


def test_cell_action_weights_sub_cell_split():
    m = builtin("unit-interval-onestep")
    phi = DeterministicPolicy(StatePartition([0.0, 0.3, 1.0]), [1, 0])
    w = cell_action_weights(m, phi)
    assert w[0].tolist() == pytest.approx([0.7, 0.3])


def test_cell_action_weights_stationary():
    m = builtin("unit-interval-onestep")
    pi = StationaryPolicy(StatePartition([0.0, 1.0]), [[0.25, 0.75]])
    w = cell_action_weights(m, pi)
    assert w[0].tolist() == pytest.approx([0.25, 0.75])


def test_canonical_merges_equal_actions():
    phi = DeterministicPolicy(StatePartition([0.0, 0.3, 0.6, 1.0]), [1, 1, 0])
    c = phi.canonical()
    assert c.partition.points.tolist() == [0.0, 0.6, 1.0]
    assert c.actions.tolist() == [1, 0]


def test_deterministic_policy_equality_modulo_partition():
    a = DeterministicPolicy(StatePartition([0.0, 0.5, 1.0]), [1, 1])
    b = DeterministicPolicy(StatePartition([0.0, 1.0]), [1])
    assert a == b


# ---------------------------------------------------------------------------
# doubling corridor diagnostics chain
# ---------------------------------------------------------------------------

def test_corridor_always_continue_expected_time():
    chain = doubling_corridor(10)
    assert chain.expected_absorption_time(always_continue) == 2.0


def test_corridor_stop_policies_expected_time():
    chain = doubling_corridor(10)
    for n in range(0, 11):
        expected = 3.0 - 2.0 ** (-n + 1)
        assert chain.expected_absorption_time(stop_policy(n)) == expected


def test_corridor_non_uniform_tail_pattern():
    # the stop-at-n policy leaves exactly unit expected mass beyond time n
    chain = doubling_corridor(8)
    for n in range(1, 9):
        tail = chain.tail_mass(stop_policy(n), n, horizon=n + 2**n + 2)
        assert tail == pytest.approx(1.0, abs=1e-12)


def test_corridor_sup_expected_time_truncation():
    chain = doubling_corridor(6)
    # worst start is the head of the longest corridor: 2^6 steps to absorb
    assert chain.sup_expected_time() >= 2.0**6
    surv = chain.max_survival(8)
    assert surv[0] == 1.0
    assert all(a >= b for a, b in zip(surv, surv[1:]))


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------

def test_builtin_unit_interval():
    m = builtin("unit-interval-onestep")
    assert m.action_count == 2
    assert m.rewards[0, 1, 0] == 1.0
    assert m.certificate().L == 1.0


def test_builtin_unknown_name():
    with pytest.raises(ModelFormatError):
        builtin("nope")


def test_random_model_is_valid_and_certifiable():
    for seed in range(5):
        m = random_model(8, 3, 3, seed=seed)
        cert = m.certificate()
        assert np.isfinite(cert.L)
        assert cert.L >= 1.0
