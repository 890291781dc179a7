"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The random instances are seeded, so every run checks the same
frozen family of models.
"""

import time

import numpy as np
import pytest

from atomless_mdp.derandomize import (
    alpha_hat,
    derandomize,
    distance_to_performance_set,
    make_context,
    mix_pair,
    path_policy,
    tv_modulus,
)
from atomless_mdp.errors import CertifiedFailure
from atomless_mdp.lyapunov import VectorMeasure, brute_force_range, find_set, range_hull
from atomless_mdp.measure import PieceMeasure, StatePartition
from atomless_mdp.model import (
    absorption_certificate,
    discounted_to_absorbing,
    doubling_corridor,
    always_continue,
    random_deterministic_policy,
    random_model,
    random_stationary_policy,
    stop_policy,
)
from atomless_mdp.occupancy import (
    fixed_point_residual,
    occupancy,
    occupancy_total_variation,
    performance,
    policy_from_occupancy,
)
from atomless_mdp.scalar_dp import SubmodelSpec, support
from tests.test_model import one_cell_discounted


def acceptance_models(count=25, seed_base=1000):
    rng = np.random.default_rng(2026)
    models = []
    for k in range(count):
        cells = int(rng.integers(2, 9))        # M <= 8
        actions = int(rng.integers(2, 4))      # |A| <= 3
        criteria = int(rng.integers(1, 4))     # N <= 3
        models.append((random_model(cells, actions, criteria, seed=seed_base + k), rng))
    return models, rng


def test_criterion_1_main_theorem_quantitative():
    models, rng = acceptance_models()
    for model, _ in models:
        pi = random_stationary_policy(model, rng)
        started = time.perf_counter()
        phi, cert = derandomize(model, pi, tol=1e-5)
        elapsed = time.perf_counter() - started
        v_pi = performance(model, pi, tol=1e-12)
        v_phi = performance(model, phi, tol=1e-12)
        err = float(np.linalg.norm(v_phi - v_pi))
        assert err <= 1e-5 * (1.0 + float(np.linalg.norm(v_pi)))
        assert elapsed < 30.0
    print("\nACCEPTANCE 1 PASS: derandomize matches v(pi) within 1e-5*(1+|v|) "
          "on 25 random models, each instance < 30 s")


@pytest.mark.parametrize("criteria", [4, 5])
def test_criterion_1_beyond_three_criteria(criteria):
    # the acceptance-1 law with N fixed: each call meets the tolerance or
    # raises CertifiedFailure, and at least one call per N succeeds
    rng = np.random.default_rng(2026 + criteria)
    successes = 0
    for k in range(2):
        cells, actions = int(rng.integers(2, 9)), int(rng.integers(2, 4))
        model = random_model(cells, actions, criteria, seed=1000 * criteria + k)
        pi = random_stationary_policy(model, rng)
        v_pi = performance(model, pi, tol=1e-12)
        try:
            phi, _ = derandomize(model, pi, tol=1e-5)
        except CertifiedFailure:
            continue
        err = float(np.linalg.norm(performance(model, phi, tol=1e-12) - v_pi))
        assert err <= 1e-5 * (1.0 + float(np.linalg.norm(v_pi)))
        successes += 1
    assert successes >= 1


def test_criterion_2_deterministic_performance_set_convex():
    models, rng = acceptance_models()
    worst = 0.0
    for model, _ in models:
        for _ in range(25):
            phi0 = random_deterministic_policy(model, rng)
            phi1 = random_deterministic_policy(model, rng)
            lam = float(rng.random())
            _, cert = mix_pair(model, phi0, phi1, lam, tol=1e-5)
            worst = max(worst, cert.error)
        assert worst <= 1e-5
    print(f"\nACCEPTANCE 2 PASS: 25 random (phi0, phi1, lambda) triples per model "
          f"mix within 1e-5 (worst {worst:.2e})")


def test_criterion_3_occupancy_identities():
    rng = np.random.default_rng(33)
    tol = 1e-10
    for seed in range(8):
        model = random_model(int(rng.integers(2, 9)), 3, 2, seed=400 + seed)
        pi = random_stationary_policy(model, rng)
        q = occupancy(model, pi, tol=tol)
        assert fixed_point_residual(model, pi, q) <= tol
        assert q.total <= model.certificate().L + 1e-9
        sigma = policy_from_occupancy(q)
        q_sigma = occupancy(model, sigma, tol=tol)
        assert occupancy_total_variation(q, q_sigma) <= 1e-9
    print("\nACCEPTANCE 3 PASS: fixed-point residual <= tol, q(X) <= L, "
          "and the occupancy-to-policy roundtrip holds within 1e-9")


def test_criterion_4_path_law():
    model = random_model(7, 3, 2, seed=500)
    rng = np.random.default_rng(44)
    phi0 = random_deterministic_policy(model, rng)
    phi1 = random_deterministic_policy(model, rng)
    ctx = make_context(model, phi0, phi1)

    for alpha in np.linspace(0.0, 1.0, 21):
        t = ctx.threshold(float(alpha))
        assert abs(ctx.q.mass_below(t) - alpha * ctx.q.total) <= 1e-12

    for _ in range(50):
        alpha = float(rng.uniform(0, 1))
        delta = float(rng.uniform(0, 1 - alpha))
        q_a = occupancy(model, path_policy(ctx, alpha), tol=1e-12)
        q_b = occupancy(model, path_policy(ctx, alpha + delta), tol=1e-12)
        assert occupancy_total_variation(q_a, q_b) <= tv_modulus(ctx, delta) + 1e-9

    v0 = performance(model, path_policy(ctx, 0.0), tol=1e-12)
    v1 = performance(model, path_policy(ctx, 1.0), tol=1e-12)
    assert np.linalg.norm(v0 - performance(model, phi0, tol=1e-12)) <= 1e-12
    assert np.linalg.norm(v1 - performance(model, phi1, tol=1e-12)) <= 1e-10
    print("\nACCEPTANCE 4 PASS: threshold mass law exact to 1e-12, measured "
          "path TV below the certified modulus on 50 draws, endpoints reproduced")


def test_criterion_5_closed_form_anchors():
    for beta in (0.0, 0.5, 0.9):
        out = discounted_to_absorbing(one_cell_discounted(beta))
        cert = absorption_certificate(out)
        assert cert.L == pytest.approx(1.0 / (1.0 - beta), rel=1e-12)
        probs = np.ones((1, 1))
        from atomless_mdp.model import StationaryPolicy

        q = occupancy(out, StationaryPolicy(out.grid, probs), tol=1e-13)
        assert q.total == pytest.approx(1.0 / (1.0 - beta), rel=1e-10)

    chain = doubling_corridor(10)
    assert chain.expected_absorption_time(always_continue) == 2.0
    for n in range(0, 11):
        assert chain.expected_absorption_time(stop_policy(n)) == 3.0 - 2.0 ** (-n + 1)

    # weighted transform preserves performance policy by policy
    rng = np.random.default_rng(55)
    model = random_model(8, 3, 2, seed=600)
    ratio = np.einsum("iaj->ia", model.kernel)
    mask = model.available_mask()
    headroom = np.min(np.where(mask, (1.0 - ratio) / np.maximum(ratio, 1e-9), np.inf))
    c = min(1.0, 0.9 * headroom)
    w = 1.0 + c * rng.random(model.cell_count)
    from atomless_mdp.model import weighted_transform

    transformed = weighted_transform(model, w)
    for _ in range(20):
        phi = random_deterministic_policy(model, rng)
        v = performance(model, phi, tol=1e-12)
        v_t = performance(transformed, phi, tol=1e-12)
        assert np.linalg.norm(v - v_t) <= 1e-9
    print("\nACCEPTANCE 5 PASS: E T = 1/(1-beta) for beta in {0, 0.5, 0.9}, "
          "truncated-chain stop times exact, weighted transform preserves v within 1e-9")


def test_criterion_6_lyapunov_suite():
    rng = np.random.default_rng(66)
    cuts = np.sort(rng.uniform(0.05, 0.95, size=9))
    part = StatePartition([0.0, *cuts, 1.0])
    masses = rng.random(10) + 0.1
    base = PieceMeasure(part, masses / masses.sum())
    vm = VectorMeasure(base, rng.uniform(0.0, 1.0, size=(10, 2)))

    points = brute_force_range(vm)
    hull = range_hull(vm, direction_count=360)
    for p in points:
        assert hull.contains_in_outer(p, tol=1e-9)

    for _ in range(20):
        weights = rng.dirichlet(np.ones(5))
        picks = points[rng.integers(0, len(points), size=5)]
        target = weights @ picks
        s = find_set(vm, target, tol=1e-6)
        assert np.linalg.norm(vm.integrate(s) - target) <= 1e-6

    # densities (1, 2x) under Lebesgue: hit (0.5, 0.5) and verify against the
    # closed-form integrals of the true linear density
    cells = 2048
    fine = StatePartition(np.linspace(0.0, 1.0, cells + 1))
    lebesgue = PieceMeasure(fine, fine.widths)
    mids = 0.5 * (fine.points[:-1] + fine.points[1:])
    vm_lin = VectorMeasure(lebesgue, np.column_stack([np.ones(cells), 2.0 * mids]))
    s = find_set(vm_lin, np.array([0.5, 0.5]), tol=3e-7)
    true_integrals = np.array([
        sum(hi - lo for lo, hi in s.intervals),
        sum(hi * hi - lo * lo for lo, hi in s.intervals),
    ])
    assert np.linalg.norm(true_integrals - [0.5, 0.5]) <= 1e-6
    print("\nACCEPTANCE 6 PASS: cell-aligned brute force inside the outer polytope, "
          "20 inner targets hit within 1e-6, and the (0.5, 0.5) target for "
          "densities (1, 2x) verified by direct integration")


def test_criterion_7_distance_monotone_and_alpha_hat():
    model = random_model(6, 2, 2, seed=700)
    rng = np.random.default_rng(77)
    phi0 = random_deterministic_policy(model, rng)
    phi1 = random_deterministic_policy(model, rng)
    ctx = make_context(model, phi0, phi1)
    v0 = performance(model, phi0, tol=1e-12)
    v1 = performance(model, phi1, tol=1e-12)
    target = 0.35 * v0 + 0.65 * v1

    tol = 1e-8
    previous = -np.inf
    for alpha in np.arange(0.0, 1.0001, 0.01):
        res = distance_to_performance_set(ctx.submodel_at(min(float(alpha), 1.0)),
                                          target, tol=tol)
        assert res.g >= previous - 2 * tol
        previous = res.g

    assert alpha_hat(ctx, v1, tol=1e-7) == pytest.approx(1.0, abs=0.01)
    print("\nACCEPTANCE 7 PASS: G nondecreasing on the 0.01 grid within 2*tol "
          "and alpha_hat(v(phi1)) = 1")


def test_criterion_8_support_function_sanity():
    rng = np.random.default_rng(88)
    for seed in range(3):
        model = random_model(6, 3, 2, seed=800 + seed)
        sub = SubmodelSpec.full(model)
        for _ in range(50):
            b = rng.normal(size=2)
            h, _, _ = support(sub, b)
            pi = random_stationary_policy(model, rng)
            assert h >= float(b @ performance(model, pi, tol=1e-12)) - 1e-9
        for _ in range(50):
            b1, b2 = rng.normal(size=2), rng.normal(size=2)
            h1, _, _ = support(sub, b1)
            h2, _, _ = support(sub, b2)
            h12, _, _ = support(sub, b1 + b2)
            assert h12 <= h1 + h2 + 1e-9
    print("\nACCEPTANCE 8 PASS: h(b) dominates <b, v(pi)> on 50 draws per model "
          "and is subadditive within 1e-9")
