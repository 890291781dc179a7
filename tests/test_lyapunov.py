"""Tests for vector-measure ranges, hulls, and set construction."""

import importlib

import numpy as np
import pytest

from atomless_mdp.lyapunov import (
    IntervalSet,
    VectorMeasure,
    as_onestep_mdp,
    brute_force_range,
    find_set,
    range_hull,
)
from atomless_mdp.errors import ModelFormatError
from atomless_mdp.measure import PieceMeasure, StatePartition
from atomless_mdp.model import DeterministicPolicy
from atomless_mdp.occupancy import performance
from tests.test_derandomize import count_realizations


def lebesgue(cells=1):
    part = StatePartition(np.linspace(0.0, 1.0, cells + 1))
    return PieceMeasure(part, part.widths)


def vm_linear_second(cells=16):
    """Densities (1, 2x) discretized by cell averages of 2x."""
    base = lebesgue(cells)
    pts = base.partition.points
    mids = 0.5 * (pts[:-1] + pts[1:])
    return VectorMeasure(base, np.column_stack([np.ones(cells), 2.0 * mids]))


def random_vm(cells, criteria, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.uniform(0.05, 0.95, size=cells - 1))
    part = StatePartition([0.0, *cuts, 1.0])
    masses = rng.random(cells) + 0.1
    base = PieceMeasure(part, masses / masses.sum())
    return VectorMeasure(base, rng.uniform(0.0, scale, size=(cells, criteria)))


def union_of_cells_target(seed):
    """Random 512-cell two-criterion measure; the target integrates a union of cells."""
    vm = random_vm(512, 2, seed)
    rng = np.random.default_rng([seed, 1])
    if seed % 2 == 0:
        mask = rng.random(512) < 0.5
    else:
        mask = np.zeros(512, dtype=bool)
        for _ in range(rng.integers(2, 6)):
            start = rng.integers(0, 512)
            mask[start:start + rng.integers(1, 64)] = True
    return vm, vm.densities.T @ (vm.base.masses * mask)


def smooth_target(seed):
    """256-cell three-criterion measure with densities 1 + 0.8 sin(2 pi f x + phase);
    the target is lambda * total."""
    rng = np.random.default_rng(seed)
    base = lebesgue(256)
    pts = base.partition.points
    mids = 0.5 * (pts[:-1] + pts[1:])
    freq, phase = rng.uniform(0.5, 4.0, size=3), rng.uniform(0.0, 2 * np.pi, size=3)
    vm = VectorMeasure(base, 1.0 + 0.8 * np.sin(2 * np.pi * freq * mids[:, None] + phase))
    return vm, rng.uniform(0.2, 0.8) * vm.total()


# ---------------------------------------------------------------------------
# interval sets and integration
# ---------------------------------------------------------------------------

def test_interval_set_validation():
    with pytest.raises(ValueError):
        IntervalSet(((0.5, 0.4),))
    with pytest.raises(ValueError):
        IntervalSet(((0.0, 0.6), (0.5, 1.0)))


def test_interval_set_from_policy_and_complement():
    phi = DeterministicPolicy(StatePartition([0.0, 0.2, 0.7, 1.0]), [1, 0, 1])
    s = IntervalSet.from_policy(phi)
    assert s.intervals == ((0.0, 0.2), (0.7, 1.0))
    assert s.complement().intervals == ((0.2, 0.7),)
    assert s.measure() == pytest.approx(0.5)


def test_integrate_full_and_closed_form():
    vm = vm_linear_second(8)
    full = IntervalSet(((0.0, 1.0),))
    assert vm.integrate(full) == pytest.approx([1.0, 1.0], abs=1e-12)
    # cell-aligned sets integrate the true (1, 2x) exactly
    s = IntervalSet(((0.5, 1.0),))
    assert vm.integrate(s) == pytest.approx([0.5, 0.75], abs=1e-12)


# ---------------------------------------------------------------------------
# one-step reduction
# ---------------------------------------------------------------------------

def test_onestep_zero_density():
    base = lebesgue(4)
    vm = VectorMeasure(base, np.zeros((4, 2)))
    m = as_onestep_mdp(vm)
    phi = DeterministicPolicy(m.grid, [1, 1, 0, 1])
    assert np.allclose(performance(m, phi), 0.0)


def test_onestep_performance_matches_integration():
    vm = random_vm(6, 2, seed=3)
    m = as_onestep_mdp(vm)
    phi = DeterministicPolicy(StatePartition([0.0, 0.5, 1.0]), [1, 0])
    v = performance(m, phi, tol=1e-12)
    assert v == pytest.approx(vm.integrate(IntervalSet(((0.0, 0.5),))), abs=1e-12)


def test_onestep_weight_normalization_for_large_densities():
    base = lebesgue(3)
    vm = VectorMeasure(base, np.array([[500.0], [3.0], [80.0]]))
    m = as_onestep_mdp(vm)
    # the weighted rewards are density/(1+density) times the constant
    # weighted initial mass, so they are uniformly bounded by that constant
    weighted_mu = float((1.0 + vm.densities.sum(axis=1)) @ vm.base.masses)
    assert np.abs(m.rewards).max() <= weighted_mu + 1e-9
    phi = DeterministicPolicy(m.grid, [1, 1, 1])
    assert performance(m, phi, tol=1e-12) == pytest.approx(vm.total(), abs=1e-9)


# ---------------------------------------------------------------------------
# range hull
# ---------------------------------------------------------------------------

def test_hull_unit_density_is_unit_interval():
    vm = VectorMeasure(lebesgue(1), np.array([[1.0]]))
    hull = range_hull(vm, direction_count=2)
    assert hull.vertices.min() == pytest.approx(0.0, abs=1e-12)
    assert hull.vertices.max() == pytest.approx(1.0, abs=1e-12)
    assert hull.gap <= 1e-10


def test_hull_contains_linear_second_vertex():
    vm = vm_linear_second(16)
    hull = range_hull(vm, direction_count=90)
    # (0.5, 0.75) = integral over [0.5, 1] lies in the outer polytope and
    # within the inner hull up to the reported gap
    point = np.array([0.5, 0.75])
    assert hull.contains_in_outer(point, tol=1e-9)
    from atomless_mdp.geometry import distance_to_hull

    d, _, _ = distance_to_hull(hull.vertices, point)
    assert d <= hull.gap + 1e-9


@pytest.mark.parametrize("directions", [8, 64])
def test_hull_gap_bounds_a_thin_range(directions):
    # densities (1, 1 + 1e-7 x): the range is a sliver about 1e-8 wide; the
    # gap is finite and bounds every range point's distance to the inner
    # hull, which at 64 directions is the range itself
    from atomless_mdp.geometry import distance_to_hull

    base = lebesgue(12)
    pts = base.partition.points
    mids = 0.5 * (pts[:-1] + pts[1:])
    vm = VectorMeasure(base, np.column_stack([np.ones(12), 1.0 + 1e-7 * mids]))
    hull = range_hull(vm, direction_count=directions)
    far = max(distance_to_hull(hull.vertices, p)[0] for p in brute_force_range(vm))
    assert np.isfinite(hull.gap) and hull.gap >= far
    if directions == 8:
        assert far > 1e-9


def test_hull_gap_shrinks_with_directions():
    vm = random_vm(8, 2, seed=11)
    gap_coarse = range_hull(vm, direction_count=24).gap
    gap_fine = range_hull(vm, direction_count=360).gap
    assert gap_fine <= gap_coarse + 1e-12
    assert gap_fine <= 1e-3


def test_hull_builds_one_submodel(monkeypatch):
    # one SubmodelSpec serves every direction; the hull equals, bit for bit,
    # the one from a support call on the model per direction
    import atomless_mdp.scalar_dp as scalar_dp

    vm = vm_linear_second(16)
    model = as_onestep_mdp(vm)
    original = scalar_dp.SubmodelSpec.__init__
    built = []

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(scalar_dp.SubmodelSpec, "__init__", counting)
    hull = range_hull(vm, direction_count=360)
    assert len(built) == 1
    monkeypatch.undo()
    expected = [scalar_dp.support(model, b) for b in hull.directions]
    assert np.array_equal(hull.support_values, [h for h, _, _ in expected])
    assert np.array_equal(hull.direction_vertices, [v for _, _, v in expected])


@pytest.mark.parametrize("criteria", [4, 5])
def test_hull_contains_brute_force_range_beyond_three_criteria(criteria):
    from atomless_mdp.geometry import distance_to_hull

    vm = random_vm(8, criteria, seed=criteria)
    hull = range_hull(vm, direction_count=64)
    assert len(hull.directions) == 64 and np.isfinite(hull.gap)
    for p in brute_force_range(vm):
        assert hull.contains_in_outer(p, tol=1e-9)
        assert distance_to_hull(hull.vertices, p)[0] <= hull.gap


# ---------------------------------------------------------------------------
# find_set
# ---------------------------------------------------------------------------

def test_find_set_full_total():
    vm = random_vm(5, 2, seed=7)
    target = vm.total()
    s = find_set(vm, target, tol=1e-8)
    assert np.linalg.norm(vm.integrate(s) - target) <= 1e-8


def test_find_set_halfway_point_linear_density():
    vm = vm_linear_second(32)
    s = find_set(vm, np.array([0.5, 0.5]), tol=1e-7)
    assert np.linalg.norm(vm.integrate(s) - [0.5, 0.5]) <= 1e-7


def test_find_set_random_inner_targets():
    vm = random_vm(10, 2, seed=21)
    rng = np.random.default_rng(4)
    points = brute_force_range(vm)
    for _ in range(10):
        weights = rng.dirichlet(np.ones(4))
        picks = points[rng.integers(0, len(points), size=4)]
        target = weights @ picks
        s = find_set(vm, target, tol=1e-6)
        assert np.linalg.norm(vm.integrate(s) - target) <= 1e-6


def test_find_set_four_criteria():
    vm = random_vm(32, 4, seed=13)
    target = 0.5 * vm.total()
    s = find_set(vm, target, tol=1e-6)
    assert np.linalg.norm(vm.integrate(s) - target) <= 1e-6


def test_find_set_works_at_any_scale():
    # the (1, 2x) measure scaled by 1e8, at tol 1e-6 x 1e8: the hull
    # iteration's tolerance is relative to tol, so every attainable target
    # gets a set within tol
    scale = 1e8
    for cells in (32, 256):
        vm = vm_linear_second(cells)
        vm = VectorMeasure(vm.base, scale * vm.densities)
        rng = np.random.default_rng(cells)
        for _ in range(10):
            target = rng.uniform(0.05, 0.95) * vm.total()
            s = find_set(vm, target, tol=1e-6 * scale)
            assert np.linalg.norm(vm.integrate(s) - target) <= 1e-6 * scale, cells


def test_find_set_infeasible_target():
    vm = random_vm(4, 2, seed=2)
    with pytest.raises(ModelFormatError, match="outside"):
        find_set(vm, vm.total() + 1.0, tol=1e-8)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_find_set_rejects_non_finite_target(bad):
    vm = random_vm(4, 2, seed=2)
    with pytest.raises(ModelFormatError, match="target: non-finite entry"):
        find_set(vm, [bad, 0.4], tol=1e-8)


def test_find_set_convex_combination_of_returned_sets():
    vm = random_vm(6, 2, seed=9)
    s1 = find_set(vm, 0.8 * vm.total(), tol=1e-8)
    s2 = IntervalSet(((0.0, 0.31),))
    v1, v2 = vm.integrate(s1), vm.integrate(s2)
    for lam in (0.25, 0.5, 0.75):
        target = lam * v1 + (1 - lam) * v2
        s = find_set(vm, target, tol=1e-6)
        assert np.linalg.norm(vm.integrate(s) - target) <= 1e-6


def test_find_set_derandomizes_once(monkeypatch):
    # one fold at 0.8 tol and one realization per pairwise mix, on
    # union-of-cells and smooth targets
    lyapunov = importlib.import_module("atomless_mdp.lyapunov")
    module = importlib.import_module("atomless_mdp.derandomize")
    runs, mixes = [], []
    # the fold goes through mix_pair's unchecked body, _mix
    original_fold, original_mix = lyapunov._fold, module._mix

    def counting_fold(*args, **kwargs):
        runs.append(args[3])
        return original_fold(*args, **kwargs)

    def counting_mix(*args, **kwargs):
        mixes.append(args[3])
        return original_mix(*args, **kwargs)

    monkeypatch.setattr(lyapunov, "_fold", counting_fold)
    monkeypatch.setattr(module, "_mix", counting_mix)
    realizations = count_realizations(monkeypatch)
    cases = ([union_of_cells_target(seed) for seed in (0, 1, 2)]
             + [smooth_target(seed) for seed in (4, 23, 30)])
    for k, (vm, target) in enumerate(cases):
        runs.clear()
        mixes.clear()
        realizations.clear()
        s = find_set(vm, target, tol=1e-6)
        assert runs == [0.8 * 1e-6], k
        assert len(realizations) == len(mixes), k
        assert np.linalg.norm(vm.integrate(s) - target) <= 1e-6, k


def test_find_set_folds_its_own_hull_answer(monkeypatch):
    # no second hull iteration over a stationary mixture
    module = importlib.import_module("atomless_mdp.derandomize")

    def no_caratheodory(*args, **kwargs):
        raise AssertionError("find_set decomposed its target again")

    monkeypatch.setattr(module, "caratheodory", no_caratheodory)
    vm, target = smooth_target(4)
    s = find_set(vm, target, tol=1e-6)
    assert np.linalg.norm(vm.integrate(s) - target) <= 1e-6


# ---------------------------------------------------------------------------
# brute force oracle
# ---------------------------------------------------------------------------

def test_brute_force_single_cell():
    vm = VectorMeasure(lebesgue(1), np.array([[1.0]]))
    pts = brute_force_range(vm)
    assert sorted(pts[:, 0].tolist()) == [0.0, 1.0]


def test_brute_force_two_cells():
    vm = VectorMeasure(lebesgue(2), np.array([[1.0], [1.0]]))
    pts = np.unique(np.round(brute_force_range(vm)[:, 0], 12))
    assert pts.tolist() == [0.0, 0.5, 1.0]


def test_brute_force_size_guard():
    vm = random_vm(13, 1, seed=1)
    with pytest.raises(ValueError):
        brute_force_range(vm)


def test_brute_force_inside_outer_polytope():
    vm = random_vm(9, 2, seed=31)
    hull = range_hull(vm, direction_count=120)
    for p in brute_force_range(vm):
        assert hull.contains_in_outer(p, tol=1e-9)


def test_integrate_unions_of_cells_matches_brute_force():
    # every union of whole cells, as the fewest intervals
    vm = random_vm(10, 3, seed=43, scale=2.0)
    pts = vm.base.partition.points
    scale = 1e-15 * float(vm.total().max())
    for subset, point in enumerate(brute_force_range(vm)):
        cells = [k for k in range(10) if subset >> k & 1]
        runs = []
        for k in cells:
            if runs and runs[-1][1] == pts[k]:
                runs[-1] = (runs[-1][0], float(pts[k + 1]))
            else:
                runs.append((float(pts[k]), float(pts[k + 1])))
        assert np.abs(vm.integrate(IntervalSet(tuple(runs))) - point).max() <= scale, subset


def test_find_set_matches_cell_aligned_points():
    vm = random_vm(10, 2, seed=41)
    points = brute_force_range(vm)
    rng = np.random.default_rng(0)
    for idx in rng.integers(0, len(points), size=6):
        target = points[idx]
        s = find_set(vm, target, tol=1e-8)
        assert np.linalg.norm(vm.integrate(s) - target) <= 1e-8
