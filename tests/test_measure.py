"""Tests for interval partitions and piecewise-uniform measures."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from atomless_mdp.errors import DegenerateMeasureError
from atomless_mdp.measure import (
    MERGE_TOL,
    PieceMeasure,
    StatePartition,
    total_variation,
)


def pm(points, masses):
    return PieceMeasure(StatePartition(points), masses)


# ---------------------------------------------------------------------------
# partitions / refine
# ---------------------------------------------------------------------------

def test_refine_identity():
    a = StatePartition([0.0, 1.0])
    assert a.refine(a).points.tolist() == [0.0, 1.0]


def test_refine_sorted_union():
    a = StatePartition([0.0, 0.5, 1.0])
    b = StatePartition([0.0, 0.25, 1.0])
    assert a.refine(b).points.tolist() == [0.0, 0.25, 0.5, 1.0]


def test_refine_thirds():
    a = StatePartition([0.0, 1 / 3, 1.0])
    b = StatePartition([0.0, 2 / 3, 1.0])
    assert a.refine(b).points.tolist() == [0.0, 1 / 3, 2 / 3, 1.0]


def test_refine_merges_near_duplicates():
    a = StatePartition([0.0, 0.5, 1.0])
    b = StatePartition([0.0, 0.5 + 1e-14, 1.0])
    assert a.refine(b).cell_count == 2


def test_partition_validation():
    with pytest.raises(ValueError):
        StatePartition([0.0, 0.5])
    with pytest.raises(ValueError):
        StatePartition([0.0, 0.7, 0.3, 1.0])
    with pytest.raises(ValueError):
        StatePartition([0.1, 1.0])


def test_partition_widths_are_stored_read_only():
    part = StatePartition([0.0, 0.1, 0.35, 1.0])
    assert part.widths is part.widths
    assert np.array_equal(part.widths, np.diff(part.points))
    with pytest.raises(ValueError):
        part.widths[0] = 0.5
    # the last breakpoint snaps to 1, which would leave a zero-width cell
    with pytest.raises(ValueError, match="strictly increasing"):
        StatePartition([0.0, 1.0, 1.0 + 5e-13])


def test_refines_and_index_map():
    coarse = StatePartition([0.0, 0.5, 1.0])
    fine = StatePartition([0.0, 0.25, 0.5, 0.75, 1.0])
    assert fine.refines(coarse)
    assert not coarse.refines(fine)
    assert fine.index_map_from(coarse).tolist() == [0, 0, 1, 1]
    owner, frac = fine.rebin_from(coarse)
    assert owner.tolist() == [0, 0, 1, 1] and frac.tolist() == [0.5] * 4
    with pytest.raises(ValueError, match="does not refine"):
        coarse.rebin_from(fine)
    with pytest.raises(ValueError, match="does not refine"):
        StatePartition([0.0, 0.3, 1.0]).rebin_from(coarse)


def test_partition_is_not_hashable():
    # equality holds within MERGE_TOL, which no hash of the points respects
    a = StatePartition([0.0, 0.5, 1.0])
    assert a == StatePartition([0.0, 0.5 + 1e-13, 1.0])
    with pytest.raises(TypeError):
        hash(a)


# ---------------------------------------------------------------------------
# cdf
# ---------------------------------------------------------------------------

def test_cdf_uniform_midpoint():
    assert pm([0, 1], [1.0]).cdf(0.5) == 0.5


def test_cdf_within_first_interval():
    assert pm([0, 0.5, 1], [2.0, 0.0]).cdf(0.25) == 1.0


def test_cdf_at_zero_is_zero():
    assert pm([0, 0.3, 1], [0.4, 1.1]).cdf(0.0) == 0.0


def test_cdf_endpoints_and_domain():
    m = pm([0, 0.5, 1], [0.25, 0.5])
    assert m.cdf(1.0) == pytest.approx(m.total)
    with pytest.raises(ValueError):
        m.cdf(-0.1)
    with pytest.raises(ValueError):
        m.cdf(1.1)


def test_degenerate_interval_has_zero_mass():
    m = pm([0, 0.5, 1], [0.25, 0.5])
    for x in (0.0, 0.3, 0.5, 1.0):
        assert m.mass_of(x, x) == 0.0


# ---------------------------------------------------------------------------
# quantile
# ---------------------------------------------------------------------------

def test_quantile_uniform():
    assert pm([0, 1], [1.0]).quantile(0.5) == (0.5, 0.5)


def test_quantile_flat_region():
    m = pm([0, 0.25, 0.75, 1], [1.0, 0.0, 1.0])
    assert m.quantile(0.5) == (0.25, 0.75)


def test_quantile_alpha_one():
    assert pm([0, 1], [1.0]).quantile(1.0) == (1.0, 1.0)


def test_quantile_zero_mass_raises():
    with pytest.raises(DegenerateMeasureError):
        pm([0, 1], [0.0]).quantile(0.5)


def test_quantile_inverts_cdf_and_gap_has_zero_mass():
    m = pm([0, 0.2, 0.4, 0.7, 1], [0.5, 0.0, 1.5, 0.25])
    for alpha in (0.0, 0.1, 0.2, 2 / 9, 0.5, 0.9, 1.0):
        b_min, b_max = m.quantile(alpha)
        assert b_min <= b_max
        assert m.cdf(b_min) == pytest.approx(alpha * m.total, abs=1e-15)
        assert m.cdf(b_max) == pytest.approx(alpha * m.total, abs=1e-15)
        assert m.mass_of(b_min, b_max) == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------------
# total variation
# ---------------------------------------------------------------------------

def test_tv_identity():
    m = pm([0, 0.3, 1], [0.4, 0.6])
    assert total_variation(m, m) == 0.0


def test_tv_disjoint_supports():
    m1 = PieceMeasure.from_intervals([(0.0, 0.5, 1.0)])
    m2 = PieceMeasure.from_intervals([(0.5, 1.0, 1.0)])
    assert total_variation(m1, m2) == 2.0


def test_tv_cellwise():
    m1 = pm([0, 0.5, 1], [1.0, 1.0])
    m2 = pm([0, 0.5, 1], [2.0, 0.0])
    assert total_variation(m1, m2) == 2.0


def test_tv_across_partitions():
    # same measure expressed on different partitions
    m1 = pm([0, 1], [1.0])
    m2 = pm([0, 0.25, 1], [0.25, 0.75])
    assert total_variation(m1, m2) == 0.0
    assert m1 == m2


# ---------------------------------------------------------------------------
# mass_below / split_at
# ---------------------------------------------------------------------------

def test_split_uniform():
    m = pm([0, 1], [1.0])
    assert m.mass_below(0.3) == pytest.approx(0.3)
    s = m.split_at(0.3)
    assert s.masses.tolist() == pytest.approx([0.3, 0.7])


def test_split_at_existing_breakpoint_is_noop():
    m = pm([0, 0.5, 1], [0.2, 0.8])
    assert m.split_at(0.5) is m


def test_mass_below_zero_density_region():
    m = pm([0, 0.5, 1], [0.0, 1.0])
    assert m.mass_below(0.25) == 0.0


def test_split_keeps_breakpoints_closer_than_merge_tol():
    m = pm([0, 0.5, np.nextafter(0.5, 1), 1], [0.25, 0.5, 0.25])
    s = m.split_at(0.3)
    assert s.partition.points.tolist() == [0, 0.3, 0.5, np.nextafter(0.5, 1), 1]
    assert s.total == 1.0
    assert s.masses.tolist() == pytest.approx([0.15, 0.1, 0.5, 0.25], abs=1e-15)


def test_split_preserves_cdf_everywhere():
    m = pm([0, 0.4, 1], [0.3, 0.7])
    s = m.split_at(0.123)
    for b in np.linspace(0, 1, 41):
        assert s.cdf(b) == pytest.approx(m.cdf(b), abs=1e-15)
    assert s.total == pytest.approx(m.total)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

def masses_strategy(n):
    return st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=n,
        max_size=n,
    )


@st.composite
def piece_measures(draw, max_cells=6):
    n = draw(st.integers(min_value=1, max_value=max_cells))
    cuts = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=0.99),
            min_size=n - 1,
            max_size=n - 1,
            unique=True,
        )
    )
    part = StatePartition(sorted([0.0, *cuts, 1.0]))
    masses = draw(masses_strategy(part.cell_count))
    return PieceMeasure(part, masses)


@given(piece_measures(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_cdf_monotone_and_lipschitz(m, b):
    eps = 1e-3
    hi = min(1.0, b + eps)
    d_max = float(m.densities().max(initial=0.0))
    assert m.cdf(hi) >= m.cdf(b) - 1e-15
    assert m.cdf(hi) - m.cdf(b) <= d_max * (hi - b) + 1e-12


@given(piece_measures(), st.floats(min_value=0.0, max_value=1.0))
@example(pm([0, 0.5, 1], [1.0, 1e-11]), 1.0)
@settings(max_examples=60, deadline=None)
def test_quantile_inversion_property(m, alpha):
    if m.total <= 0:
        return
    b_min, b_max = m.quantile(alpha)
    target = alpha * m.total
    scale = max(1.0, m.total)
    assert abs(m.cdf(b_min) - target) <= 1e-12 * scale
    assert abs(m.cdf(b_max) - target) <= 1e-12 * scale
    assert m.mass_of(b_min, b_max) <= 1e-12 * scale


@given(piece_measures(), piece_measures(), piece_measures())
@settings(max_examples=40, deadline=None)
def test_tv_triangle_inequality(m1, m2, m3):
    d12 = total_variation(m1, m2)
    d23 = total_variation(m2, m3)
    d13 = total_variation(m1, m3)
    assert d13 <= d12 + d23 + 1e-10


@given(piece_measures(), st.floats(min_value=0.0, max_value=1.0))
@example(pm([0, 0.5, np.nextafter(0.5, 1), 1], [0.25, 0.5, 0.25]), 0.3)
@example(pm([0, 0.01, np.nextafter(0.01, 1), 0.25, 0.375, 0.75, 1], [0, 1, 0, 0, 0, 0]), 0.5)
@settings(max_examples=60, deadline=None)
def test_split_preserves_total_and_cdf(m, b):
    s = m.split_at(b)
    assert s.total == pytest.approx(m.total, abs=1e-12)
    for x in (0.0, 0.33, b, 0.77, 1.0):
        assert s.cdf(x) == pytest.approx(m.cdf(x), abs=1e-12)


@given(piece_measures(), st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=4),
       st.booleans())
@example(pm([0, 0.5, np.nextafter(0.5, 1), 1], [0.25, 0.5, 0.25]), [0.3], True)
@example(pm([0, 0.01, 1], [1.0, 3.0]), [np.nextafter(0.01, 0), 0.5, 0.7], False)
@settings(max_examples=60, deadline=None)
def test_rebin_shares_and_masses(m, cuts, ulp_cells):
    coarse = m.partition
    extra = np.array(cuts)
    if ulp_cells:
        extra = np.concatenate((extra, np.nextafter(extra, 1.0)))
    fine = StatePartition(np.union1d(coarse.points, extra[(extra > 0.0) & (extra < 1.0)]))
    owner, frac = fine.rebin_from(coarse)
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    count = np.bincount(owner, minlength=coarse.cell_count)
    assert np.all(np.abs(np.bincount(owner, frac, coarse.cell_count) - 1.0) <= count * eps)
    # relative to each coarse mass, plus one underflow step per product
    kept = np.bincount(owner, m.refined_to(fine).masses, coarse.cell_count)
    assert np.all(np.abs(kept - m.masses) <= count * (eps * m.masses + tiny))
    # the reverse pair is not nested once a new breakpoint stands apart
    if any(np.abs(coarse.points - c).min() > MERGE_TOL for c in fine.points):
        with pytest.raises(ValueError, match="does not refine"):
            coarse.rebin_from(fine)
