import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slpsim.errors import DegenerateMarginError
from slpsim.power_alloc import (
    allocate_in_block,
    allocate_uniform,
    per_symbol_rescaling,
    verify_kkt,
)

from power_oracle import solve_maxmin_power

margins_strategy = st.lists(
    st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
    min_size=1,
    max_size=50,
).map(np.array)


def test_equal_margins_split_evenly():
    alloc = allocate_in_block([1.0, 1.0, 1.0, 1.0], 1.0)
    np.testing.assert_allclose(alloc.powers, 0.25)
    assert alloc.rescale == pytest.approx(2.0)


def test_closed_form_two_symbols():
    alloc = allocate_in_block([1.0, 2.0], 1.0)
    np.testing.assert_allclose(alloc.powers, [0.8, 0.2])
    assert alloc.rescale == pytest.approx(np.sqrt(1.25))
    products = np.array([1.0, 2.0]) * np.sqrt(alloc.powers)
    np.testing.assert_allclose(products, products[0])
    assert products[0] == pytest.approx(0.894427, abs=1e-6)


def test_closed_form_non_unit_budget():
    alloc = allocate_in_block([1.0, 2.0, 2.0], 1.5)
    np.testing.assert_allclose(alloc.powers, [1.0, 0.25, 0.25])
    assert alloc.rescale == pytest.approx(1.0)


def test_degenerate_margin_raises():
    with pytest.raises(DegenerateMarginError):
        allocate_in_block([1.0, 0.0], 1.0)
    with pytest.raises(DegenerateMarginError):
        allocate_in_block([1.0, -0.5], 1.0)


def test_uniform_allocation():
    powers = allocate_uniform(10)
    assert powers.shape == (10,)
    np.testing.assert_allclose(powers, 0.1)
    np.testing.assert_allclose(allocate_uniform(1), [1.0])
    np.testing.assert_allclose(allocate_uniform(200), 0.005)


def test_per_symbol_rescaling_values():
    assert per_symbol_rescaling(1.0, 1.0) == 1.0
    assert per_symbol_rescaling(2.0, 0.25) == pytest.approx(1.0)
    assert per_symbol_rescaling(1.0, 0.8) == pytest.approx(1.118034, abs=1e-6)
    with pytest.raises(ValueError):
        per_symbol_rescaling(0.0, 1.0)
    with pytest.raises(ValueError):
        per_symbol_rescaling(1.0, 0.0)
    # arrays give the scalar values elementwise, and any bad entry raises
    margins, powers = np.array([0.5, 1.0, 2.0]), np.array([0.2, 0.3, 0.5])
    np.testing.assert_array_equal(
        per_symbol_rescaling(margins, powers),
        [per_symbol_rescaling(t, p) for t, p in zip(margins, powers)],
    )
    with pytest.raises(DegenerateMarginError):
        per_symbol_rescaling(np.array([1.0, 0.0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="powers"):
        per_symbol_rescaling(margins, np.array([0.5, 0.5, 0.0]))


def test_kkt_accepts_closed_form():
    margins = np.array([1.0, 2.0])
    alloc = allocate_in_block(margins, 1.0)
    cert = verify_kkt(margins, alloc.powers, 1.0)
    assert cert.passed
    assert cert.stationarity_residual < 1e-9
    assert cert.complementarity_residual < 1e-9
    assert cert.primal_residual < 1e-9


def test_kkt_flags_uniform_as_suboptimal():
    margins = np.array([1.0, 2.0])
    cert = verify_kkt(margins, np.array([0.5, 0.5]), 1.0)
    assert not cert.passed
    assert cert.complementarity_residual > 0.1
    assert cert.primal_residual < 1e-12  # budget itself is fine


def test_kkt_single_symbol_trivial():
    cert = verify_kkt(np.array([3.0]), np.array([2.0]), 2.0)
    assert cert.passed


def test_kkt_flags_budget_violation():
    margins = np.array([1.0, 2.0])
    powers = allocate_in_block(margins, 1.0).powers * 1.01
    cert = verify_kkt(margins, powers, 1.0)
    assert not cert.passed
    assert cert.primal_residual == pytest.approx(0.01, rel=1e-6)


def test_oracle_matches_two_symbol_case():
    p = solve_maxmin_power(np.array([1.0, 2.0]), 1.0)
    np.testing.assert_allclose(p, [0.8, 0.2], atol=1e-8)


@settings(max_examples=100, deadline=None)
@given(margins=margins_strategy)
def test_oracle_agrees_with_closed_form(margins):
    closed = allocate_in_block(margins, 1.0).powers
    numeric = solve_maxmin_power(margins, 1.0)
    np.testing.assert_allclose(numeric, closed, rtol=1e-8, atol=1e-14)


@settings(max_examples=100, deadline=None)
@given(margins=margins_strategy)
def test_budget_and_margin_equalization(margins):
    alloc = allocate_in_block(margins, 1.0)
    assert np.sum(alloc.powers) == pytest.approx(1.0, abs=1e-12)
    products = margins * np.sqrt(alloc.powers)
    assert np.max(np.abs(products - products[0])) <= 1e-9 * products[0]
    # the per-symbol rescaling factors all equal the block value
    factors = [per_symbol_rescaling(t, p) for t, p in zip(margins, alloc.powers)]
    np.testing.assert_allclose(factors, alloc.rescale, rtol=1e-9)


@settings(max_examples=60, deadline=None)
@given(margins=margins_strategy, scale=st.floats(min_value=0.1, max_value=10.0))
def test_scale_laws(margins, scale):
    base = allocate_in_block(margins, 1.0)
    more_power = allocate_in_block(margins, scale)
    np.testing.assert_allclose(more_power.powers, base.powers * scale, rtol=1e-12)
    assert more_power.rescale == pytest.approx(base.rescale / np.sqrt(scale))
    bigger_margins = allocate_in_block(margins * scale, 1.0)
    np.testing.assert_allclose(bigger_margins.powers, base.powers, rtol=1e-12)
    assert bigger_margins.rescale == pytest.approx(base.rescale / scale)


@settings(max_examples=60, deadline=None)
@given(margins=margins_strategy)
def test_larger_margin_gets_less_power(margins):
    powers = allocate_in_block(margins, 1.0).powers
    order = np.argsort(margins)
    assert np.all(np.diff(powers[order]) <= 1e-15)
