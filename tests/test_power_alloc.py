import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slpsim import slp_core
from slpsim.channel import generate_channel
from slpsim.constellation import build_constellation
from slpsim.errors import DegenerateMarginError
from slpsim.power_alloc import (
    P_T,
    allocate_in_block,
    allocate_uniform,
    per_symbol_rescaling,
    verify_kkt,
)

from ci_oracle import margin_oracle_for_instance
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
    with pytest.raises(DegenerateMarginError):  # a nan margin is no margin > 0 either
        allocate_in_block([0.5, np.nan], 1.0)
    for margins in ([], [[1.0, 2.0]]):
        with pytest.raises(ValueError, match="non-empty 1-D"):
            allocate_in_block(margins, 1.0)
    for budget in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="total power must be > 0"):
            allocate_in_block([1.0, 2.0], budget)


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
    with pytest.raises(ValueError, match="powers"):
        per_symbol_rescaling([0.5, 0.4], [0.5, np.nan])
    with pytest.raises(DegenerateMarginError):
        per_symbol_rescaling([0.5, np.nan], [0.5, 0.5])


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
    with pytest.raises(ValueError, match="powers and total power must be positive"):
        verify_kkt(margins, np.array([1.0, 0.0]), 1.0)
    for powers, budget in (([0.5, np.nan], 1.0), ([0.5, 0.5], np.nan)):
        with pytest.raises(ValueError, match="powers and total power must be positive"):
            verify_kkt(margins, np.array(powers), budget)
    with pytest.raises(DegenerateMarginError):
        verify_kkt(np.array([1.0, np.nan]), np.array([0.5, 0.5]), 1.0)


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


@pytest.mark.parametrize("users, antennas, block_len, order, corners, seed", [
    (2, 2, 3, 4, None, 1), (2, 2, 3, 16, None, 2), (3, 4, 4, 4, None, 3), (3, 4, 4, 16, None, 4),
    (2, 2, 3, 16, True, 5), (2, 2, 3, 16, False, 6),
], ids=["2x2-4qam", "2x2-16qam", "3x4-4qam", "3x4-16qam", "all-corner-16qam", "all-inner-16qam"])
def test_in_block_allocation_is_the_joint_block_optimum(users, antennas, block_len, order, corners, seed):
    """Per-symbol CI followed by the closed-form split is optimal among all
    block designs with one rescaling factor.

    That joint design is one CI problem over the block-diagonal channel
    diag(H, ..., H) with the block's symbols stacked: its margin is
    t* = sqrt(P_T / sum 1/t_m^2) = 1/f, reached with ||x_m||^2 = p_m.
    """
    rng = np.random.default_rng(seed)
    spec = build_constellation(order)
    H = generate_channel(users, antennas, rng)
    points = spec.points
    if corners is not None:  # every axis at the outermost level, or every axis at the innermost one
        level = spec.levels.max() if corners else spec.levels[spec.levels > 0].min()
        points = points[(np.abs(points.real) == level) & (np.abs(points.imag) == level)]
    symbols = points[rng.integers(0, len(points), (users, block_len))]
    _, margins = slp_core.solve_block(H, symbols, spec)  # raises unless every solve is OPTIMAL
    alloc = allocate_in_block(margins, P_T)

    block_channel = slp_core.ChannelRealization(np.kron(np.eye(block_len), H))
    joint = slp_core.build_instance(block_channel, symbols.T.ravel(), spec)
    if corners is not None:
        assert joint.outer.all() == corners and joint.outer.any() == corners
    sol = slp_core.solve_ci_max(joint)
    assert sol.status is slp_core.SolverStatus.OPTIMAL
    assert abs(sol.margin * alloc.rescale - 1.0) <= 1e-12
    energies = np.sum(np.abs(sol.x.reshape(block_len, antennas)) ** 2, axis=1)
    np.testing.assert_allclose(energies, alloc.powers, rtol=0, atol=1e-12)
    assert abs(margin_oracle_for_instance(joint) - 1.0 / alloc.rescale) <= 1e-4
