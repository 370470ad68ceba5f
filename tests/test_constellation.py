from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slpsim.constellation import (
    AxisClass,
    SUPPORTED_ORDERS,
    build_constellation,
    classify_component,
    demodulate,
    modulate,
)
from slpsim.errors import ConfigurationError


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_unit_mean_energy(order):
    spec = build_constellation(order)
    assert abs(np.mean(np.abs(spec.points) ** 2) - 1.0) <= 1e-12


def test_16qam_levels():
    spec = build_constellation(16)
    np.testing.assert_allclose(spec.levels, np.array([-3, -1, 1, 3]) / np.sqrt(10))
    assert len(spec.points) == 16


def test_64qam_levels():
    spec = build_constellation(64)
    np.testing.assert_allclose(spec.levels, np.arange(-7, 8, 2) / np.sqrt(42))


def test_qpsk_all_corner_points():
    spec = build_constellation(4)
    np.testing.assert_allclose(spec.levels, np.array([-1, 1]) / np.sqrt(2))
    for p in spec.points:
        c = classify_component(spec, complex(p))
        assert (c.real_class, c.imag_class) == (AxisClass.OUTER, AxisClass.OUTER)


def test_unsupported_order_rejected():
    with pytest.raises(ConfigurationError):
        build_constellation(32)


def test_levels_symmetric_and_increasing():
    for order in SUPPORTED_ORDERS:
        levels = build_constellation(order).levels
        assert np.all(np.diff(levels) > 0)
        np.testing.assert_allclose(levels, -levels[::-1])


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_gray_adjacency(order):
    """Axis-adjacent constellation points differ in exactly one label bit."""
    spec = build_constellation(order)
    by_value = {complex(p): label for label, p in enumerate(spec.points)}
    step = spec.levels[1] - spec.levels[0] if spec.levels.size > 1 else None
    checked = 0
    for p, label in by_value.items():
        for delta in (step, 1j * step):
            neighbor = by_value.get(complex(p + delta))
            if neighbor is not None:
                assert bin(label ^ neighbor).count("1") == 1
                checked += 1
    assert checked > 0


def test_classify_16qam_types():
    spec = build_constellation(16)
    c = classify_component(spec, (1 + 1j) / np.sqrt(10))
    assert (c.real_class, c.imag_class) == (AxisClass.INNER, AxisClass.INNER)
    c = classify_component(spec, (3 + 1j) / np.sqrt(10))
    assert (c.real_class, c.imag_class) == (AxisClass.OUTER, AxisClass.INNER)
    c = classify_component(spec, (1 + 3j) / np.sqrt(10))
    assert (c.real_class, c.imag_class) == (AxisClass.INNER, AxisClass.OUTER)
    c = classify_component(spec, (3 + 3j) / np.sqrt(10))
    assert (c.real_class, c.imag_class) == (AxisClass.OUTER, AxisClass.OUTER)


def test_classify_partition_16qam():
    spec = build_constellation(16)
    classes = [classify_component(spec, complex(p)) for p in spec.points]
    types = Counter((c.real_class, c.imag_class) for c in classes)
    assert len(types) == 4 and set(types.values()) == {4}


def test_classify_rejects_foreign_point():
    spec = build_constellation(16)
    with pytest.raises(ValueError):
        classify_component(spec, 0.5 + 0.5j)


def test_modulate_label_zero():
    # all-zero bits map to the lowest level on both axes under the Gray map
    spec = build_constellation(16)
    sym = modulate(spec, [0, 0, 0, 0])
    assert sym[0] == spec.points[0]
    assert sym[0] == complex(spec.levels[0], spec.levels[0])


def test_modulate_qpsk_bijective():
    spec = build_constellation(4)
    syms = modulate(spec, [0, 0, 0, 1, 1, 1, 1, 0])
    assert len(set(syms)) == 4


def test_modulate_length_mismatch():
    spec = build_constellation(16)
    with pytest.raises(ValueError):
        modulate(spec, [0, 1, 0])


@settings(max_examples=40)
@given(
    order=st.sampled_from(SUPPORTED_ORDERS),
    data=st.data(),
)
def test_mod_demod_roundtrip(order, data):
    spec = build_constellation(order)
    n = data.draw(st.integers(min_value=1, max_value=30))
    bits = data.draw(
        st.lists(st.integers(0, 1), min_size=n * spec.bits_per_symbol,
                 max_size=n * spec.bits_per_symbol)
    )
    syms = modulate(spec, bits)
    points, bits_hat = demodulate(spec, syms)
    np.testing.assert_array_equal(bits_hat.reshape(-1), np.asarray(bits))
    np.testing.assert_allclose(points, syms)


def test_demodulate_nearest_neighbor():
    spec = build_constellation(16)
    point, _ = demodulate(spec, (2.9 + 1.1j) / np.sqrt(10))
    assert point == pytest.approx((3 + 1j) / np.sqrt(10))


def test_demodulate_saturates_far_samples():
    spec = build_constellation(16)
    point, _ = demodulate(spec, 100 + 100j)
    assert point == pytest.approx((3 + 3j) / np.sqrt(10))


def test_demodulate_exact_point_and_scalar_shape():
    spec = build_constellation(64)
    p = complex(spec.points[17])
    point, bits = demodulate(spec, p)
    assert point == p
    assert bits.shape == (6,)


def test_demodulate_boundary_tie_prefers_smaller_level():
    spec = build_constellation(16)
    boundary = 2 / np.sqrt(10)
    point, _ = demodulate(spec, complex(boundary, boundary))
    assert point == pytest.approx((1 + 1j) / np.sqrt(10))
    point, _ = demodulate(spec, complex(-boundary, -boundary))
    assert point == pytest.approx((-1 - 1j) / np.sqrt(10))
