from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slpsim.constellation import (
    SUPPORTED_ORDERS,
    bit_errors,
    build_constellation,
    classify_component,
    demodulate,
    modulate,
)
from slpsim.channel import generate_channel, sample_noise, trial_rng
from slpsim.cli import run_experiment
from slpsim.link_sim import WORKERS_ENV, Experiment, LinkConfig, Scheme, quantize_broadcast, transmit


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
    mask = classify_component(spec, spec.points)
    re_outer, im_outer = mask[..., 0::2], mask[..., 1::2]
    assert re_outer.all() and im_outer.all()


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_each_order_has_one_read_only_spec(order):
    spec = build_constellation(order)
    assert build_constellation(order) is spec
    arrays = [value for value in vars(spec).values() if isinstance(value, np.ndarray)]
    assert arrays
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_a_sweep_builds_no_constellation_again(tmp_path, monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "1")
    cfg = LinkConfig(users=2, antennas=2, block_len=4, snr_db=(10.0, 20.0), channels=2,
                     experiment=Experiment.BER_SWEEP, out=str(tmp_path / "sweep.csv"))
    build_constellation(cfg.modulation)
    before = build_constellation.cache_info()
    assert run_experiment(cfg) == 0
    after = build_constellation.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


def test_unsupported_order_rejected():
    with pytest.raises(ValueError, match="unsupported modulation order 32"):
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
    points = np.array([1 + 1j, 3 + 1j, 1 + 3j, 3 + 3j]) / np.sqrt(10)
    mask = classify_component(spec, points)
    re_outer, im_outer = mask[..., 0::2], mask[..., 1::2]
    assert re_outer.tolist() == [False, True, False, True]
    assert im_outer.tolist() == [False, False, True, True]


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_classify_partition_16qam(order):
    spec = build_constellation(order)
    side = int(np.sqrt(order))
    mask = classify_component(spec, spec.points)
    re_outer, im_outer = mask[..., 0::2], mask[..., 1::2]
    # the two outermost levels of an axis, paired with every level of the other
    assert re_outer.sum() == im_outer.sum() == order * 2 // side
    types = Counter(zip(re_outer.tolist(), im_outer.tolist()))
    expected = {
        (True, True): 4,
        (True, False): 2 * (side - 2),
        (False, True): 2 * (side - 2),
        (False, False): (side - 2) ** 2,
    }
    assert types == {t: n for t, n in expected.items() if n}


def test_classify_rejects_foreign_point():
    spec = build_constellation(16)
    with pytest.raises(ValueError):
        classify_component(spec, 0.5 + 0.5j)


def _classify_by_distance_matrix(spec, points):
    """Reference rule: membership by the distance to every constellation point,
    outer by |component| against the outermost level."""
    flat = np.asarray(points, dtype=complex).reshape(-1)
    member = np.abs(flat[:, None] - spec.points).min(axis=1) <= 1e-9
    if not member.all():
        return None
    edge = spec.levels[-1] - 1e-9
    return np.abs(flat.real) >= edge, np.abs(flat.imag) >= edge


def _classify_or_none(spec, points):
    try:
        mask = classify_component(spec, points)
        return mask[..., 0::2].reshape(-1), mask[..., 1::2].reshape(-1)
    except ValueError:
        return None


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_classify_matches_the_distance_matrix_rule(order):
    spec = build_constellation(order)
    rng = np.random.default_rng(order)
    for _ in range(200):
        block = spec.points[rng.integers(0, order, (200, 12))]
        expected = _classify_by_distance_matrix(spec, block)
        np.testing.assert_array_equal(_classify_or_none(spec, block), expected)
    half_step = 0.5 * (spec.levels[1] - spec.levels[0])  # onto a decision boundary
    for base in (spec.points[0], spec.points[rng.integers(0, order)]):
        for offset in (0.5e-9, 0.7e-9 * (1 + 1j), 2e-9, 1e-3, half_step, complex(np.nan, 0)):
            point = np.array([base + offset])
            expected = _classify_by_distance_matrix(spec, point)
            got = _classify_or_none(spec, point)
            assert (got is None) == (expected is None), (base, offset)
            if expected is not None:
                np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_classify_and_demodulate_read_every_shape_through_the_interleaved_view(order):
    """A point's real axis is component 2k and its imaginary axis 2k+1, for a
    0-d point, a vector, a block and a transposed (non-contiguous) block."""
    spec = build_constellation(order)
    rng = np.random.default_rng(order)
    block = spec.points[rng.integers(0, order, (6, 5))]
    for points, shape in ((np.array(block[2, 3]), (2,)), (block[1], (10,)),
                          (block, (6, 10)), (block.T, (5, 12))):
        mask = classify_component(spec, points)
        assert mask.shape == shape
        re_outer, im_outer = _classify_by_distance_matrix(spec, points)
        np.testing.assert_array_equal(mask, np.stack([re_outer, im_outer], axis=-1).reshape(shape))

    r = block + 0.2 * (rng.standard_normal(block.shape) + 1j * rng.standard_normal(block.shape))
    nearest = np.abs(r[..., None] - spec.points).argmin(axis=-1)  # labels index spec.points
    labels = demodulate(spec, r[2, 3])
    assert isinstance(labels, np.ndarray) and labels.shape == () and labels == nearest[2, 3]
    labels = demodulate(spec, r.T)
    assert labels.shape == (5, 6)
    np.testing.assert_array_equal(labels, nearest.T)


def test_modulate_label_zero():
    # an all-zero payload maps to the lowest level on both axes under the Gray map
    spec = build_constellation(16)
    label, point = modulate(spec, bytes(1), ())
    assert label == 0
    assert point == spec.points[0]
    assert point == complex(spec.levels[0], spec.levels[0])


def test_modulate_qpsk_bijective():
    spec = build_constellation(4)
    labels, syms = modulate(spec, bytes([0b00011110]), (4,))
    assert labels.tolist() == [0, 1, 3, 2]
    assert len(set(syms)) == 4


def test_modulate_length_mismatch():
    # unpackbits would pad a short payload with zero bits
    spec = build_constellation(16)
    with pytest.raises(ValueError, match="needs 12 payload bits, got 8$"):
        modulate(spec, bytes(1), (3,))
    with pytest.raises(ValueError, match="needs 4 payload bits, got 0$"):
        modulate(spec, b"", (1, 1))


def _label_bits(labels, bits_per_symbol):
    """The bits a label carries, MSB-first, on a trailing axis."""
    return (np.asarray(labels)[..., None] >> np.arange(bits_per_symbol - 1, -1, -1)) & 1


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_modulate_reads_every_byte_value_as_labels_of_the_constellation(order):
    spec = build_constellation(order)
    payload = bytes(range(256)) * spec.bits_per_symbol  # 2048 whole symbols
    labels, points = modulate(spec, payload, (2048,))
    assert set(labels.tolist()) == set(range(order))
    np.testing.assert_array_equal(points, spec.points[labels])


@pytest.mark.parametrize("bps", [2, 4, 6, 8])
@pytest.mark.parametrize("users, block_len", [(1, 1), (3, 7), (4, 50), (12, 200)])
def test_modulate_labels_are_the_bits_of_the_next_payload_bytes(users, block_len, bps):
    # a trial's order: the channel, the payload bytes, the noise, then the broadcast error
    cfg = LinkConfig(users=users, antennas=users, block_len=block_len, modulation=1 << bps)
    sigma2 = 0.1
    for seed in (0, 1, 2026):
        rng, twin = trial_rng(seed, 5), trial_rng(seed, 5)
        spec, labels, signal, noise, broadcast, f_ideal = transmit(cfg, Scheme.ZF, sigma2, rng)
        generate_channel(users, users, twin)
        assert labels.shape == signal.shape == noise.shape == (users, block_len)
        # ZF delivers each label's point, scaled by 1 / f
        np.testing.assert_allclose(f_ideal[0] * signal, spec.points[labels], atol=1e-9)
        # MSB first, from the next ceil(n / 8) bytes, the last one's low bits unused
        n_bits = labels.size * bps
        raw = np.frombuffer(twin.bytes(-(-n_bits // 8)), np.uint8)
        np.testing.assert_array_equal(_label_bits(labels, bps).reshape(-1), np.unpackbits(raw)[:n_bits])
        np.testing.assert_array_equal(noise.reshape(-1), sample_noise(sigma2, labels.size, twin))
        np.testing.assert_array_equal(broadcast, quantize_broadcast(f_ideal[:1], cfg.feedback_bits, twin))
        assert rng.standard_normal() == twin.standard_normal()  # the stream ends where the trial leaves it
        assert np.array_equal(transmit(cfg, Scheme.ZF, sigma2, trial_rng(seed, 5, 1))[1],
                              transmit(cfg, Scheme.ZF, sigma2, trial_rng(seed, 5, 1))[1])


def test_modulate_takes_any_generators_bytes_and_count():
    spec = build_constellation(16)
    odd, _ = modulate(spec, trial_rng(0).bytes(2), (3, 1))
    assert odd.shape == (3, 1) and np.all((0 <= odd) & (odd < 16))
    mt = np.random.Generator(np.random.MT19937(1)).bytes(5)
    labels, _ = modulate(spec, mt, (2, 5))
    np.testing.assert_array_equal(_label_bits(labels, 4).reshape(-1), np.unpackbits(np.frombuffer(mt, np.uint8)))
    labels, points = modulate(spec, b"", (0, 4))
    assert labels.shape == points.shape == (0, 4)
    labels, _ = modulate(spec, trial_rng(8).bytes(125_000), (250_000,))  # 10^6 bits
    assert abs(_label_bits(labels, 4).mean() - 0.5) < 0.003


@settings(max_examples=40)
@given(
    order=st.sampled_from(SUPPORTED_ORDERS),
    payload=st.binary(min_size=1, max_size=30),
)
def test_mod_demod_roundtrip(order, payload):
    spec = build_constellation(order)
    bps = spec.bits_per_symbol
    n = len(payload) * 8 // bps
    labels, syms = modulate(spec, payload, (n,))
    np.testing.assert_array_equal(demodulate(spec, syms), labels)
    np.testing.assert_array_equal(_label_bits(labels, bps).reshape(-1),
                                  np.unpackbits(np.frombuffer(payload, np.uint8))[:n * bps])
    np.testing.assert_allclose(spec.points[labels], syms)


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_demodulate_decides_every_point_as_its_own_label(order):
    spec = build_constellation(order)
    np.testing.assert_array_equal(demodulate(spec, spec.points), np.arange(order))


def test_demodulate_nearest_neighbor():
    spec = build_constellation(16)
    [label] = demodulate(spec, np.array([(2.9 + 1.1j) / np.sqrt(10)]))
    assert spec.points[label] == pytest.approx((3 + 1j) / np.sqrt(10))


def test_demodulate_saturates_far_samples():
    spec = build_constellation(16)
    [label] = demodulate(spec, np.array([100 + 100j]))
    assert spec.points[label] == pytest.approx((3 + 3j) / np.sqrt(10))


def test_demodulate_exact_point_and_bits_shape():
    spec = build_constellation(64)
    p = complex(spec.points[17])
    labels = demodulate(spec, np.array([p]))
    assert labels.tolist() == [17]
    assert spec.points[labels].tolist() == [p]
    assert _label_bits(labels, spec.bits_per_symbol).tolist() == [[0, 1, 0, 0, 0, 1]]
    assert demodulate(spec, np.full((3, 2), p)).shape == (3, 2)


def test_demodulate_boundary_tie_prefers_smaller_level():
    spec = build_constellation(16)
    boundary = 2 / np.sqrt(10)
    [label] = demodulate(spec, np.array([complex(boundary, boundary)]))
    assert spec.points[label] == pytest.approx((1 + 1j) / np.sqrt(10))
    [label] = demodulate(spec, np.array([complex(-boundary, -boundary)]))
    assert spec.points[label] == pytest.approx((-1 - 1j) / np.sqrt(10))


def _nearest_level(levels, x):
    """Brute force over every pair of levels: level i beats level j when x lies
    on i's side of the pair's rounded midpoint 0.5 * (l_i + l_j), or on it
    with |l_i| < |l_j|, or at 0 between -a and a with l_i = -a. The nearest
    level beats every other. Comparing at the rounded midpoint, the
    receiver's boundary, keeps the tie rule at midpoints that round an ulp
    off the exact one; float |x - l| would also misjudge 5e-324 and 1e300."""
    def beats(a, b):
        boundary = 0.5 * (a + b)
        if x != boundary:
            return (x > boundary) == (a > b)
        return (abs(a), a) < (abs(b), b)
    [nearest] = [i for i, a in enumerate(levels)
                 if all(beats(a, b) for j, b in enumerate(levels) if j != i)]
    return nearest


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_demodulate_matches_the_brute_force_nearest_level(order):
    spec = build_constellation(order)
    levels = spec.levels
    boundaries = 0.5 * (levels[1:] + levels[:-1])
    x = np.concatenate([
        np.random.default_rng(order).standard_normal(300),
        levels, boundaries, np.nextafter(boundaries, -np.inf), np.nextafter(boundaries, np.inf),
        [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300],
    ])
    expected = levels[[_nearest_level(levels.tolist(), v) for v in x.tolist()]]
    # x on each axis in turn, beside a fixed level on the other
    np.testing.assert_array_equal(spec.points[demodulate(spec, x + 1j * levels[0])].real, expected)
    np.testing.assert_array_equal(spec.points[demodulate(spec, levels[-1] + 1j * x)].imag, expected)


@pytest.mark.parametrize("sample", [complex(np.nan, 0.0), complex(0.0, np.nan),
                                    complex(np.inf, 0.0), complex(0.0, -np.inf)])
def test_demodulate_rejects_a_non_finite_sample(sample):
    spec = build_constellation(16)
    with pytest.raises(ValueError, match="samples must be finite"):
        demodulate(spec, np.array([0.1 + 0.1j, sample]))


@pytest.mark.parametrize("order", SUPPORTED_ORDERS)
def test_label_xor_popcount_over_every_label_pair(order):
    bps = build_constellation(order).bits_per_symbol
    sent, decided = np.meshgrid(np.arange(order), np.arange(order))
    differing = (_label_bits(sent, bps) != _label_bits(decided, bps)).sum(axis=-1)
    np.testing.assert_array_equal(bit_errors(sent, decided), differing)


@settings(max_examples=100)
@given(order=st.sampled_from(SUPPORTED_ORDERS), data=st.data())
def test_label_xor_popcount_counts_the_bit_errors(order, data):
    """The engine's error count, the set bits of (sent XOR decided label), is
    the number of bit positions in which the decided bits differ from the sent."""
    spec = build_constellation(order)
    bps = spec.bits_per_symbol
    n = data.draw(st.integers(min_value=1, max_value=20))
    sent = np.array(data.draw(st.lists(st.integers(0, order - 1), min_size=n, max_size=n)))
    # per axis: a random sample, a sample exactly on a decision boundary, or
    # one far outside the grid that saturates to an outermost level
    boundaries = (0.5 * (spec.levels[1:] + spec.levels[:-1])).tolist()
    axis = st.one_of(
        st.floats(-1.5, 1.5),
        st.sampled_from(boundaries),
        st.floats(10.0, 1e12).flatmap(lambda v: st.sampled_from([v, -v])),
    )
    samples = [complex(*data.draw(st.tuples(axis, axis))) for _ in range(n)]
    decided = demodulate(spec, np.array(samples))
    assert ((0 <= decided) & (decided < order)).all()

    errors = bit_errors(sent, decided)
    for label_sent, label_decided, count in zip(sent.tolist(), decided.tolist(), errors.tolist()):
        bits_sent, bits_decided = format(label_sent, f"0{bps}b"), format(label_decided, f"0{bps}b")
        assert count == sum(a != b for a, b in zip(bits_sent, bits_decided))
