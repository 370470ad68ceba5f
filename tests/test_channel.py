import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slpsim.channel import generate_channel, sample_noise, sigma2_from_snr, trial_rng
from slpsim.slp_core import ChannelRealization


def test_seed_determinism():
    H1 = generate_channel(2, 2, trial_rng(42, 0, 0))
    H2 = generate_channel(2, 2, trial_rng(42, 0, 0))
    np.testing.assert_array_equal(H1, H2)


def test_different_subkeys_differ():
    H1 = generate_channel(2, 2, trial_rng(42, 0, 0))
    H2 = generate_channel(2, 2, trial_rng(42, 0, 1))
    assert not np.allclose(H1, H2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), users=st.integers(1, 5), extra_antennas=st.integers(0, 3))
def test_stacked_form_maps_stacked_vectors_like_h(seed, users, extra_antennas):
    rng = trial_rng(seed)
    channel = ChannelRealization(generate_channel(users, users + extra_antennas, rng))
    x = rng.standard_normal(channel.n_antennas) + 1j * rng.standard_normal(channel.n_antennas)
    y = channel.H @ x
    np.testing.assert_allclose(
        channel.stacked @ np.concatenate([x.real, x.imag]),
        np.column_stack([y.real, y.imag]).reshape(-1),  # Re/Im of user k at 2k, 2k+1
        rtol=1e-12, atol=1e-12,
    )
    assert channel.stacked is channel.stacked  # built once per realization


def test_overloaded_system_rejected():
    # the CI solver's view of H checks it; LinkConfig rejects users > antennas for a run
    with pytest.raises(ValueError, match="K <= N_T"):
        ChannelRealization(np.ones((3, 2), dtype=complex))
    with pytest.raises(ValueError, match="at least one user"):
        ChannelRealization(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="must be 2-D"):
        ChannelRealization(np.ones(3, dtype=complex))
    with pytest.raises(ValueError, match="non-finite"):
        ChannelRealization(np.array([[1.0, np.nan]]))


def test_entry_statistics():
    # 1e5 entries: per-entry power 1, mean ~ 0, circular symmetry
    H = generate_channel(100, 1000, trial_rng(7))
    powers = np.abs(H.reshape(-1)) ** 2
    assert abs(powers.mean() - 1.0) < 0.02
    assert abs(H.real.reshape(-1).mean()) < 3 / np.sqrt(H.size)
    assert abs(np.var(H.real) - 0.5) < 0.02
    assert abs(np.var(H.imag) - 0.5) < 0.02


def test_noise_zero_variance():
    rng, twin = trial_rng(0), trial_rng(0)
    samples = sample_noise(0.0, 100, rng)
    assert np.all(samples == 0)
    # zero noise scales the same unit draw as any other variance: the stream moves as at sigma2 = 1
    sample_noise(1.0, 100, twin)
    assert rng.standard_normal() == twin.standard_normal()


def test_noise_statistics():
    samples = sample_noise(0.5, 100_000, trial_rng(3))
    assert abs(np.var(samples.real) - 0.25) < 0.02
    assert abs(np.var(samples.imag) - 0.25) < 0.02
    assert abs(np.mean(np.abs(samples) ** 2) - 0.5) < 0.02


def test_noise_negative_variance_rejected():
    for sigma2 in (-1.0, np.nan):
        with pytest.raises(ValueError, match="noise variance must be >= 0"):
            sample_noise(sigma2, 1, trial_rng(0))
    with pytest.raises(ValueError, match="count must be >= 0"):
        sample_noise(1.0, -1, trial_rng(0))


def test_noise_empty_draw():
    assert sample_noise(1.0, 0, trial_rng(0)).size == 0


def test_sigma2_from_snr_values():
    assert sigma2_from_snr(0.0, 1) == pytest.approx(1.0)
    assert sigma2_from_snr(40.0, 10) == pytest.approx(1e-5)
    assert sigma2_from_snr(20.0, 200) == pytest.approx(5e-5)
    assert sigma2_from_snr(float("inf"), 50) == 0.0

