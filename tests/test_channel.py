import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slpsim.channel import (
    ChannelRealization,
    generate_channel,
    sample_noise,
    sigma2_from_snr,
    trial_rng,
)
from slpsim.errors import ConfigurationError


def test_seed_determinism():
    H1 = generate_channel(2, 2, trial_rng(42, 0, 0)).H
    H2 = generate_channel(2, 2, trial_rng(42, 0, 0)).H
    np.testing.assert_array_equal(H1, H2)


def test_different_subkeys_differ():
    H1 = generate_channel(2, 2, trial_rng(42, 0, 0)).H
    H2 = generate_channel(2, 2, trial_rng(42, 0, 1)).H
    assert not np.allclose(H1, H2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), users=st.integers(1, 5), extra_antennas=st.integers(0, 3))
def test_stacked_form_maps_stacked_vectors_like_h(seed, users, extra_antennas):
    rng = trial_rng(seed)
    channel = generate_channel(users, users + extra_antennas, rng)
    x = rng.standard_normal(channel.n_antennas) + 1j * rng.standard_normal(channel.n_antennas)
    y = channel.H @ x
    np.testing.assert_allclose(
        channel.stacked @ np.concatenate([x.real, x.imag]),
        np.column_stack([y.real, y.imag]).reshape(-1),  # Re/Im of user k at 2k, 2k+1
        rtol=1e-12, atol=1e-12,
    )
    assert channel.stacked is channel.stacked  # built once per realization


def test_overloaded_system_rejected():
    with pytest.raises(ConfigurationError):
        generate_channel(3, 2, trial_rng(0))
    with pytest.raises(ConfigurationError):
        ChannelRealization(np.ones((3, 2), dtype=complex))
    with pytest.raises(ConfigurationError, match="at least one user"):
        ChannelRealization(np.zeros((0, 3)))


def test_entry_statistics():
    # 1e5 entries: per-entry power 1, mean ~ 0, circular symmetry
    H = generate_channel(100, 1000, trial_rng(7)).H
    powers = np.abs(H.reshape(-1)) ** 2
    assert abs(powers.mean() - 1.0) < 0.02
    assert abs(H.real.reshape(-1).mean()) < 3 / np.sqrt(H.size)
    assert abs(np.var(H.real) - 0.5) < 0.02
    assert abs(np.var(H.imag) - 0.5) < 0.02


def test_noise_zero_variance():
    samples = sample_noise(0.0, 100, trial_rng(0))
    assert np.all(samples == 0)


def test_noise_statistics():
    samples = sample_noise(0.5, 100_000, trial_rng(3))
    assert abs(np.var(samples.real) - 0.25) < 0.02
    assert abs(np.var(samples.imag) - 0.25) < 0.02
    assert abs(np.mean(np.abs(samples) ** 2) - 0.5) < 0.02


def test_noise_negative_variance_rejected():
    with pytest.raises(ConfigurationError):
        sample_noise(-1.0, 1, trial_rng(0))


def test_noise_empty_draw():
    assert sample_noise(1.0, 0, trial_rng(0)).size == 0


def test_sigma2_from_snr_values():
    assert sigma2_from_snr(0.0, 1) == pytest.approx(1.0)
    assert sigma2_from_snr(40.0, 10) == pytest.approx(1e-5)
    assert sigma2_from_snr(20.0, 200) == pytest.approx(5e-5)
    assert sigma2_from_snr(float("inf"), 50) == 0.0

