import numpy as np
import pytest

from slpsim.baselines import baseline_rescaling, rzf_precoder, zf_precoder
from slpsim.channel import generate_channel, trial_rng
from slpsim.constellation import build_constellation, modulate


def test_zf_identity_channel():
    prec = zf_precoder(np.eye(2, dtype=complex))
    np.testing.assert_allclose(prec.W, np.eye(2) / np.sqrt(2), atol=1e-12)
    assert prec.beta == pytest.approx(1 / np.sqrt(2))
    # uniform power P_T/M with M=10, P_T=1
    assert baseline_rescaling(prec, 0.1) == pytest.approx(np.sqrt(20))


def test_zf_inverts_random_channel():
    H = generate_channel(3, 5, trial_rng(0))
    prec = zf_precoder(H)
    np.testing.assert_allclose(H @ prec.W, prec.beta * np.eye(3), atol=1e-9)
    assert np.linalg.norm(prec.W) == pytest.approx(1.0, abs=1e-9)


def test_zf_single_user_matched_filter():
    h = np.array([[2.0 + 0j, 0.0]])  # ||h|| = 2
    prec = zf_precoder(h)
    assert prec.beta == pytest.approx(2.0)
    np.testing.assert_allclose(prec.W, np.array([[1.0], [0.0]]), atol=1e-12)


def test_zf_rank_deficient_raises():
    H = np.ones((2, 2), dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        zf_precoder(H)
    # the ridge keeps the inverse finite, but a channel of zeros has no precoder to normalize
    with pytest.raises(np.linalg.LinAlgError, match="normalization failed"):
        rzf_precoder(np.zeros((2, 2), dtype=complex), sigma2=0.1, block_len=1)


def test_rzf_identity_channel():
    # ridge = K * sigma2 * M / P_T = 2 * 0.25 * 2 / 1 = 1 -> W0 = I/2,
    # so beta = 1 / ||W0||_F = (1 + ridge) / sqrt(2) = sqrt(2)
    prec = rzf_precoder(np.eye(2, dtype=complex), sigma2=0.25, block_len=2)
    assert prec.beta == pytest.approx(np.sqrt(2))
    np.testing.assert_allclose(prec.W, np.eye(2) / np.sqrt(2), atol=1e-12)


def test_rzf_limits():
    H = generate_channel(3, 4, trial_rng(1))
    zf = zf_precoder(H)
    nearly_zf = rzf_precoder(H, sigma2=1e-12, block_len=1)
    assert np.linalg.norm(nearly_zf.W - zf.W) < 1e-8

    heavy = rzf_precoder(H, sigma2=1e9, block_len=1)
    matched = H.conj().T
    matched /= np.linalg.norm(matched)
    assert np.linalg.norm(heavy.W - matched) < 1e-6


def test_frobenius_normalization_gives_unit_average_power():
    H = generate_channel(4, 4, trial_rng(2))
    prec = zf_precoder(H)
    spec = build_constellation(16)
    rng = trial_rng(3)
    _, syms = modulate(spec, rng.bytes(4000), (4, 2000))
    tx = prec.W @ syms
    avg_power = np.mean(np.sum(np.abs(tx) ** 2, axis=0))
    assert avg_power == pytest.approx(1.0, rel=0.02)


def test_baseline_rescaling_validates():
    prec = zf_precoder(np.eye(2, dtype=complex))
    assert baseline_rescaling(prec, 1.0) == pytest.approx(np.sqrt(2))
    for power in (0.0, np.nan):
        with pytest.raises(ValueError, match="power must be > 0"):
            baseline_rescaling(prec, power)
