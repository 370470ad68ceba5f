"""Rayleigh block-fading channel generation, receiver noise, seeded substreams."""

from __future__ import annotations

import numpy as np
# NumPy 2 loads numpy.random lazily. Loading it here, in the parent, spares
# every forked pool worker from importing it again.
from numpy.random import Generator, SeedSequence, default_rng

from . import power_alloc


def generate_channel(n_users: int, n_antennas: int, rng: Generator) -> np.ndarray:
    """Draw an i.i.d. CN(0, 1) flat-fading channel H, (n_users, n_antennas)
    complex and constant over one block, deterministic under the rng seed.

    Row k of H is the (transposed) channel vector of user k.
    """
    return (
        rng.standard_normal((n_users, n_antennas))
        + 1j * rng.standard_normal((n_users, n_antennas))
    ) / np.sqrt(2.0)


def sample_noise(sigma2: float, count: int, rng: Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. CN(0, sigma2) samples (real/imag variance sigma2/2 each): one
    unit-variance block scaled by sqrt(sigma2 / 2), the same draws at every sigma2, 0 too."""
    if not sigma2 >= 0:
        raise ValueError(f"noise variance must be >= 0, got {sigma2}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    noise = np.empty(count, dtype=complex)
    noise.real = rng.standard_normal(count)
    noise.imag = rng.standard_normal(count)
    noise *= np.sqrt(sigma2 / 2.0)
    return noise


def sigma2_from_snr(snr_db: float, block_len: int) -> float:
    """Noise variance from the per-symbol transmit SNR rho = P_T / (M * sigma2).

    With the block budget ``power_alloc.P_T`` = 1 this is 1 / (M * 10^(snr/10)).
    ``snr_db = inf`` yields exactly zero noise.
    """
    return power_alloc.P_T / (block_len * 10.0 ** (snr_db / 10.0))


def trial_rng(seed: int, *subkey: int) -> Generator:
    """Independent, order-insensitive random substream for one Monte Carlo trial.

    The (seed, subkey) pair fully determines the stream, so trials can be run
    serially or fanned out to workers with identical results.
    """
    return default_rng(SeedSequence(seed, spawn_key=tuple(subkey)))
