"""Rayleigh block-fading channel generation, receiver noise, seeded substreams."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
# NumPy 2 loads numpy.random lazily. Loading it here, in the parent, spares
# every forked pool worker from importing it again.
from numpy.random import Generator, SeedSequence, default_rng

from . import power_alloc
from .errors import ConfigurationError

# Largest condition number of the Gram matrix R = stacked @ stacked.T that
# is whitened. A whitened CI solve loses about cond(R) * eps to rounding,
# so this bound keeps that loss below 1e-9 relative.
_MAX_WHITENED_COND = 1e-9 / np.finfo(float).eps


@dataclass(frozen=True)
class ChannelRealization:
    """Flat-fading channel matrix, constant over one transmission block.

    Row k of ``H`` is the (transposed) channel vector of user k.
    """

    H: np.ndarray

    def __post_init__(self):
        H = np.asarray(self.H, dtype=complex)
        if H.ndim != 2:
            raise ConfigurationError("channel matrix must be 2-D (users x antennas)")
        if H.shape[0] < 1:
            raise ConfigurationError(f"need at least one user, got {H.shape[0]}")
        if H.shape[0] > H.shape[1]:
            raise ConfigurationError(
                f"need K <= N_T for symbol-level precoding, got K={H.shape[0]}, N_T={H.shape[1]}"
            )
        if not np.all(np.isfinite(H)):
            raise ConfigurationError("channel matrix has non-finite entries")
        object.__setattr__(self, "H", H)

    @property
    def n_users(self) -> int:
        return self.H.shape[0]

    @property
    def n_antennas(self) -> int:
        return self.H.shape[1]

    @cached_property
    def stacked(self) -> np.ndarray:
        """Real (2K, 2N_T) form of H, built once: row 2k maps w = [Re x; Im x]
        to Re(h_k x) and row 2k+1 to Im(h_k x)."""
        re_h, im_h = self.H.real, self.H.imag
        blocks = np.stack([np.hstack([re_h, -im_h]), np.hstack([im_h, re_h])], axis=1)
        return blocks.reshape(2 * self.n_users, 2 * self.n_antennas)

    @cached_property
    def whitener(self) -> np.ndarray | None:
        """L^-1 for the Cholesky factor L of R = stacked @ stacked.T, (2K, 2K).

        None when R has no Cholesky factor or cond(R) exceeds
        _MAX_WHITENED_COND: such a channel is solved without whitening."""
        gram = self.stacked @ self.stacked.T
        try:
            factor = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return None
        if not np.linalg.cond(gram) <= _MAX_WHITENED_COND:
            return None
        return np.linalg.inv(factor)


def generate_channel(n_users: int, n_antennas: int, rng: Generator) -> ChannelRealization:
    """Draw an i.i.d. CN(0, 1) flat-fading channel, deterministic under the rng seed."""
    H = (
        rng.standard_normal((n_users, n_antennas))
        + 1j * rng.standard_normal((n_users, n_antennas))
    ) / np.sqrt(2.0)
    return ChannelRealization(H)


def sample_noise(sigma2: float, count: int, rng: Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. CN(0, sigma2) samples (real/imag variance sigma2/2 each)."""
    if sigma2 < 0:
        raise ConfigurationError(f"noise variance must be >= 0, got {sigma2}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if sigma2 == 0.0:
        return np.zeros(count, dtype=complex)
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
