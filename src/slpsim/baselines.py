"""Block-level linear precoding baselines: zero forcing and regularized ZF.

Both precoders are normalized to unit Frobenius norm, i.e. an average (not
per-symbol) transmit power of one under unit-energy i.i.d. symbols. That
makes the receiver rescaling factor constant over the block, so like any
block-level scheme they only broadcast it once per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import power_alloc


@dataclass(frozen=True)
class LinearPrecoder:
    """Block-constant precoding matrix with its noiseless receive gain.

    ``beta`` is the common diagonal gain: for ZF, H @ W = beta * I exactly,
    so a noiseless receive sample is sqrt(p) * beta * s_k. RZF keeps the same
    convention; its residual off-diagonal interference is left for the
    demodulator.
    """

    W: np.ndarray
    beta: float


def _regularized_inverse(H: np.ndarray, ridge: float) -> LinearPrecoder:
    """W0 = H^H (H H^H + ridge * I)^-1, Frobenius-normalized."""
    gram = H @ H.conj().T + ridge * np.eye(H.shape[0])
    W0 = H.conj().T @ np.linalg.inv(gram)
    fro = float(np.linalg.norm(W0))
    if not np.isfinite(fro) or fro == 0:
        raise np.linalg.LinAlgError("precoder normalization failed (singular channel)")
    return LinearPrecoder(W=W0 / fro, beta=1.0 / fro)


def zf_precoder(H: np.ndarray) -> LinearPrecoder:
    """Channel-inverting precoder W = H^H (H H^H)^-1, Frobenius-normalized.

    Raises numpy.linalg.LinAlgError on rank-deficient channels; the Monte
    Carlo engine logs and discards such trials.
    """
    return _regularized_inverse(H, ridge=0.0)


def rzf_precoder(H: np.ndarray, sigma2: float, block_len: int) -> LinearPrecoder:
    """Regularized ZF with MMSE-style loading at the per-symbol SNR.

    The ridge K * sigma2 * M / P_T, with the block budget ``power_alloc.P_T``,
    equals K over the per-symbol transmit SNR; it is the classic choice.
    """
    ridge = H.shape[0] * sigma2 * block_len / power_alloc.P_T
    return _regularized_inverse(H, ridge)


def baseline_rescaling(precoder: LinearPrecoder, power: float) -> float:
    """Block-constant receiver rescaling factor 1 / (beta * sqrt(p))."""
    if power <= 0:
        raise ValueError(f"power must be > 0, got {power}")
    return 1.0 / (precoder.beta * np.sqrt(power))
