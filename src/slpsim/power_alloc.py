"""In-block power allocation across the symbols of a transmission block.

Given per-symbol CI margins t_m > 0 and a block power budget P_T, the
allocation that maximizes the worst product t_m * sqrt(p_m) puts

    p_m = (1 / t_m^2) / sum_n (1 / t_n^2) * P_T,

which equalizes t_m * sqrt(p_m) over the block and therefore makes the
receiver rescaling factor f = 1 / (t_m * sqrt(p_m)) identical for every
symbol, so it only needs to be broadcast once per block.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateMarginError

# Margins at or below this are treated as degenerate rather than clamped:
# the closed form diverges and a silent clamp would corrupt experiments.
MIN_MARGIN = 1e-12

# Block power budget P_T. Errors depend on it only through f_max * P_T.
P_T = 1.0


class AllocationMode(Enum):
    IN_BLOCK = "in_block"


@dataclass(frozen=True)
class PowerAllocation:
    """Per-symbol transmit powers for one block and their block-common
    receiver rescaling factor ``rescale``."""

    powers: np.ndarray
    mode: AllocationMode
    rescale: float


@dataclass(frozen=True)
class KktCertificate:
    """Numerically recovered optimality certificate for a candidate allocation.

    Multipliers are reconstructed from the stationarity and normalization
    conditions, so those two hold by construction; suboptimality
    shows up in the complementarity residual and budget violations in the
    primal residual.
    """

    stationarity_residual: float
    complementarity_residual: float
    primal_residual: float
    passed: bool


def _check_margins(margins: np.ndarray):
    if margins.ndim != 1 or margins.size < 1:
        raise ValueError("margins must be a non-empty 1-D vector")
    if np.any(margins <= MIN_MARGIN):
        raise DegenerateMarginError(
            f"margin {margins.min():.3e} is not positive; cannot allocate power"
        )


def allocate_in_block(margins, total_power: float) -> PowerAllocation:
    """Closed-form optimal in-block allocation and its common rescaling factor."""
    margins = np.asarray(margins, dtype=float)
    _check_margins(margins)
    if total_power <= 0:
        raise ValueError(f"total power must be > 0, got {total_power}")
    inv_sq = margins**-2.0
    weight = inv_sq.sum()
    powers = (inv_sq / weight) * total_power
    rescale = float(np.sqrt(weight / total_power))
    return PowerAllocation(powers=powers, mode=AllocationMode.IN_BLOCK, rescale=rescale)


def allocate_uniform(n_symbols: int) -> np.ndarray:
    """Uniform split of the block budget: p_m = P_T / M for every symbol."""
    return np.full(n_symbols, P_T / n_symbols)


def per_symbol_rescaling(margins, powers):
    """Receiver rescaling factors 1 / (t_m * sqrt(p_m)), elementwise over symbol durations."""
    margins = np.asarray(margins, dtype=float)
    powers = np.asarray(powers, dtype=float)
    _check_margins(np.atleast_1d(margins))
    if np.any(powers <= 0):
        raise ValueError(f"powers must be > 0, got min {powers.min():.3e}")
    return 1.0 / (margins * np.sqrt(powers))


def verify_kkt(margins, powers, total_power: float, tol: float = 1e-9) -> KktCertificate:
    """Check the max-min optimality conditions of a candidate allocation.

    With u_m = sqrt(p_m) and g = min_m t_m u_m, the multipliers are recovered
    as vartheta = 1 / sum_m (u_m / t_m) and delta_m = vartheta * u_m / t_m.
    The certificate passes iff every residual is <= tol and the multipliers
    are nonnegative.
    """
    margins = np.asarray(margins, dtype=float)
    powers = np.asarray(powers, dtype=float)
    _check_margins(margins)
    if np.any(powers <= 0) or total_power <= 0:
        raise ValueError("powers and total power must be positive")

    u = np.sqrt(powers)
    g = float(np.min(margins * u))
    vartheta = 1.0 / float(np.sum(u / margins))
    delta = vartheta * u / margins

    normalization = abs(float(delta.sum()) - 1.0)
    stationarity = float(np.max(np.abs(vartheta * u - delta * margins)))
    stationarity = max(stationarity, normalization)
    complementarity = float(np.max(np.abs(delta * (g - margins * u))))
    primal = abs(float(np.sum(u**2)) - total_power)

    passed = (
        stationarity <= tol
        and complementarity <= tol
        and primal <= tol
        and vartheta >= 0
        and bool(np.all(delta >= 0))
    )
    return KktCertificate(
        stationarity_residual=stationarity,
        complementarity_residual=complementarity,
        primal_residual=primal,
        passed=passed,
    )
