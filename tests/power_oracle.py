"""Bisection cross-check for the in-block power allocation, independent of
its closed form."""

from __future__ import annotations

import numpy as np

from slpsim.power_alloc import _check_margins


def solve_maxmin_power(margins, total_power: float, tol: float = 1e-12) -> np.ndarray:
    """Independent bisection oracle for the in-block allocation.

    Maximizes g = min_m t_m * sqrt(p_m) subject to sum_m p_m <= P_T by
    bisecting on g (feasible iff sum_m (g / t_m)^2 <= P_T). Deliberately does
    not use the closed form, so it can serve as its standing cross-check.
    """
    margins = np.asarray(margins, dtype=float)
    _check_margins(margins)
    if total_power <= 0:
        raise ValueError(f"total power must be > 0, got {total_power}")

    inv_sq = margins**-2.0
    lo = 0.0
    hi = float(margins.min()) * np.sqrt(total_power) * (1.0 + 1e-9)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid**2 * inv_sq.sum() <= total_power:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * hi:
            break
    return (lo / margins) ** 2
