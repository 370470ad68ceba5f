"""Brute-force cross-check for the CI margin, independent of the solver path.

Bisects on the candidate margin t; each candidate is probed for feasibility
by running an accelerated projected-gradient descent (over the unit transmit
ball, where projection is a simple rescale) on the total squared constraint
violation

    F(v) = ||G_in v - t||^2 + ||max(t - G_out v, 0)||^2.

F is convex and smooth, and t is feasible iff min F over the ball is zero.
Feasibility is monotone in t (scale a feasible point down), so bisection is
valid. Infeasibility is certified rigorously through convexity: for any
probe point y with gradient g,

    min_{||u|| <= 1} F(u) >= F(y) - ||g|| - g.y,

so once that lower bound clears the feasibility threshold the candidate is
rejected without exhausting the iteration budget. Nothing here shares math
or code with the production solver beyond the constraint definitions.
"""

from __future__ import annotations

import numpy as np


class _Probe:
    """Violation / gradient evaluations for one (rows, outer-mask) system."""

    def __init__(self, inner_rows, outer_rows):
        self.rows = np.vstack([inner_rows, outer_rows])
        self.outer_mask = np.zeros(self.rows.shape[0], dtype=bool)
        self.outer_mask[inner_rows.shape[0]:] = True
        self.lipschitz = 2.0 * np.linalg.norm(self.rows, ord=2) ** 2 + 1e-12

    def residual(self, t, v):
        z = self.rows @ v - t
        return np.where(self.outer_mask & (z > 0.0), 0.0, z)

    def value(self, t, v):
        r = self.residual(t, v)
        return float(r @ r)

    def gradient(self, t, v):
        return 2.0 * (self.rows.T @ self.residual(t, v))


def _project_ball(v):
    n = np.linalg.norm(v)
    return v if n <= 1.0 else v / n


def _is_feasible(probe: _Probe, t, v_start, feas_eps=1e-9, max_iters=30_000):
    """Accelerated projected gradient on F over the unit ball.

    Returns (verdict, v) where verdict is True (found a point with
    F <= feas_eps), False (certified or budget-exhausted infeasible), and v
    is the best point seen.
    """
    v = _project_ball(v_start)
    y = v.copy()
    momentum = 1.0
    f_v = probe.value(t, v)
    step = 1.0 / probe.lipschitz
    for it in range(max_iters):
        if f_v <= feas_eps:
            return True, v
        g = probe.gradient(t, y)
        if it % 25 == 0:
            # convexity lower bound on min F over the ball, evaluated at y
            f_y = probe.value(t, y)
            lower = f_y - np.linalg.norm(g) * 1.0 - float(g @ y)
            if lower > feas_eps:
                return False, v
        v_next = _project_ball(y - step * g)
        f_next = probe.value(t, v_next)
        if f_next > f_v:  # monotone restart
            y = v.copy()
            momentum = 1.0
            continue
        momentum_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * momentum**2))
        y = v_next + ((momentum - 1.0) / momentum_next) * (v_next - v)
        v, f_v = v_next, f_next
        momentum = momentum_next
    return f_v <= feas_eps, v


def max_margin_bruteforce(inner_rows, outer_rows, margin_tol=1e-4):
    """Largest feasible margin by bisection, to absolute tolerance margin_tol."""
    inner_rows = np.atleast_2d(np.asarray(inner_rows, dtype=float))
    outer_rows = np.atleast_2d(np.asarray(outer_rows, dtype=float))
    probe = _Probe(inner_rows, outer_rows)
    # any feasible margin obeys t <= g.v <= ||g|| for every row
    t_hi = float(np.min(np.linalg.norm(probe.rows, axis=1))) * 1.01 + 1e-12
    t_lo = 0.0
    v = np.zeros(probe.rows.shape[1])
    while t_hi - t_lo > margin_tol:
        t_mid = 0.5 * (t_lo + t_hi)
        feasible, v_new = _is_feasible(probe, t_mid, v)
        if feasible:
            t_lo, v = t_mid, v_new
        else:
            t_hi = t_mid
    return 0.5 * (t_lo + t_hi)


def margin_oracle_for_instance(instance, margin_tol=1e-4):
    """Brute-force margin for a CiInstance (builds the rows independently).

    Row 2k is user k's real axis and row 2k+1 its imaginary axis, the
    interleaved order of ``instance.outer``."""
    H = instance.channel.H
    s = instance.symbols
    rows = np.empty((2 * H.shape[0], 2 * H.shape[1]))
    for k in range(H.shape[0]):
        rows[2 * k] = np.concatenate([H[k].real, -H[k].imag]) / s[k].real
        rows[2 * k + 1] = np.concatenate([H[k].imag, H[k].real]) / s[k].imag
    outer = np.asarray(instance.outer)
    return max_margin_bruteforce(rows[~outer], rows[outer], margin_tol=margin_tol)
