"""Exact conditional bit-error oracle for one trial, independent of the slicer.

Given a trial's noiseless scaled sample s = f̂·√p·(Hx) and its broadcast f̂,
the receiver sees s + f̂·n with n ~ CN(0, σ²), so each axis component is
Gaussian with mean Re s or Im s and standard deviation f̂·√(σ²/2). The
slicer decides the level whose interval, between the midpoints to its
neighbours, holds the component. The expected bit errors of one axis are
therefore

    Σ_i [Φ((u_i − s)/σ) − Φ((l_i − s)/σ)] · d_H(g_i, g_sent),

with (l_i, u_i) level i's interval, g_i the binary-reflected Gray code of
level i in ascending order and g_sent the sent label's code on that axis:
its high half on the real axis, its low half on the imaginary. Nothing here
shares code with ``constellation.demodulate`` or ``bit_errors``; only the
levels and the labeling convention are read from the spec.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from slpsim import baselines, power_alloc, slp_core
from slpsim.channel import sample_noise
from slpsim.link_sim import BLOCK_LEVEL_SCHEMES, SLP_SCHEMES, Scheme, draw_block, quantize_broadcast


def expected_bit_errors(spec, labels, sample, f_hat, sigma2: float) -> np.ndarray:
    """Expected bit errors per symbol, shaped like ``labels``, given the trial.

    ``sample`` is the noiseless scaled sample, shaped like ``labels``;
    ``f_hat`` broadcasts against it (one factor per block or one per symbol
    duration). ``sigma2`` must be > 0.
    """
    half = spec.bits_per_symbol // 2
    side = spec.levels.size
    gray = np.arange(side) ^ (np.arange(side) >> 1)
    # distance[c, i]: Hamming distance between code c and level i's code
    distance = np.array([[bin(c ^ g).count("1") for g in gray] for c in range(side)])
    edges = np.concatenate([[-np.inf], 0.5 * (spec.levels[1:] + spec.levels[:-1]), [np.inf]])
    sd = np.broadcast_to(f_hat * np.sqrt(sigma2 / 2.0), sample.shape)[..., None]
    labels = np.asarray(labels)
    total = np.zeros(labels.shape)
    for component, sent in ((sample.real, labels >> half), (sample.imag, labels & ((1 << half) - 1))):
        prob = np.diff(ndtr((edges - component[..., None]) / sd), axis=-1)
        total += (prob * distance[sent]).sum(axis=-1)
    return total


def expected_trial_errors(cfg, scheme: Scheme, sigma2: float, rng: np.random.Generator) -> float:
    """The expected bit errors of the trial that ``simulate_block(cfg, scheme,
    sigma2, rng)`` transmits, rebuilt through the engine's public draws in its
    order: the block, the noise (drawn to advance ``rng``, and left out), the
    precoder or CI solves, the powers and the broadcast error."""
    K, M = cfg.users, cfg.block_len
    spec, H, labels, symbols = draw_block(cfg, rng)
    sample_noise(0.0, K * M, rng)
    if scheme in SLP_SCHEMES:
        precoded, margins = slp_core.solve_block(H, symbols, spec)
        if scheme is Scheme.SLP_IN_BLOCK:
            powers = power_alloc.allocate_in_block(margins, power_alloc.P_T).powers
        else:
            powers = power_alloc.allocate_uniform(M)
        f_ideal = power_alloc.per_symbol_rescaling(margins, powers)
    else:
        prec = baselines.zf_precoder(H) if scheme is Scheme.ZF else baselines.rzf_precoder(H, sigma2, M)
        precoded = prec.W @ symbols
        powers = power_alloc.allocate_uniform(M)
        f_ideal = np.full(M, baselines.baseline_rescaling(prec, powers[0]))
    f_hat = quantize_broadcast(f_ideal[:1] if scheme in BLOCK_LEVEL_SCHEMES else f_ideal,
                               cfg.feedback_bits, rng)
    sample = f_hat * np.sqrt(powers) * (H @ precoded)
    return float(expected_bit_errors(spec, labels, sample, f_hat, sigma2).sum())
