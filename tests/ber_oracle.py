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

from slpsim.link_sim import Scheme, transmit


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
    sigma2, rng)`` receives: ``transmit``'s draw, its noise left out."""
    spec, labels, signal, _, broadcast, _ = transmit(cfg, scheme, sigma2, rng)
    return float(expected_bit_errors(spec, labels, broadcast * signal, broadcast, sigma2).sum())
