"""End-to-end Monte Carlo link simulation across precoding schemes.

Each trial draws one channel and transmits one block of M symbol durations.
The receiver multiplies its samples by the broadcast rescaling factor and
slices them to Gray labels of the nominal constellation; the block's bit
errors are the set bits of (sent label XOR decided label). Block-level
schemes (in-block SLP, ZF, RZF) broadcast a single quantized factor per
block, while uniform-power SLP needs an independently quantized factor per
symbol duration.

Determinism contract: each trial index gets one random substream derived
from the experiment seed, so results are bit-identical regardless of
execution order or worker count. ``transmit`` draws a trial and states
the order of its draws; ``simulate_block`` receives it and counts its errors.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import numbers
import os
import sys
from collections import Counter
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from . import baselines, power_alloc, slp_core
from .channel import generate_channel, sample_noise, sigma2_from_snr, trial_rng
from .constellation import SUPPORTED_ORDERS, bit_errors, build_constellation, demodulate, modulate
from .errors import ConfigurationError, DegenerateMarginError, SolverFailure

log = logging.getLogger(__name__)

WORKERS_ENV = "SLPSIM_WORKERS"
MAX_WORKERS = 64
# Largest B for which 2.0**B is a finite float. Its broadcast error (standard
# deviation 2^-511.5, about 1e-154) is below half an ulp of any f >= F_FLOOR,
# so B = MAX_FEEDBACK_BITS gives an exact broadcast.
MAX_FEEDBACK_BITS = 1023

# Floor applied to a quantized rescaling factor: the additive Gaussian error
# model permits nonpositive values, which are physically meaningless.
F_FLOOR = 1e-6
# Broadcast error scale (variance F_MAX / 2^B), fixed like power_alloc.P_T: no run varies it.
F_MAX = 1.0
_POOL_CONTEXT = multiprocessing.get_context("fork") if sys.platform == "linux" else None


class Scheme(str, Enum):
    SLP_IN_BLOCK = "SLP_IN_BLOCK"
    SLP_UNIFORM = "SLP_UNIFORM"
    ZF = "ZF"
    RZF = "RZF"


# Schemes whose rescaling factor is constant within a block (one broadcast).
BLOCK_LEVEL_SCHEMES = frozenset({Scheme.SLP_IN_BLOCK, Scheme.ZF, Scheme.RZF})
SLP_SCHEMES = frozenset({Scheme.SLP_IN_BLOCK, Scheme.SLP_UNIFORM})


class Experiment(str, Enum):
    BER_SWEEP = "BER_SWEEP"
    F_TRACE = "F_TRACE"


@dataclass(frozen=True)
class LinkConfig:
    """One experiment: system, sweep and output. The fields are the config-file keys."""

    users: int = 4
    antennas: int = 4
    block_len: int = 50
    modulation: int = 16
    schemes: tuple = tuple(Scheme)
    snr_db: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    feedback_bits: int = 5
    channels: int = 100
    seed: int = 1
    experiment: Experiment = Experiment.BER_SWEEP
    out: str = "results.csv"

    def __post_init__(self):
        # each integer key (a NumPy integer too, not a bool) in its range (modulation's: below), stored as int
        for key, low, high in (("users", 1, math.inf), ("antennas", 1, math.inf), ("block_len", 1, math.inf),
                               ("modulation", -math.inf, math.inf),
                               ("feedback_bits", 1, MAX_FEEDBACK_BITS), ("channels", 0, math.inf),
                               ("seed", 0, math.inf)):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(f"{key} must be an integer, got {value!r}")
            object.__setattr__(self, key, int(value))
            if not low <= value <= high:
                bounds = f">= {low}" if high == math.inf else f"in {low}..{high}"
                raise ConfigurationError(f"{key} must be {bounds}, got {value}")
        if self.users > self.antennas:
            raise ConfigurationError("constraint violated: users <= antennas "
                                     f"(got users={self.users}, antennas={self.antennas})")
        if self.modulation not in SUPPORTED_ORDERS:
            raise ConfigurationError(f"modulation must be one of {SUPPORTED_ORDERS}, got {self.modulation}")
        # a string would be read one character at a time, a scalar not at all
        for key in ("schemes", "snr_db"):
            values = getattr(self, key)
            if isinstance(values, str) or not isinstance(values, Iterable) or getattr(values, "ndim", 1) == 0:
                raise ConfigurationError(f"{key} must be a sequence of values, got {values!r}")
        try:
            object.__setattr__(self, "schemes", tuple(Scheme(s) for s in self.schemes))
        except ValueError as exc:
            raise ConfigurationError(
                f"unknown scheme in {self.schemes!r}; valid: {[s.value for s in Scheme]}"
            ) from exc
        if not self.schemes:
            raise ConfigurationError("schemes must name at least one scheme")
        # inf is zero noise; any other value needs a finite noise variance > 0,
        # which nan, -inf and finite values far enough out do not give
        snr_db = tuple(self.snr_db)
        for v in snr_db:
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ConfigurationError(f"snr_db value {v!r} is not a real number")
            try:
                sigma2 = sigma2_from_snr(float(v), self.block_len)
            except (OverflowError, ZeroDivisionError):
                sigma2 = math.nan
            if v != math.inf and not 0 < sigma2 < math.inf:
                raise ConfigurationError(
                    f"snr_db value {v} gives no finite noise variance > 0 at block_len={self.block_len}"
                )
        if not snr_db:
            raise ConfigurationError("snr_db grid is empty")
        object.__setattr__(self, "snr_db", tuple(float(v) for v in snr_db))
        # a repeated scheme would rerun its sweep, a repeated SNR value would
        # rerun the point on the same substreams; both would write a second row
        schemes = [s.value for s in self.schemes]
        for key, values in (("schemes", schemes), ("snr_db", self.snr_db)):
            repeated = [v for v, count in Counter(values).items() if count > 1]
            if repeated:
                raise ConfigurationError(f"{key} lists {repeated[0]} more than once")
        if not isinstance(self.out, (str, os.PathLike)) or not os.fspath(self.out):
            raise ConfigurationError(f"out must be a non-empty str or os.PathLike path, got {self.out!r}")
        try:
            object.__setattr__(self, "experiment", Experiment(self.experiment))
        except ValueError as exc:
            raise ConfigurationError(
                f"unknown experiment {self.experiment!r}; valid: {[e.value for e in Experiment]}"
            ) from exc


@dataclass
class BlockResult:
    """Per-trial outcome of one transmitted block."""

    n_bit_errors: int
    n_user_block_errors: int
    f_ideal: np.ndarray           # rescaling factor per symbol, before the broadcast

    @property
    def f_spread(self) -> float:
        """Max relative in-block deviation of the ideal rescaling factor."""
        return float(np.max(np.abs(self.f_ideal / self.f_ideal[0] - 1.0)))


@dataclass(frozen=True)
class MetricsRecord:
    """Aggregated per-SNR metrics for one scheme configuration."""

    snr_db: float
    ber: float
    bler: float                  # from the measured BER via (1 - (1-P_b)^(M*bps))
    bler_counted: float          # directly counted user-block error rate
    t_eff: float
    n_bits: int
    n_errors: int
    mean_f: float
    f_spread: float
    n_trials: int
    n_failed: int


def quantize_broadcast(f: np.ndarray, feedback_bits: int, rng: np.random.Generator) -> np.ndarray:
    """Rescaling factors as received after B-bit broadcast, one per entry of ``f``.

    The limited feed-forward link adds zero-mean Gaussian error with variance
    F_MAX / 2^B = 2^-B, drawn for all entries at once. The results are floored
    at a tiny positive value since a nonpositive rescaling factor is meaningless.
    """
    variance = F_MAX / 2.0**feedback_bits
    f_hat = f + rng.normal(0.0, np.sqrt(variance), size=np.shape(f))
    clamped = f_hat < F_FLOOR
    if clamped.any():
        log.debug("%d quantized rescaling factors clamped to %.1e", clamped.sum(), F_FLOOR)
        f_hat[clamped] = F_FLOOR
    return f_hat


def effective_throughput(block_success: float, bits_per_symbol: int, users: int, block_len: int,
                         feedback_bits: int, scheme: Scheme) -> float:
    """Goodput after subtracting the rescaling-factor signaling overhead.

    ``block_success`` is the probability that a user's block has no bit error.
    Block-level schemes pay B / M bits of overhead per symbol duration,
    uniform-power SLP pays B (one broadcast every symbol duration).
    """
    if not 0.0 <= block_success <= 1.0:
        raise ValueError(f"block success probability must be in [0, 1], got {block_success}")
    overhead = feedback_bits / block_len if scheme in BLOCK_LEVEL_SCHEMES else float(feedback_bits)
    return max(block_success * bits_per_symbol * users - overhead, 0.0)


def transmit(cfg: LinkConfig, scheme: Scheme, sigma2: float, rng: np.random.Generator):
    """Draw one trial of ``scheme`` from ``rng``: (spec, labels, signal, noise, broadcast, f_ideal).

    ``signal`` is the noiseless (K, M) receive block sqrt(p)·(H X) and ``noise``
    its CN(0, sigma2) noise; the receiver gets ``broadcast[None, :] * (signal +
    noise)``. ``f_ideal`` holds the ideal rescaling factor of every symbol.

    Determinism contract: ``rng`` gives, in this order, the channel, the
    payload bytes (``modulate``, the one owner of a label's bit order, reads
    them as Gray labels), one unit-variance noise block that ``sigma2`` scales
    (drawn at ``sigma2 = 0`` too) and the broadcast error. Every SNR point
    of a trial draws from its one substream, so an SNR point only scales the
    noise. Another order or draw moves every seeded number.

    Each scheme yields its precoded block, its per-symbol powers and its ideal
    rescaling factors. A block-level scheme broadcasts one factor per block,
    uniform SLP one per symbol duration. Every broadcast passes through the
    B-bit error model of ``quantize_broadcast``; B is its only setting, and
    ``feedback_bits = MAX_FEEDBACK_BITS`` makes the broadcast exact.
    """
    scheme = Scheme(scheme)
    K, M = cfg.users, cfg.block_len
    spec = build_constellation(cfg.modulation)
    H = generate_channel(K, cfg.antennas, rng)
    n_bits = K * M * spec.bits_per_symbol
    labels, symbols = modulate(spec, rng.bytes(-(-n_bits // 8)), (K, M))
    noise = sample_noise(sigma2, K * M, rng).reshape(K, M)

    if scheme in SLP_SCHEMES:
        precoded, margins = slp_core.solve_block(H, symbols, spec)
        if scheme is Scheme.SLP_IN_BLOCK:
            powers = power_alloc.allocate_in_block(margins, power_alloc.P_T).powers
        else:
            powers = power_alloc.allocate_uniform(M)
        f_ideal = power_alloc.per_symbol_rescaling(margins, powers)
    else:
        if scheme is Scheme.ZF:
            prec = baselines.zf_precoder(H)
        else:
            prec = baselines.rzf_precoder(H, sigma2, M)
        precoded = prec.W @ symbols
        powers = power_alloc.allocate_uniform(M)
        f_ideal = np.full(M, baselines.baseline_rescaling(prec, powers[0]))

    # A block-level scheme's factors are equal over the block, so its first
    # one stands for all; for in-block SLP, f_spread shows that equalization.
    broadcast = quantize_broadcast(f_ideal[:1] if scheme in BLOCK_LEVEL_SCHEMES else f_ideal,
                                   cfg.feedback_bits, rng)
    signal = np.sqrt(powers)[None, :] * (H @ precoded)
    return spec, labels, signal, noise, broadcast, f_ideal


def simulate_block(cfg: LinkConfig, scheme: Scheme, sigma2: float, rng: np.random.Generator) -> BlockResult:
    """Draw one trial of ``scheme`` from ``rng`` by ``transmit`` and count the receiver's bit errors."""
    spec, labels, signal, noise, broadcast, f_ideal = transmit(cfg, scheme, sigma2, rng)
    received = broadcast[None, :] * (signal + noise)
    errors_per_user = bit_errors(labels, demodulate(spec, received)).sum(axis=1)
    return BlockResult(
        n_bit_errors=int(errors_per_user.sum()),
        n_user_block_errors=int(np.count_nonzero(errors_per_user)),
        f_ideal=f_ideal,
    )


def _run_trial(cfg: LinkConfig, scheme: Scheme, sigma2: float, trial_index: int):
    """The trial's BlockResult, or the reason it failed as "{type}: {message}"."""
    try:
        return simulate_block(cfg, scheme, sigma2, trial_rng(cfg.seed, trial_index))
    except (np.linalg.LinAlgError, DegenerateMarginError, SolverFailure) as exc:
        return f"{type(exc).__name__}: {exc}"


def _aggregate(cfg: LinkConfig, scheme: Scheme, snr_db: float, results: list) -> MetricsRecord:
    """Reduce one SNR point's trial results, listed by trial index."""
    blocks = [r for r in results if isinstance(r, BlockResult)]
    failures = [(trial, r) for trial, r in enumerate(results) if isinstance(r, str)]
    for trial, reason in failures:
        log.warning(
            "trial discarded (scheme=%s, snr=%.1f dB, seed=%d, trial=%d): %s",
            scheme.value, snr_db, cfg.seed, trial, reason,
        )
    if failures and not blocks:
        raise SolverFailure(
            f"every trial failed (scheme={scheme.value}, snr={snr_db:.1f} dB); "
            f"first: {failures[0][1]}"
        )

    if not blocks:  # no trial ran (channels = 0): nothing was measured
        nan = math.nan
        return MetricsRecord(
            snr_db=snr_db, ber=nan, bler=nan, bler_counted=nan, t_eff=nan,
            n_bits=0, n_errors=0, mean_f=nan, f_spread=nan, n_trials=0, n_failed=0,
        )
    bps = int(np.log2(cfg.modulation))
    n_bits = len(blocks) * cfg.users * cfg.block_len * bps
    n_errors = sum(b.n_bit_errors for b in blocks)
    ber = n_errors / n_bits
    bler_counted = sum(b.n_user_block_errors for b in blocks) / (len(blocks) * cfg.users)
    # one user's block succeeds when all its M·bps bits do, each independently of the others
    block_success = (1.0 - ber) ** (cfg.block_len * bps)
    bler = 1.0 - block_success
    t_eff = effective_throughput(block_success, bps, cfg.users, cfg.block_len, cfg.feedback_bits, scheme)
    mean_f = sum(float(b.f_ideal.sum()) for b in blocks) / (len(blocks) * cfg.block_len)
    f_spread = max(b.f_spread for b in blocks)
    return MetricsRecord(
        snr_db=snr_db, ber=ber, bler=bler, bler_counted=bler_counted, t_eff=t_eff,
        n_bits=n_bits, n_errors=n_errors, mean_f=mean_f, f_spread=f_spread,
        n_trials=len(blocks), n_failed=len(failures),
    )


def _worker_count() -> int:
    text = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(text)
    except ValueError:
        raise ConfigurationError(f"{WORKERS_ENV} must be an integer, got {text!r}") from None
    if not 1 <= workers <= MAX_WORKERS:
        raise ConfigurationError(f"worker count ({WORKERS_ENV}) must be in 1..{MAX_WORKERS}, got {workers}")
    return workers


def sweep_points(cfg: LinkConfig, scheme: Scheme):
    """Run the configured sweep for one scheme, one SNR point at a time.

    Yields each point's (record, results by trial index) once its pool, if
    any, is shut down. SLPSIM_WORKERS (default 1: serial) counts the processes
    that run a point's trials, the parent included. While the parent runs the
    last ``channels // workers``, each of at most ``workers - 1`` pool
    processes runs a contiguous share of the rest as one task: each task waits
    on the pool's feeder threads, which need the GIL the parent holds. Results
    are reduced in trial order, so they do not depend on scheduling. Raises
    SolverFailure when every trial of an SNR point fails. On Linux pools fork
    whatever the default: forkserver (CPython 3.14's) imports NumPy and SciPy
    again in every pool, 4-5x slower. CPython 3.12+ warns when a process with
    OpenBLAS threads forks. Other platforms keep their default.
    """
    scheme = Scheme(scheme)
    n_workers = _worker_count()
    pooled = n_workers > 1 and cfg.channels > 1
    if pooled and scheme in SLP_SCHEMES:
        slp_core._scipy_nnls()  # import SciPy once, before the forks, not in every worker
    for snr_db in cfg.snr_db:
        sigma2 = sigma2_from_snr(snr_db, cfg.block_len)
        task = partial(_run_trial, cfg, scheme, sigma2)
        if pooled:
            # a fork pool starts all its workers at once: start no more than there are tasks
            workers = min(n_workers, cfg.channels)
            split = cfg.channels - cfg.channels // workers
            chunk = math.ceil(split / (workers - 1))
            with ProcessPoolExecutor(max_workers=math.ceil(split / chunk), mp_context=_POOL_CONTEXT) as pool:
                first = pool.map(task, range(split), chunksize=chunk)
                last = [task(j) for j in range(split, cfg.channels)]
                results = list(first) + last
        else:
            results = [task(j) for j in range(cfg.channels)]
        yield _aggregate(cfg, scheme, snr_db, results), results


def run_monte_carlo(cfg: LinkConfig, scheme: Scheme) -> list:
    """The records of ``sweep_points``, one per SNR point."""
    return [record for record, _ in sweep_points(cfg, scheme)]
