"""End-to-end Monte Carlo link simulation across precoding schemes.

Each trial draws one channel and transmits one block of M symbol durations.
The receiver multiplies its samples by the broadcast rescaling factor and
slices against the nominal constellation; block-level schemes (in-block SLP,
ZF, RZF) broadcast a single quantized factor per block, while uniform-power
SLP needs an independently quantized factor per symbol duration.

Determinism contract: each (SNR index, trial index) pair gets its own random
substream derived from the experiment seed, so results are bit-identical
regardless of execution order or worker count.
"""

from __future__ import annotations

import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from . import baselines, power_alloc, slp_core
from .channel import (
    ChannelRealization,
    NoiseModel,
    generate_channel,
    sample_noise,
    sigma2_from_snr,
    trial_rng,
)
from .constellation import ConstellationSpec, SUPPORTED_ORDERS, build_constellation, demodulate, modulate
from .errors import ConfigurationError, DegenerateMarginError, SolverFailure

log = logging.getLogger(__name__)

WORKERS_ENV = "SLPSIM_WORKERS"
MAX_WORKERS = 64

# Floor applied to a quantized rescaling factor: the additive Gaussian error
# model permits nonpositive values, which are physically meaningless.
F_FLOOR = 1e-6


class Scheme(str, Enum):
    SLP_IN_BLOCK = "SLP_IN_BLOCK"
    SLP_UNIFORM = "SLP_UNIFORM"
    ZF = "ZF"
    RZF = "RZF"


# Schemes whose rescaling factor is constant within a block (one broadcast).
BLOCK_LEVEL_SCHEMES = frozenset({Scheme.SLP_IN_BLOCK, Scheme.ZF, Scheme.RZF})


class Experiment(str, Enum):
    BER_SWEEP = "BER_SWEEP"
    THROUGHPUT_SWEEP = "THROUGHPUT_SWEEP"
    F_TRACE = "F_TRACE"


@dataclass(frozen=True)
class LinkConfig:
    """One experiment: system, sweep and output. The fields are the config-file keys."""

    users: int = 4
    antennas: int = 4
    block_len: int = 50
    modulation: int = 16
    schemes: tuple = tuple(Scheme)
    total_power: float = 1.0
    snr_db: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    feedback_bits: int = 5
    f_max: float = 1.0
    channels: int = 100
    seed: int = 1
    quantization: bool = True
    experiment: Experiment = Experiment.BER_SWEEP
    out: str = "results.csv"

    def __post_init__(self):
        if self.users < 1:
            raise ConfigurationError(f"users must be >= 1, got {self.users}")
        if self.users > self.antennas:
            raise ConfigurationError(
                "constraint violated: users <= antennas "
                f"(got users={self.users}, antennas={self.antennas})"
            )
        if self.block_len < 1:
            raise ConfigurationError(f"block_len must be >= 1, got {self.block_len}")
        if self.modulation not in SUPPORTED_ORDERS:
            raise ConfigurationError(
                f"modulation must be one of {SUPPORTED_ORDERS}, got {self.modulation}"
            )
        if not self.schemes:
            raise ConfigurationError("schemes must name at least one scheme")
        try:
            object.__setattr__(self, "schemes", tuple(Scheme(s) for s in self.schemes))
        except ValueError as exc:
            raise ConfigurationError(
                f"unknown scheme in {self.schemes!r}; valid: {[s.value for s in Scheme]}"
            ) from exc
        if not self.snr_db:
            raise ConfigurationError("snr_db grid is empty")
        # inf (zero noise) is allowed; nan and -inf have no noise variance
        if not all(v > -math.inf for v in self.snr_db):
            raise ConfigurationError(f"snr_db values must be finite or inf, got {self.snr_db}")
        if self.feedback_bits < 1:
            raise ConfigurationError(f"feedback_bits must be >= 1, got {self.feedback_bits}")
        if self.f_max <= 0:
            raise ConfigurationError(f"f_max must be > 0, got {self.f_max}")
        if self.total_power <= 0:
            raise ConfigurationError(f"total_power must be > 0, got {self.total_power}")
        if self.channels < 0:
            raise ConfigurationError(f"channels must be >= 0, got {self.channels}")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        try:
            object.__setattr__(self, "experiment", Experiment(self.experiment))
        except ValueError as exc:
            raise ConfigurationError(
                f"unknown experiment {self.experiment!r}; valid: {[e.value for e in Experiment]}"
            ) from exc


@dataclass
class BlockResult:
    """Per-trial outcome of one transmitted block."""

    n_bits: int
    n_bit_errors: int
    n_user_blocks: int
    n_user_block_errors: int
    f_ideal: np.ndarray           # pre-quantization rescaling factor per symbol
    tx_power: float               # sum_m p_m * ||x_m||^2 actually spent
    margins: np.ndarray | None = None

    @property
    def f_spread(self) -> float:
        """Max relative in-block deviation of the ideal rescaling factor."""
        return float(np.max(np.abs(self.f_ideal / self.f_ideal[0] - 1.0)))


@dataclass(frozen=True)
class TrialFailure:
    trial_index: int
    reason: str


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


def quantize_broadcast(f: float, feedback_bits: int, f_max: float, rng: np.random.Generator) -> float:
    """Rescaling factor as received after B-bit broadcast.

    The limited feed-forward link adds zero-mean Gaussian error with variance
    f_max / 2^B. The result is floored at a tiny positive value since a
    nonpositive rescaling factor is meaningless.
    """
    variance = f_max / 2.0**feedback_bits
    f_hat = f + rng.normal(0.0, np.sqrt(variance))
    if f_hat < F_FLOOR:
        log.debug("quantized rescaling factor clamped: %.3e -> %.1e", f_hat, F_FLOOR)
        return F_FLOOR
    return float(f_hat)


def effective_throughput(
    bit_error_rate: float,
    modulation: int,
    users: int,
    block_len: int,
    feedback_bits: int,
    scheme: Scheme,
) -> float:
    """Goodput after subtracting the rescaling-factor signaling overhead.

    Block-level schemes pay B / M bits of overhead per symbol duration,
    uniform-power SLP pays B (one broadcast every symbol duration).
    """
    if not 0.0 <= bit_error_rate <= 1.0:
        raise ValueError(f"bit error rate must be in [0, 1], got {bit_error_rate}")
    bits_per_symbol = int(np.log2(modulation))
    overhead = feedback_bits / block_len if scheme in BLOCK_LEVEL_SCHEMES else float(feedback_bits)
    goodput = (1.0 - bit_error_rate) ** (block_len * bits_per_symbol) * bits_per_symbol * users
    return max(goodput - overhead, 0.0)


def _slp_transmit(cfg: LinkConfig, channel, symbols, spec, opts):
    """Solve the per-symbol CI problems of a block; returns (X, margins)."""
    n_tx, M = channel.n_antennas, cfg.block_len
    X = np.empty((n_tx, M), dtype=complex)
    margins = np.empty(M)
    for m in range(M):
        inst = slp_core.build_instance(channel, symbols[:, m], spec)
        sol = slp_core.solve_ci_max(inst, opts)
        if sol.status is not slp_core.SolverStatus.OPTIMAL:
            raise SolverFailure(f"CI solve not optimal at symbol {m}: {sol.residuals}")
        X[:, m] = sol.x
        margins[m] = sol.margin
    return X, margins


def simulate_block(
    cfg: LinkConfig,
    scheme: Scheme,
    channel: ChannelRealization,
    sigma2: float,
    rng: np.random.Generator,
    spec: ConstellationSpec | None = None,
) -> BlockResult:
    """Transmit one block of ``scheme`` through ``channel`` and count receiver bit errors."""
    scheme = Scheme(scheme)
    spec = spec or build_constellation(cfg.modulation)
    K, M = cfg.users, cfg.block_len
    bps = spec.bits_per_symbol

    bits = rng.integers(0, 2, size=(K, M, bps))
    symbols = modulate(spec, bits.reshape(-1)).reshape(K, M)
    noise = sample_noise(NoiseModel(sigma2), K * M, rng).reshape(K, M)

    margins = None
    if scheme in (Scheme.SLP_IN_BLOCK, Scheme.SLP_UNIFORM):
        X, margins = _slp_transmit(cfg, channel, symbols, spec, slp_core.SolverOptions())
        if scheme is Scheme.SLP_IN_BLOCK:
            alloc = power_alloc.allocate_in_block(margins, cfg.total_power)
            powers = alloc.powers
            # per-symbol factors agree with the block value; keeping them
            # individually computed lets tests check that equalization
            f_ideal = np.array(
                [power_alloc.per_symbol_rescaling(margins[m], powers[m]) for m in range(M)]
            )
            f_common = (
                quantize_broadcast(alloc.rescale, cfg.feedback_bits, cfg.f_max, rng)
                if cfg.quantization
                else alloc.rescale
            )
            f_used = np.full(M, f_common)
        else:
            powers = power_alloc.allocate_uniform(M, cfg.total_power).powers
            f_ideal = np.array(
                [power_alloc.per_symbol_rescaling(margins[m], powers[m]) for m in range(M)]
            )
            if cfg.quantization:
                f_used = np.array(
                    [quantize_broadcast(f, cfg.feedback_bits, cfg.f_max, rng) for f in f_ideal]
                )
            else:
                f_used = f_ideal
        precoded = X
    else:
        if scheme is Scheme.ZF:
            prec = baselines.zf_precoder(channel)
        else:
            prec = baselines.rzf_precoder(channel, sigma2, M, cfg.total_power)
        powers = power_alloc.allocate_uniform(M, cfg.total_power).powers
        f_value = baselines.baseline_rescaling(prec, powers[0])
        f_ideal = np.full(M, f_value)
        f_common = (
            quantize_broadcast(f_value, cfg.feedback_bits, cfg.f_max, rng)
            if cfg.quantization
            else f_value
        )
        f_used = np.full(M, f_common)
        precoded = prec.W @ symbols

    received = f_used[None, :] * (np.sqrt(powers)[None, :] * (channel.H @ precoded) + noise)
    _, bits_hat = demodulate(spec, received.reshape(-1))
    bits_hat = bits_hat.reshape(K, M, bps)

    errors_per_user = np.count_nonzero(bits_hat != bits, axis=(1, 2))
    tx_power = float(np.sum(powers * np.sum(np.abs(precoded) ** 2, axis=0)))
    return BlockResult(
        n_bits=K * M * bps,
        n_bit_errors=int(errors_per_user.sum()),
        n_user_blocks=K,
        n_user_block_errors=int(np.count_nonzero(errors_per_user)),
        f_ideal=f_ideal,
        tx_power=tx_power,
        margins=margins,
    )


def _run_trial(cfg: LinkConfig, scheme: Scheme, spec: ConstellationSpec, snr_index: int,
               sigma2: float, trial_index: int):
    rng = trial_rng(cfg.seed, snr_index, trial_index)
    try:
        channel = generate_channel(cfg.users, cfg.antennas, rng)
        return simulate_block(cfg, scheme, channel, sigma2, rng, spec)
    except (np.linalg.LinAlgError, DegenerateMarginError, SolverFailure) as exc:
        return TrialFailure(trial_index=trial_index, reason=f"{type(exc).__name__}: {exc}")


def _aggregate(cfg: LinkConfig, scheme: Scheme, snr_db: float, results: list) -> MetricsRecord:
    blocks = [r for r in results if isinstance(r, BlockResult)]
    failures = [r for r in results if isinstance(r, TrialFailure)]
    for fail in failures:
        log.warning(
            "trial discarded (scheme=%s, snr=%.1f dB, seed=%d, trial=%d): %s",
            scheme.value, snr_db, cfg.seed, fail.trial_index, fail.reason,
        )
    if failures and not blocks:
        raise SolverFailure(
            f"every trial failed (scheme={scheme.value}, snr={snr_db:.1f} dB); "
            f"first: {failures[0].reason}"
        )

    n_bits = sum(b.n_bits for b in blocks)
    n_errors = sum(b.n_bit_errors for b in blocks)
    ber = n_errors / n_bits if n_bits else 0.0
    n_user_blocks = sum(b.n_user_blocks for b in blocks)
    bler_counted = (
        sum(b.n_user_block_errors for b in blocks) / n_user_blocks if n_user_blocks else 0.0
    )
    bps = int(np.log2(cfg.modulation))
    bler = 1.0 - (1.0 - ber) ** (cfg.block_len * bps)
    t_eff = effective_throughput(
        ber, cfg.modulation, cfg.users, cfg.block_len, cfg.feedback_bits, scheme
    )
    mean_f = (
        sum(float(b.f_ideal.sum()) for b in blocks) / (len(blocks) * cfg.block_len)
        if blocks
        else 0.0
    )
    f_spread = max((b.f_spread for b in blocks), default=0.0)
    return MetricsRecord(
        snr_db=snr_db,
        ber=ber,
        bler=bler,
        bler_counted=bler_counted,
        t_eff=t_eff,
        n_bits=n_bits,
        n_errors=n_errors,
        mean_f=mean_f,
        f_spread=f_spread,
        n_trials=len(blocks),
        n_failed=len(failures),
    )


def _worker_count(workers: int | None) -> int:
    if workers is None:
        text = os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(text)
        except ValueError:
            raise ConfigurationError(f"{WORKERS_ENV} must be an integer, got {text!r}") from None
    if not 1 <= workers <= MAX_WORKERS:
        raise ConfigurationError(f"worker count ({WORKERS_ENV}) must be in 1..{MAX_WORKERS}, got {workers}")
    return workers


def run_monte_carlo(cfg: LinkConfig, scheme: Scheme, workers: int | None = None,
                    return_trials: bool = False):
    """Run the configured sweep for one scheme; one record per SNR point.

    ``workers`` (default: the SLPSIM_WORKERS env var, else serial) bounds the
    process pool; results are reduced in trial order, so the output does not
    depend on scheduling. With ``return_trials`` the per-trial block results
    are returned alongside the records. Raises SolverFailure when every
    trial of an SNR point fails.
    """
    scheme = Scheme(scheme)
    spec = build_constellation(cfg.modulation)
    n_workers = _worker_count(workers)
    records = []
    per_snr_trials = []
    for i, snr_db in enumerate(cfg.snr_db):
        sigma2 = sigma2_from_snr(snr_db, cfg.block_len, cfg.total_power)
        task = partial(_run_trial, cfg, scheme, spec, i, sigma2)
        if n_workers > 1 and cfg.channels > 1:
            chunk = max(1, cfg.channels // (4 * n_workers))
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                results = list(pool.map(task, range(cfg.channels), chunksize=chunk))
        else:
            results = [task(j) for j in range(cfg.channels)]
        records.append(_aggregate(cfg, scheme, snr_db, results))
        if return_trials:
            per_snr_trials.append(results)
    if return_trials:
        return records, per_snr_trials
    return records
