"""Command-line front end: experiment configs, SNR sweeps, CSV output, verification.

Exit codes: 0 success, 1 configuration/validation error, 2 runtime or solver
failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import power_alloc, slp_core
from .channel import generate_channel, sigma2_from_snr, trial_rng
from .constellation import SUPPORTED_ORDERS, build_constellation, classify_component
from .errors import ConfigurationError
from .link_sim import (
    Experiment,
    LinkConfig,
    quantize_broadcast,
    run_monte_carlo,
    simulate_block,
)

# Column orders are part of the output contract; never reorder.
SWEEP_COLUMNS = [
    "experiment", "scheme", "modulation", "K", "N_T", "M", "B",
    "snr_db", "ber", "bler", "t_eff", "mean_f", "f_spread",
    "n_bits", "n_errors", "seed",
]
TRACE_COLUMNS = [
    "experiment", "scheme", "modulation", "K", "N_T", "M", "B",
    "snr_db", "block", "symbol", "f", "seed",
]

# Longest start:step:stop grid accepted; far beyond any useful sweep.
MAX_SNR_POINTS = 1000


def parse_snr_values(text: str) -> tuple:
    """Parse an SNR grid: a single value, a comma list, or start:step:stop (dB)."""
    text = text.strip()
    try:
        if ":" not in text:
            return tuple(float(v) for v in text.split(","))
        start, step, stop = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse snr_db value {text!r}") from exc
    if not all(math.isfinite(v) for v in (start, step, stop)):
        raise ConfigurationError(f"snr_db range bounds must be finite, got {text!r}")
    if step <= 0:
        raise ConfigurationError(f"snr_db step must be > 0, got {step}")
    values = []
    v = start
    while v <= stop + 1e-9:
        if len(values) == MAX_SNR_POINTS:
            raise ConfigurationError(f"snr_db range {text!r} has more than {MAX_SNR_POINTS} points")
        values.append(round(v, 9))
        v += step
    return tuple(values)


def _parse_schemes(text: str) -> tuple:
    return tuple(s.strip() for s in text.split(",") if s.strip())


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"cannot parse boolean value {text!r}")


# Config-file keys and their parsers: one per LinkConfig field.
_CONFIG_PARSERS = {
    "users": int,
    "antennas": int,
    "block_len": int,
    "modulation": int,
    "schemes": _parse_schemes,
    "total_power": float,
    "snr_db": parse_snr_values,
    "feedback_bits": int,
    "f_max": float,
    "channels": int,
    "seed": int,
    "quantization": _parse_bool,
    "experiment": str,
    "out": str,
}


def _read_config_file(path) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_PARSERS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](value.strip())
        except ConfigurationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def parse_config(path=None, overrides: dict | None = None) -> LinkConfig:
    """Resolve the config from an optional key=value file plus overrides (None = unset)."""
    values = _read_config_file(path) if path else {}
    values.update({k: v for k, v in (overrides or {}).items() if v is not None})
    return LinkConfig(**values)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Enum):
        return str(value.value)
    return str(value)


def _write_csv(path, columns, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def _sweep_rows(cfg: LinkConfig) -> list:
    rows = []
    for scheme in cfg.schemes:
        for record in run_monte_carlo(cfg, scheme):
            rows.append({
                "experiment": cfg.experiment,
                "scheme": scheme,
                "modulation": cfg.modulation,
                "K": cfg.users,
                "N_T": cfg.antennas,
                "M": cfg.block_len,
                "B": cfg.feedback_bits,
                "snr_db": record.snr_db,
                "ber": record.ber,
                "bler": record.bler,
                "t_eff": record.t_eff,
                "mean_f": record.mean_f,
                "f_spread": record.f_spread,
                "n_bits": record.n_bits,
                "n_errors": record.n_errors,
                "seed": cfg.seed,
            })
    return rows


def _trace_rows(cfg: LinkConfig) -> list:
    """Per-symbol ideal rescaling factors for one block per scheme."""
    snr_db = cfg.snr_db[0]
    rows = []
    for scheme in cfg.schemes:
        rng = trial_rng(cfg.seed, 0, 0)
        channel = generate_channel(cfg.users, cfg.antennas, rng)
        sigma2 = sigma2_from_snr(snr_db, cfg.block_len, cfg.total_power)
        block = simulate_block(cfg, scheme, channel, sigma2, rng)
        for m, f_value in enumerate(block.f_ideal):
            rows.append({
                "experiment": cfg.experiment,
                "scheme": scheme,
                "modulation": cfg.modulation,
                "K": cfg.users,
                "N_T": cfg.antennas,
                "M": cfg.block_len,
                "B": cfg.feedback_bits,
                "snr_db": snr_db,
                "block": 0,
                "symbol": m,
                "f": float(f_value),
                "seed": cfg.seed,
            })
    return rows


def run_experiment(cfg: LinkConfig) -> int:
    """Run the configured experiment and write its CSV. Returns 0 on success."""
    if cfg.experiment is Experiment.F_TRACE:
        _write_csv(cfg.out, TRACE_COLUMNS, _trace_rows(cfg))
    else:
        _write_csv(cfg.out, SWEEP_COLUMNS, _sweep_rows(cfg))
    return 0


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    detail: str


def check_power_allocation(rng, n_samples: int = 200, sizes=(2, 10, 50)) -> SuiteResult:
    """Closed form vs bisection oracle plus KKT certificates on random margins."""
    worst_rel = 0.0
    worst_kkt = 0.0
    total_power = 1.0
    for i in range(n_samples):
        size = sizes[i % len(sizes)]
        margins = 10.0 ** rng.uniform(-1.5, 1.5, size)
        powers = power_alloc.allocate_in_block(margins, total_power).powers
        oracle = power_alloc.solve_maxmin_power(margins, total_power)
        worst_rel = max(worst_rel, float(np.max(np.abs(powers - oracle) / oracle)))
        cert = power_alloc.verify_kkt(margins, powers, total_power)
        worst_kkt = max(
            worst_kkt,
            cert.stationarity_residual,
            cert.complementarity_residual,
            cert.primal_residual,
        )
    passed = worst_rel <= 1e-8 and worst_kkt <= 1e-9
    return SuiteResult(
        name="power-allocation",
        passed=passed,
        detail=f"worst closed-form/oracle rel diff {worst_rel:.2e}, worst KKT residual {worst_kkt:.2e}",
    )


def check_slp_solutions(rng, n_samples: int = 40, users: int = 4, antennas: int = 4,
                        modulation: int = 16) -> SuiteResult:
    """Solve random instances and verify the returned solutions' constraints."""
    spec = build_constellation(modulation)
    worst = 0.0
    min_margin = np.inf
    for _ in range(n_samples):
        channel = generate_channel(users, antennas, rng)
        labels = rng.integers(0, modulation, users)
        symbols = spec.points[labels]
        inst = slp_core.build_instance(channel, symbols, spec)
        sol = slp_core.solve_ci_max(inst)
        report = slp_core.verify_solution(inst, sol, tol=1e-6)
        worst = max(worst, report.coupling, report.inner, report.outer,
                    report.ball, report.norm_dev)
        min_margin = min(min_margin, sol.margin)
    passed = worst <= 1e-6 and min_margin > 0
    return SuiteResult(
        name="slp-solver",
        passed=passed,
        detail=f"worst residual {worst:.2e}, smallest margin {min_margin:.3f}",
    )


def check_constellations() -> SuiteResult:
    """Unit energy, Gray adjacency, and inner/outer partition for every order."""
    worst_energy = 0.0
    gray_ok = True
    for order in SUPPORTED_ORDERS:
        spec = build_constellation(order)
        worst_energy = max(worst_energy, abs(float(np.mean(np.abs(spec.points) ** 2)) - 1.0))
        # axis-adjacent points must differ in exactly one label bit
        labels_by_point = {complex(p): label for label, p in enumerate(spec.points)}
        step = spec.levels[1] - spec.levels[0] if spec.levels.size > 1 else 0.0
        for p, label in labels_by_point.items():
            for delta in (step, 1j * step):
                q = p + delta
                if complex(q) in labels_by_point:
                    other = labels_by_point[complex(q)]
                    if bin(label ^ other).count("1") != 1:
                        gray_ok = False
    spec16 = build_constellation(16)
    classes = Counter(
        (c.real_class, c.imag_class)
        for c in (classify_component(spec16, complex(p)) for p in spec16.points)
    )
    partition_ok = len(classes) == 4 and set(classes.values()) == {4}
    passed = worst_energy <= 1e-12 and gray_ok and partition_ok
    return SuiteResult(
        name="constellation",
        passed=passed,
        detail=f"worst mean-energy deviation {worst_energy:.2e}, gray={gray_ok}, partition={partition_ok}",
    )


def check_quantization(rng, n_samples: int = 100_000, feedback_bits: int = 5,
                       f_max: float = 1.0) -> SuiteResult:
    """Empirical broadcast-error variance against f_max / 2^B (within 3%)."""
    f_nominal = 10.0
    draws = np.array([
        quantize_broadcast(f_nominal, feedback_bits, f_max, rng) for _ in range(n_samples)
    ])
    measured = float(np.var(draws - f_nominal))
    expected = f_max / 2.0**feedback_bits
    rel = abs(measured - expected) / expected
    return SuiteResult(
        name="quantization",
        passed=rel <= 0.03,
        detail=f"variance {measured:.5f} vs expected {expected:.5f} (rel dev {rel:.2%})",
    )


def run_verification(cfg: LinkConfig | None = None, seed: int = 0) -> list:
    """Run all verification suites; library invariants when no config is given."""
    users, antennas, modulation = 4, 4, 16
    if cfg is not None:
        users, antennas, modulation = cfg.users, cfg.antennas, cfg.modulation
    results = [
        check_constellations(),
        check_power_allocation(np.random.default_rng(seed)),
        check_slp_solutions(
            np.random.default_rng(seed + 1), users=users, antennas=antennas,
            modulation=modulation,
        ),
        check_quantization(np.random.default_rng(seed + 2)),
    ]
    return results


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_run_flags(parser):
    parser.add_argument("--config", help="key = value experiment file")
    parser.add_argument("--experiment", choices=[e.value for e in Experiment])
    parser.add_argument("--scheme", dest="schemes",
                        help="comma-separated schemes (default: all)")
    parser.add_argument("--mod", dest="modulation", type=int, help="QAM order")
    parser.add_argument("--users", type=int)
    parser.add_argument("--antennas", type=int)
    parser.add_argument("--block-len", dest="block_len", type=int)
    parser.add_argument("--snr-db", dest="snr_db",
                        help="grid: single value, comma list, or start:step:stop")
    parser.add_argument("--channels", type=int)
    parser.add_argument("--bits-feedback", dest="feedback_bits", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--no-quantization", action="store_true",
                        help="broadcast the rescaling factor without error")


def _overrides_from_args(args) -> dict:
    return {
        "users": args.users,
        "antennas": args.antennas,
        "block_len": args.block_len,
        "modulation": args.modulation,
        "channels": args.channels,
        "feedback_bits": args.feedback_bits,
        "seed": args.seed,
        "out": args.out,
        "experiment": args.experiment,
        "schemes": None if args.schemes is None else _parse_schemes(args.schemes),
        "snr_db": None if args.snr_db is None else parse_snr_values(args.snr_db),
        "quantization": False if args.no_quantization else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="slpsim",
        description="Symbol-level precoding link simulator with in-block power allocation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run an experiment and write its CSV")
    _add_run_flags(run_parser)
    verify_parser = sub.add_parser("verify", help="run the built-in verification suites")
    verify_parser.add_argument("--config", help="optional experiment file to take sizes from")
    verify_parser.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)

    if args.command == "verify":
        try:
            cfg = parse_config(args.config) if args.config else None
        except (ConfigurationError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        results = run_verification(cfg, seed=args.seed)
        for result in results:
            status = "PASS" if result.passed else "FAIL"
            print(f"{status} {result.name}: {result.detail}")
        return 0 if all(r.passed for r in results) else 3

    try:
        return run_experiment(parse_config(args.config, _overrides_from_args(args)))
    except (ConfigurationError, OSError) as exc:  # bad config, worker count or path
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver/runtime failures
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
