"""Command-line front end: experiment configs, SNR sweeps, CSV output, verification.

Exit codes: 0 success, 1 configuration/validation error, 2 runtime or solver
failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import os
import sys
from enum import Enum
from pathlib import Path

import numpy as np

from . import slp_core
from .channel import generate_channel
from .constellation import build_constellation
from .errors import ConfigurationError
from .link_sim import BlockResult, Experiment, LinkConfig, run_monte_carlo

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


def _parse_snr(text: str) -> float:
    """One SNR value (dB). Only a spelled-out inf or infinity reads as infinite:
    float() also turns a finite number too large for it, such as 1e400, into inf."""
    value = float(text)
    if math.isinf(value) and text.strip().lstrip("+-").lower() not in ("inf", "infinity"):
        raise ValueError(f"{text.strip()!r} is too large for a float; write inf for zero noise")
    return value


def parse_snr_values(text: str) -> tuple:
    """Parse an SNR grid: a single value, a comma list, or start:step:stop (dB)."""
    text = text.strip()
    try:
        if ":" not in text:
            return tuple(_parse_snr(v) for v in text.split(","))
        start, step, stop = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise ConfigurationError(f"cannot parse snr_db value {text!r}: {exc}") from exc
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
    names = tuple(s.strip() for s in text.split(","))
    if not all(names):
        raise ConfigurationError(f"cannot parse schemes value {text!r}: empty scheme name")
    return names


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigurationError(f"cannot parse boolean value {text!r}")


# Config keys in LinkConfig field order, each with the parser that reads its
# text, from a config file or from the command line alike, and the
# `slpsim run` flag that sets it (None: config file only). The flag of a
# boolean key takes no value and means "key = off".
_FIELDS = {
    "users": (int, "--users"),
    "antennas": (int, "--antennas"),
    "block_len": (int, "--block-len"),
    "modulation": (int, "--mod"),
    "schemes": (_parse_schemes, "--scheme"),
    "snr_db": (parse_snr_values, "--snr-db"),
    "feedback_bits": (int, "--bits-feedback"),
    "f_max": (float, None),
    "channels": (int, "--channels"),
    "seed": (int, "--seed"),
    "quantization": (_parse_bool, "--no-quantization"),
    "experiment": (str, "--experiment"),
    "out": (str, "--out"),
}


def _parse_field(key: str, text: str, where: str):
    try:
        return _FIELDS[key][0](text)
    except ConfigurationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{where}: bad value for {key!r}: {exc}") from exc


def _read_config_file(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = _parse_field(key, value.strip(), f"{path}:{lineno}")
    return values


def parse_config(path=None, flags: dict | None = None) -> LinkConfig:
    """Resolve the config from an optional key = value file and flag texts by key.

    Flag texts override file values; both are read by their key's parser.
    """
    values = _read_config_file(path) if path else {}
    for key, text in (flags or {}).items():
        values[key] = _parse_field(key, text, _FIELDS[key][1])
    return LinkConfig(**values)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Enum):
        return str(value.value)
    return str(value)


def _write_csv(path: Path, columns, rows):
    """Write rows, as they are made, to a new file beside ``path``, then rename
    it onto ``path``: a run that fails deletes the new file and leaves
    ``path`` as it was."""
    tmp = path.with_name(f".slpsim-{os.getpid()}.tmp")  # short whatever the length of path.name
    try:
        fh = open(tmp, "x", newline="")  # mode from the umask, as open(path, "w") gives
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(row[c]) for c in columns])
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink()
        raise


def _run_columns(cfg: LinkConfig, scheme) -> dict:
    """The columns that sweep and trace rows share: what was run."""
    return {
        "experiment": cfg.experiment,
        "scheme": scheme,
        "modulation": cfg.modulation,
        "K": cfg.users,
        "N_T": cfg.antennas,
        "M": cfg.block_len,
        "B": cfg.feedback_bits,
        "seed": cfg.seed,
    }


def _sweep_rows(cfg: LinkConfig):
    for scheme in cfg.schemes:
        for record in run_monte_carlo(cfg, scheme):
            yield {**_run_columns(cfg, scheme), **vars(record)}


def _trace_rows(cfg: LinkConfig):
    """Per-symbol ideal rescaling factors of every block the sweep transmits.

    One block per scheme, SNR point and channel, from the sweep's substreams;
    ``block`` is its trial index. Failed trials are discarded as in a sweep.
    """
    for scheme in cfg.schemes:
        _, per_snr_trials = run_monte_carlo(cfg, scheme, return_trials=True)
        for snr_db, trials in zip(cfg.snr_db, per_snr_trials):
            for trial, block in enumerate(trials):
                if not isinstance(block, BlockResult):
                    continue
                for m, f_value in enumerate(block.f_ideal):
                    yield {**_run_columns(cfg, scheme), "snr_db": snr_db, "block": trial,
                           "symbol": m, "f": float(f_value)}


def run_experiment(cfg: LinkConfig) -> int:
    """Run the configured experiment and write its CSV. Returns 0 on success.

    Rows go, as each scheme's sweep makes them, to a temporary file beside
    ``out`` that is renamed onto it on success. An ``out`` that is a
    directory or a file this user may not write, and a missing directory,
    fail before the first trial. A run that fails leaves no new file behind
    and an existing ``out`` intact.
    """
    if cfg.experiment is Experiment.F_TRACE:
        columns, make_rows = TRACE_COLUMNS, _trace_rows
    else:
        columns, make_rows = SWEEP_COLUMNS, _sweep_rows
    out = Path(cfg.out).resolve()  # through a symlink, even a dangling one, onto its target
    with contextlib.suppress(FileNotFoundError):  # a new out is made by the rename
        os.close(os.open(out, os.O_WRONLY))  # a directory or an unwritable file fails here
    _write_csv(out, columns, make_rows(cfg))
    return 0


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def check_slp_solutions(cfg: LinkConfig) -> tuple[bool, str]:
    """Solve two blocks of the configured system, drawn from ``seed + 1`` and
    solved as the sweep does; check each solve's status, constraints and
    duality gap. Returns (passed, detail)."""
    n_blocks = 2
    rng = np.random.default_rng(cfg.seed + 1)
    spec = build_constellation(cfg.modulation)
    worst = 0.0
    worst_gap = 0.0
    min_margin = np.inf
    non_optimal = 0
    for _ in range(n_blocks):
        channel = generate_channel(cfg.users, cfg.antennas, rng)
        symbols = spec.points[rng.integers(0, cfg.modulation, (cfg.users, cfg.block_len))]
        for inst, sol in slp_core.solve_block(channel, symbols, spec):
            non_optimal += sol.status is not slp_core.SolverStatus.OPTIMAL
            report = slp_core.verify_solution(inst, sol, tol=1e-6)
            worst = max(worst, report.inner, report.outer, report.ball, report.norm_dev)
            worst_gap = max(worst_gap, sol.gap)
            min_margin = min(min_margin, sol.margin)
    passed = non_optimal == 0 and worst <= 1e-6 and min_margin > 0
    return passed, (
        f"{n_blocks} blocks of {cfg.block_len}: "
        f"{non_optimal} non-optimal solves, worst residual {worst:.2e}, "
        f"worst duality gap {worst_gap:.2e}, smallest margin {min_margin:.3f}"
    )


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigurationError (exit 1), not by exiting 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigurationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="slpsim",
        description="Symbol-level precoding link simulator with in-block power allocation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run an experiment and write its CSV")
    run_parser.add_argument("--config", help="key = value experiment file")
    for key, (parse, flag) in _FIELDS.items():
        if flag and parse is _parse_bool:
            run_parser.add_argument(flag, dest=key, action="store_const", const="off",
                                    default=argparse.SUPPRESS, help=f"{key} = off")
        elif flag:
            run_parser.add_argument(flag, dest=key, default=argparse.SUPPRESS,
                                    help=f"config key {key}")
    verify_parser = sub.add_parser("verify", help="check the CI solver on two seeded blocks")
    verify_parser.add_argument("--config", help="optional experiment file to take sizes from")
    verify_parser.add_argument("--seed", default=argparse.SUPPRESS, help="config key seed")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        flags = {key: text for key, text in vars(args).items() if key in _FIELDS}
        cfg = parse_config(args.config, flags)
        if args.command == "verify":
            passed, detail = check_slp_solutions(cfg)
            print(f"{'PASS' if passed else 'FAIL'} slp-solver: {detail}")
            return 0 if passed else 3
        return run_experiment(cfg)
    except (ConfigurationError, OSError) as exc:  # bad flag, config, worker count or path
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver/runtime failures
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
