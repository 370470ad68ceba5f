"""Command-line front end: experiment configs, SNR sweeps, CSV output.

Exit codes: 0 success, 1 configuration/validation error, 2 runtime or solver
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import errno
import math
import os
import re
import shutil
import stat
import sys
from enum import Enum
from pathlib import Path

from .errors import ConfigurationError
from .link_sim import BlockResult, Experiment, LinkConfig, run_monte_carlo, sweep_points

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
    # points are kept to 9 decimals: a finer step would repeat them
    if step < 1e-9:
        raise ConfigurationError(f"snr_db step must be >= 1e-9 dB, got {step}")
    values = []
    v = start
    while round(v, 9) <= round(stop, 9):
        if len(values) == MAX_SNR_POINTS:
            raise ConfigurationError(f"snr_db range {text!r} has more than {MAX_SNR_POINTS} points")
        values.append(round(v, 9))
        v += step
    if len(set(values)) < len(values):  # a step of about 1e-9 from a start off the 1e-9 grid
        raise ConfigurationError(f"snr_db range {text!r} repeats a point rounded to 9 decimals")
    return tuple(values)


def _parse_schemes(text: str) -> tuple:
    names = tuple(s.strip() for s in text.split(","))
    if not all(names):
        raise ConfigurationError(f"cannot parse schemes value {text!r}: empty scheme name")
    return names


# Config keys in LinkConfig field order, each with the parser that reads its
# text, from a config file or from the command line alike, and the one flag
# that sets it in `slpsim run`.
_FIELDS = {
    "users": (int, "--users"),
    "antennas": (int, "--antennas"),
    "block_len": (int, "--block-len"),
    "modulation": (int, "--mod"),
    "schemes": (_parse_schemes, "--scheme"),
    "snr_db": (parse_snr_values, "--snr-db"),
    "feedback_bits": (int, "--bits-feedback"),
    "channels": (int, "--channels"),
    "seed": (int, "--seed"),
    "experiment": (str, "--experiment"),
    "out": (str, "--out"),
}


def _parse_field(key: str, text: str, where: str):
    try:
        return _FIELDS[key][0](text)
    except (TypeError, ValueError) as exc:  # a ConfigurationError is a ValueError
        raise ConfigurationError(f"{where}: bad value for {key!r}: {exc}") from exc


def _read_config_file(path) -> dict:
    # checked before it is opened: a FIFO with no writer blocks, and /dev/zero never ends
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise ConfigurationError(f"{path}: not a regular file")
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 text: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        # a '#' starts a comment only at the start of the line or after whitespace
        line = re.split(r"(?<!\S)#", raw, maxsplit=1)[0].strip()
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


# renameat2(RENAME_EXCHANGE) swaps two names in one step; unlike os.replace onto an existing
# name it does not make ext4 (auto_da_alloc) flush the new file first: 0.29 ms against 48 ms
try:
    _renameat2 = ctypes.CDLL(None, use_errno=True).renameat2
    _renameat2.argtypes = (ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_uint)
    _renameat2.restype = ctypes.c_int
except (AttributeError, OSError, TypeError):  # a libc without it, or no libc to look in
    _renameat2 = None
_AT_FDCWD, _RENAME_EXCHANGE = -100, 2


def _swap(tmp: Path, path: Path) -> bool:
    """Exchange ``tmp`` with ``path``. False where the swap cannot run: no
    renameat2, no ``path``, or a filesystem that refuses the flag."""
    if _renameat2 is None:
        return False
    if _renameat2(_AT_FDCWD, os.fsencode(tmp), _AT_FDCWD, os.fsencode(path), _RENAME_EXCHANGE) == 0:
        return True
    err = ctypes.get_errno()
    if err in (errno.ENOENT, errno.EINVAL, errno.ENOSYS, errno.EOPNOTSUPP):
        return False
    raise OSError(err, os.strerror(err), str(path))


def _write_csv(path: Path, columns, rows):
    """Write rows, as they are made, to a new file beside ``path``, then swap
    or rename it onto ``path``: a run that fails deletes the new file and leaves
    ``path`` as it was. An existing ``path`` keeps its mode."""
    # short whatever the length of path.name; random, so a killed run's file blocks no later run
    tmp = path.with_name(f".slpsim-{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "x", newline="")
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(row[c]) for c in columns])
        with contextlib.suppress(FileNotFoundError):  # a new path keeps the umask's mode
            shutil.copymode(path, tmp)
        if not _swap(tmp, path):
            os.replace(tmp, path)
            return
    except BaseException:
        tmp.unlink()
        raise
    with contextlib.suppress(OSError):  # tmp names the old path now; the run has succeeded
        tmp.unlink()


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
    Only one SNR point's blocks are held at a time.
    """
    for scheme in cfg.schemes:
        for record, trials in sweep_points(cfg, scheme):
            for trial, block in enumerate(trials):
                if not isinstance(block, BlockResult):
                    continue
                for m, f_value in enumerate(block.f_ideal):
                    yield {**_run_columns(cfg, scheme), "snr_db": record.snr_db, "block": trial,
                           "symbol": m, "f": float(f_value)}


def run_experiment(cfg: LinkConfig) -> int:
    """Run the configured experiment and write its CSV. Returns 0 on success.

    Rows go to a temporary file beside ``out`` that replaces it on success:
    a BER_SWEEP scheme's rows once its last SNR point is done,
    F_TRACE rows as each SNR point makes them. An existing ``out`` that is
    not a regular file (a directory, a FIFO, a device) or that this user may
    not write, and a missing directory, fail before the first trial. A run
    that fails leaves no new file behind and an existing ``out`` intact.
    """
    if cfg.experiment is Experiment.F_TRACE:
        columns, make_rows = TRACE_COLUMNS, _trace_rows
    else:
        columns, make_rows = SWEEP_COLUMNS, _sweep_rows
    # through a symlink, even a dangling one, onto its target; a loop fails the stat with ELOOP
    out = Path(os.path.realpath(cfg.out))  # Path.resolve raises RuntimeError there before 3.13
    with contextlib.suppress(FileNotFoundError):  # a new out is made by the rename
        # checked before it is opened: opening a FIFO that has no reader blocks
        if not stat.S_ISREG(out.stat().st_mode):
            raise ConfigurationError(f"out {str(out)!r} exists and is not a regular file")
        os.close(os.open(out, os.O_WRONLY))  # an unwritable file fails here
    _write_csv(out, columns, make_rows(cfg))
    return 0


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
        prog="slpsim", allow_abbrev=False,
        description="Symbol-level precoding link simulator with in-block power allocation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment and write its CSV", allow_abbrev=False)
    run.add_argument("--config", help="key = value experiment file")
    for key, (_, flag) in _FIELDS.items():
        run.add_argument(flag, dest=key, default=argparse.SUPPRESS, help=f"config key {key}")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value that starts with '-' (--snr-db -10:5:0) as a flag, but not in the
    # --flag=value form; a flag or -h/--help after a value flag is left as it is
    value_flags = {"--config", *(flag for _, flag in _FIELDS.values())}
    i = 0
    while i < len(argv) - 1:
        if argv[i] in value_flags and argv[i + 1] not in value_flags | {"-h", "--help"}:
            argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
        i += 1
    try:
        args = _build_parser().parse_args(argv)
        flags = {key: text for key, text in vars(args).items() if key in _FIELDS}
        return run_experiment(parse_config(args.config, flags))
    except (ConfigurationError, OSError) as exc:  # bad flag, config, worker count or path
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver/runtime failures
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
