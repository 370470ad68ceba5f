"""Workloads, timed runs, correctness gate and run manifest of the slpsim benchmark.

Every workload runs the ``slpsim run`` path in this process through
``slpsim.cli.main``, on the same arguments and seed in every repetition,
until the run's time is spent. See README.md beside this file for the
workloads, the metrics and the layer each one isolates.
"""

from __future__ import annotations

import csv
import hashlib
import logging
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pin BLAS to one thread before numpy loads: the OpenBLAS build is threaded
# and would compete with the worker pool for the cores.
os.environ.update({var: "1" for var in BLAS_VARS})

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(SRC))

from slpsim import baselines, cli, link_sim, power_alloc, slp_core  # noqa: E402

ALL_SCHEMES = ("SLP_IN_BLOCK", "SLP_UNIFORM", "ZF", "RZF")
SLP_SCHEMES = frozenset({"SLP_IN_BLOCK", "SLP_UNIFORM"})
MIN_REPS = 3
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
# The paper's equalization property: one rescaling factor per block.
F_SPREAD_MAX = 1e-9
CI_VERIFY_TOL = 1e-6
# Timings are reported in reference seconds: one reference second is the time
# the host takes for REF_ITERS iterations of the loop in host_slowness(), about
# one host second on the reference machine (see README.md) when no other
# tenant competes for its cores.
CALIB_ITERS = 200_000
REF_ITERS = 16_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    schemes: tuple
    users: int
    antennas: int
    block_len: int
    snr_db: str
    channels: int
    workers: int = 1
    modulation: int = 16
    feedback_bits: int = 5

    @property
    def snr_points(self) -> int:
        return len(cli.parse_snr_values(self.snr_db))

    @property
    def blocks(self) -> int:
        """Blocks per repetition: scheme x SNR point x channel."""
        return len(self.schemes) * self.snr_points * self.channels

    @property
    def slp_blocks(self) -> int:
        return len(SLP_SCHEMES.intersection(self.schemes)) * self.snr_points * self.channels

    def argv(self, seed: int, out: Path, channels: int | None = None) -> list:
        return [
            "run", "--experiment", "BER_SWEEP", "--scheme", ",".join(self.schemes),
            "--users", str(self.users), "--antennas", str(self.antennas),
            "--block-len", str(self.block_len), "--mod", str(self.modulation),
            "--snr-db", self.snr_db, "--bits-feedback", str(self.feedback_bits),
            "--channels", str(self.channels if channels is None else channels),
            "--seed", str(seed), "--out", str(out),
        ]


# Channel counts size one repetition at 0.5 to 1 second on one core, so a
# run holds dozens of repetitions and reports their median.
WORKLOADS = {w.name: w for w in (
    Workload("desk-sweep", ALL_SCHEMES, users=4, antennas=4, block_len=50,
             snr_db="0:5:40", channels=3),
    Workload("paper-slice", ALL_SCHEMES, users=12, antennas=12, block_len=200,
             snr_db="35", channels=2),
    Workload("block-level-pool", ("ZF", "RZF"), users=12, antennas=12, block_len=200,
             snr_db="0:5:40", channels=100, workers=2),
)}

END_TO_END_UNITS = {
    "blocks_per_s": "1/s",
    "cpu_ms_per_block": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "slp_core.self_s": "s",
    "slp_core.solves": "count",
    "slp_core.solves_per_slp_block": "count",
    "slp_core.solve_p50_us": "us",
    "slp_core.solve_p99_us": "us",
    "slp_core.non_optimal": "count",
    "slp_core.outer_share": "frac",
    "constellation.self_s": "s",
    "constellation.classify_calls": "count",
    "channel.self_s": "s",
    "channel.calls": "count",
    "baselines.self_s": "s",
    "baselines.calls": "count",
    "power_alloc.self_s": "s",
    "power_alloc.calls": "count",
    "link_sim.self_s": "s",
    "link_sim.block_p50_ms": "ms",
    "link_sim.block_p90_ms": "ms",
    "link_sim.pools_started": "count",
    "link_sim.pool_wall_s": "s",
    "link_sim.failed_trial_frac": "frac",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
}


@dataclass
class Rep:
    """One ``slpsim run`` invocation."""

    wall_s: float
    cpu_s: float
    exit_code: int
    csv_sha256: str
    discarded: Counter


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    errors: list
    record: dict = field(default_factory=dict)


class DiscardCounter(logging.Handler):
    """Counts the ``trial discarded`` warnings of ``slpsim.link_sim`` per (scheme, SNR)."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.by_point = Counter()

    def emit(self, record):
        if str(record.msg).startswith("trial discarded"):
            scheme, snr_db = record.args[0], float(record.args[1])
            self.by_point[(scheme, snr_db)] += 1


class TraceChecks:
    """Verification run after each traced CI solve and in-block allocation."""

    def __init__(self):
        self.violations = []
        self.non_optimal = 0
        self.outer = 0
        self.components = 0

    # link_sim passes these arguments by position.
    def solution(self, args, kwargs, sol):
        inst = args[0]
        self.non_optimal += sol.status is not slp_core.SolverStatus.OPTIMAL
        self.outer += len(inst.outer_index_set)
        self.components += 2 * inst.channel.n_users
        report = slp_core.verify_solution(inst, sol, tol=CI_VERIFY_TOL)
        if not report.passed:
            self.violations.append(f"CI solution fails verify_solution: {report}")

    def allocation(self, args, kwargs, alloc):
        margins, total_power = args
        cert = power_alloc.verify_kkt(margins, alloc.powers, total_power)
        if not cert.passed:
            self.violations.append(
                "in-block allocation fails verify_kkt: residuals "
                f"{cert.stationarity_residual:.2e} {cert.complementarity_residual:.2e} "
                f"{cert.primal_residual:.2e}"
            )


def install_spans(tracer: Tracer, checks: TraceChecks):
    """Wrap the public functions that cli, link_sim and slp_core call, by layer."""
    tracer.patch(cli, "run_monte_carlo", "link_sim")
    tracer.patch(link_sim, "simulate_block", "link_sim")
    for name in ("build_constellation", "modulate", "demodulate"):
        tracer.patch(link_sim, name, "constellation")
    tracer.patch(slp_core, "classify_component", "constellation")
    for name in ("generate_channel", "sample_noise", "sigma2_from_snr", "trial_rng"):
        tracer.patch(link_sim, name, "channel")
    tracer.patch(slp_core, "build_instance", "slp_core")
    tracer.patch(slp_core, "solve_ci_max", "slp_core", check=checks.solution)
    for name in ("zf_precoder", "rzf_precoder", "baseline_rescaling"):
        tracer.patch(baselines, name, "baselines")
    tracer.patch(power_alloc, "allocate_in_block", "power_alloc", check=checks.allocation)
    for name in ("allocate_uniform", "per_symbol_rescaling"):
        tracer.patch(power_alloc, name, "power_alloc")


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(workload: Workload, seed: int, out: Path, workers: int, tracer=None) -> Rep:
    """Run ``slpsim run`` once in this process; ``tracer`` adds a cli span."""
    os.environ[link_sim.WORKERS_ENV] = str(workers)
    counter = DiscardCounter()
    logger = logging.getLogger(link_sim.__name__)
    logger.addHandler(counter)
    argv = workload.argv(seed, out)
    try:
        start, cpu = time.perf_counter(), _cpu_s()
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.call("cli", cli.main, argv)
        wall, cpu = time.perf_counter() - start, _cpu_s() - cpu
    finally:
        logger.removeHandler(counter)
    digest = _sha256(out) if code == 0 and out.is_file() else ""
    return Rep(wall, cpu, code, digest, counter.by_point)


def check_sweep(path: Path, workload: Workload, discarded: Counter) -> list:
    """Gate on one sweep CSV; returns the violations found."""
    errors = []
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected_rows = len(workload.schemes) * workload.snr_points
    if len(rows) != expected_rows:
        errors.append(f"{path.name}: {len(rows)} rows, expected {expected_rows}")
    bits_per_trial = workload.users * workload.block_len * int(math.log2(workload.modulation))
    for row in rows:
        point = (row["scheme"], float(row["snr_db"]))
        trials = workload.channels - discarded[point]
        if int(row["n_bits"]) != trials * bits_per_trial:
            errors.append(
                f"{point}: n_bits {row['n_bits']} != {trials} trials x {bits_per_trial} bits"
            )
        ber = float(row["ber"])
        if not 0.0 <= ber <= 1.0:
            errors.append(f"{point}: ber {ber} outside [0, 1]")
        if row["scheme"] == "SLP_IN_BLOCK" and not float(row["f_spread"]) <= F_SPREAD_MAX:
            errors.append(f"{point}: f_spread {row['f_spread']} > {F_SPREAD_MAX}")
    return errors


def _gate(rep: Rep, workload: Workload, out: Path, reference: str) -> list:
    if rep.exit_code != 0:
        return [f"slpsim run exited {rep.exit_code}"]
    errors = check_sweep(out, workload, rep.discarded)
    if rep.csv_sha256 != reference:
        errors.append(f"CSV differs between repetitions: {rep.csv_sha256} != {reference}")
    return errors


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def host_slowness() -> float:
    """Host seconds that one reference second takes right now.

    Times a fixed pure-Python loop (median of three). Other tenants of a
    shared host slow everything down together, by up to half again for
    minutes at a time, and this loop slows with the benchmark.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(CALIB_ITERS):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times) * REF_ITERS / CALIB_ITERS


def calibrated(step, more) -> list:
    """Call ``step()`` while ``more(done)``, calibrating the host between calls.

    Returns ``(result, slowness)`` pairs, where ``slowness`` is the mean of the
    host slowness measured just before and just after that call.
    """
    results = []
    before = host_slowness()
    while more(len(results)):
        result = step()
        after = host_slowness()
        results.append((result, (before + after) / 2))
        before = after
    return results


def setup_probe(workload: Workload, seed: int) -> float:
    """Wall time of ``slpsim run`` with zero channels in a fresh interpreter.

    That run does everything before the first trial (import, config
    resolution, constellation build) and writes the empty CSV.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = OUT / f"{workload.name}-setup.csv"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "slpsim.cli", *workload.argv(seed, out, channels=0)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def _until(deadline: float, errors: list):
    """Repeat at least MIN_REPS times, then until the deadline or a gate error."""
    return lambda done: done < MIN_REPS or (not errors and time.perf_counter() < deadline)


def run_untraced(workload: Workload, seed: int, seconds: float) -> Result:
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{workload.name}-seed{seed}.csv"
    warm = run_cli(workload, seed, out, workload.workers)
    errors = _gate(warm, workload, out, warm.csv_sha256)

    def step():
        rep = run_cli(workload, seed, out, workload.workers)
        errors.extend(_gate(rep, workload, out, warm.csv_sha256))
        return rep

    reps = calibrated(step, _until(time.perf_counter() + seconds, errors))
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    try:
        setup = calibrated(lambda: setup_probe(workload, seed), lambda done: done < SETUP_PROBES)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        errors.append(f"setup probe failed: {exc}")
        setup = [(0.0, 1.0)]

    every = [warm, *(rep for rep, _ in reps)]
    attempted = workload.blocks * len(every)
    failed = sum(sum(rep.discarded.values()) for rep in every)
    values = {
        "blocks_per_s": statistics.median(workload.blocks * slow / r.wall_s for r, slow in reps),
        "cpu_ms_per_block": statistics.median(
            1e3 * r.cpu_s / slow / workload.blocks for r, slow in reps
        ),
        "setup_s": statistics.median(t / slow for t, slow in setup),
        "peak_rss_mb": (own + children) / 1024.0,
    }
    record = {
        "csv_sha256": warm.csv_sha256,
        "failed_trial_frac": failed / attempted,
        "host_blocks_per_s": statistics.median(workload.blocks / r.wall_s for r, _ in reps),
        "samples": {"blocks_per_s": len(reps), "cpu_ms_per_block": len(reps),
                    "setup_s": len(setup), "peak_rss_mb": 1},
        "raw": {"rep_wall_s": [r.wall_s for r, _ in reps], "rep_cpu_s": [r.cpu_s for r, _ in reps],
                "rep_slowness": [slow for _, slow in reps],
                "setup_s": [t for t, _ in setup], "setup_slowness": [slow for _, slow in setup],
                "peak_rss_kb": {"process": own, "largest_child": children}},
    }
    return Result(not errors, attempted, failed, _with_units(values, END_TO_END_UNITS),
                  errors, record)


def run_traced(workload: Workload, seed: int, seconds: float) -> Result:
    """Per-layer split: serial traced repetitions alternating with untraced ones.

    A first, untraced repetition at the workload's worker count counts the
    process pools. Verification runs in span hooks, outside the timings.
    """
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{workload.name}-seed{seed}-trace.csv"
    with Tracer() as pools:
        pools.count_pools(link_sim)
        [(pool_rep, pool_slow)] = calibrated(
            lambda: run_cli(workload, seed, out, workload.workers), lambda done: done < 1
        )
    errors = _gate(pool_rep, workload, out, pool_rep.csv_sha256)

    def step():
        plain = run_cli(workload, seed, out, 1)
        errors.extend(_gate(plain, workload, out, pool_rep.csv_sha256))
        tracer, checks = Tracer(), TraceChecks()
        with tracer:
            install_spans(tracer, checks)
            rep = run_cli(workload, seed, out, 1, tracer)
        errors.extend(_gate(rep, workload, out, pool_rep.csv_sha256) + checks.violations)
        return plain, rep, tracer, checks

    pairs = calibrated(step, _until(time.perf_counter() + seconds, errors))
    every = [pool_rep, *(rep for (plain, traced, _, _), _ in pairs for rep in (plain, traced))]
    attempted = workload.blocks * len(every)
    failed = sum(sum(rep.discarded.values()) for rep in every)
    solves = [d / slow for (_, _, t, _), slow in pairs for d in t.durations["solve_ci_max"]]
    blocks = [d / slow for (_, _, t, _), slow in pairs for d in t.durations["simulate_block"]]
    (_, _, last, last_checks), _ = pairs[-1]
    n_solves = last.fn_calls["solve_ci_max"]

    def self_s(layer):
        return statistics.median(t.self_s[layer] / slow for (_, _, t, _), slow in pairs)

    plain_wall = statistics.median(plain.wall_s / slow for (plain, _, _, _), slow in pairs)
    traced_wall = statistics.median(
        (rep.wall_s - t.excluded_s) / slow for (_, rep, t, _), slow in pairs
    )
    values = {
        "slp_core.self_s": self_s("slp_core"),
        "slp_core.solves": n_solves,
        "slp_core.solves_per_slp_block": n_solves / workload.slp_blocks if workload.slp_blocks else 0,
        "slp_core.solve_p50_us": 1e6 * _percentile(solves, 50),
        "slp_core.solve_p99_us": 1e6 * _percentile(solves, 99),
        "slp_core.non_optimal": last_checks.non_optimal,
        "slp_core.outer_share": (
            last_checks.outer / last_checks.components if last_checks.components else 0.0
        ),
        "constellation.self_s": self_s("constellation"),
        "constellation.classify_calls": last.fn_calls["classify_component"],
        "channel.self_s": self_s("channel"),
        "channel.calls": last.calls["channel"],
        "baselines.self_s": self_s("baselines"),
        "baselines.calls": last.calls["baselines"],
        "power_alloc.self_s": self_s("power_alloc"),
        "power_alloc.calls": last.calls["power_alloc"],
        "link_sim.self_s": self_s("link_sim"),
        "link_sim.block_p50_ms": 1e3 * _percentile(blocks, 50),
        "link_sim.block_p90_ms": 1e3 * _percentile(blocks, 90),
        "link_sim.pools_started": pools.fn_calls["pool"],
        "link_sim.pool_wall_s": sum(pools.durations["pool"]) / pool_slow,
        "link_sim.failed_trial_frac": failed / attempted,
        "cli.self_s": self_s("cli"),
        "trace.overhead_frac": traced_wall / plain_wall - 1.0,
    }
    record = {
        "csv_sha256": pool_rep.csv_sha256,
        "samples": {
            "self_s": len(pairs),
            "trace.overhead_frac": len(pairs),
            "slp_core.solve_p50_us": len(solves),
            "slp_core.solve_p99_us": len(solves),
            "link_sim.block_p50_ms": len(blocks),
            "link_sim.block_p90_ms": len(blocks),
        },
        "raw": {"plain_wall_s": [plain.wall_s for (plain, _, _, _), _ in pairs],
                "traced_wall_s": [rep.wall_s - t.excluded_s for (_, rep, t, _), _ in pairs],
                "verify_s": [t.excluded_s for (_, _, t, _), _ in pairs],
                "pair_slowness": [slow for _, slow in pairs]},
    }
    return Result(not errors, attempted, failed, _with_units(values, PER_LAYER_UNITS),
                  errors, record)


def _with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    """Digest of the package source, which identifies the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "slpsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_version(module):
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, AttributeError):
        return None


def manifest(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": _blas_version(np),
        "scipy_openblas": _blas_version(scipy),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "workers": 1 if trace else workload.workers,
        "pool_workers": workload.workers,
        "argv": workload.argv(seed, Path("<out>")),
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> Result:
    """Run one workload and return its metrics, gate verdict and full record."""
    result = (run_traced if trace else run_untraced)(workload, seed, seconds)
    result.record = {
        "manifest": manifest(workload, seed, seconds, trace),
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "errors": result.errors,
        "metrics": result.metrics,
        **result.record,
    }
    return result
