"""Tests of the benchmark harness: metric coverage and the correctness gate.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import csv
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from slpsim import baselines, link_sim, power_alloc, slp_core  # noqa: E402

TINY = harness.Workload("tiny", harness.ALL_SCHEMES, users=2, antennas=2, block_len=4,
                        snr_db="10,30", channels=3, workers=2)
TINY_SERIAL = harness.Workload("tiny-serial", harness.ALL_SCHEMES, users=2, antennas=2,
                               block_len=4, snr_db="10,30", channels=3)


@pytest.fixture(autouse=True)
def _isolated(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT", tmp_path)
    monkeypatch.setattr(harness, "SETUP_PROBES", 1)
    monkeypatch.setenv(link_sim.WORKERS_ENV, "1")


def _assert_metrics(result, units):
    assert list(result.metrics) == list(units)
    for name, metric in result.metrics.items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"]), name


def test_tiny_untraced_run_emits_every_end_to_end_metric():
    result = harness.run(TINY, seed=3, seconds=0.01, trace=False)
    assert result.correct, result.errors
    _assert_metrics(result, harness.END_TO_END_UNITS)
    assert result.failed == 0 and result.attempted == 4 * TINY.blocks
    assert result.metrics["setup_s"]["value"] > 0
    manifest = result.record["manifest"]
    assert manifest["seed"] == 3 and manifest["pool_workers"] == 2
    assert set(manifest["blas_threads"]) == set(harness.BLAS_VARS)
    assert set(result.record["samples"]) == set(harness.END_TO_END_UNITS)
    assert len(result.record["csv_sha256"]) == 64


def test_tiny_traced_run_emits_every_per_layer_metric():
    result = harness.run(TINY, seed=3, seconds=0.01, trace=True)
    assert result.correct, result.errors
    _assert_metrics(result, harness.PER_LAYER_UNITS)
    values = {name: metric["value"] for name, metric in result.metrics.items()}
    assert values["slp_core.solves_per_slp_block"] == TINY.block_len
    assert values["slp_core.solves"] == TINY.slp_blocks * TINY.block_len
    assert values["link_sim.pools_started"] == len(TINY.schemes) * TINY.snr_points
    assert values["slp_core.non_optimal"] == 0
    assert values["link_sim.failed_trial_frac"] == 0


def test_same_seed_gives_the_same_csv_and_another_seed_does_not():
    first = harness.run(TINY_SERIAL, seed=5, seconds=0.01, trace=False)
    again = harness.run(TINY_SERIAL, seed=5, seconds=0.01, trace=False)
    other = harness.run(TINY_SERIAL, seed=6, seconds=0.01, trace=False)
    assert first.record["csv_sha256"] == again.record["csv_sha256"]
    assert first.record["csv_sha256"] != other.record["csv_sha256"]


def _tampered(path, column, value, scheme="SLP_IN_BLOCK"):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    target = next(row for row in rows if row["scheme"] == scheme)
    target[column] = value(target[column])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("column, value", [
    ("n_bits", lambda v: str(int(v) + 1)),
    ("ber", lambda v: "1.5"),
    ("ber", lambda v: "-0.1"),
    ("ber", lambda v: "nan"),
    ("f_spread", lambda v: "1e-6"),
])
def test_gate_rejects_a_broken_sweep_row(tmp_path, column, value):
    out = tmp_path / "sweep.csv"
    rep = harness.run_cli(TINY_SERIAL, 1, out, workers=1)
    assert harness.check_sweep(out, TINY_SERIAL, rep.discarded) == []
    _tampered(out, column, value)
    assert harness.check_sweep(out, TINY_SERIAL, rep.discarded)


def test_gate_fails_on_an_allocation_that_breaks_kkt(monkeypatch):
    original = power_alloc.allocate_in_block

    def over_budget(margins, total_power):
        alloc = original(margins, total_power)
        return power_alloc.PowerAllocation(alloc.powers * 1.01, alloc.mode, alloc.rescale)

    monkeypatch.setattr(power_alloc, "allocate_in_block", over_budget)
    result = harness.run(TINY_SERIAL, seed=1, seconds=0.01, trace=True)
    assert not result.correct
    assert any("verify_kkt" in error for error in result.errors)


def test_gate_fails_on_a_ci_solution_that_breaks_its_constraints(monkeypatch):
    original = slp_core.solve_ci_max

    def perturbed(instance, opts=None):
        sol = original(instance, opts)
        sol.x = sol.x * 1.001
        return sol

    monkeypatch.setattr(slp_core, "solve_ci_max", perturbed)
    result = harness.run(TINY_SERIAL, seed=1, seconds=0.01, trace=True)
    assert not result.correct
    assert any("verify_solution" in error for error in result.errors)


def test_discarded_trials_are_counted_and_excluded_from_n_bits(monkeypatch):
    original = baselines.zf_precoder
    calls = []

    def fails_once(channel):
        calls.append(1)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("injected singular channel")
        return original(channel)

    monkeypatch.setattr(baselines, "zf_precoder", fails_once)
    out = harness.OUT / "sweep.csv"
    rep = harness.run_cli(TINY_SERIAL, 1, out, workers=1)
    assert rep.exit_code == 0
    assert sum(rep.discarded.values()) == 1
    assert harness.check_sweep(out, TINY_SERIAL, rep.discarded) == []
    assert harness.check_sweep(out, TINY_SERIAL, harness.Counter())


def _run_script(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=120,
    )


def test_command_prints_the_result_json_last(tmp_path):
    root = tmp_path / "checkout"
    shutil.copytree(BENCH.parent / "src", root / "src")
    shutil.copytree(BENCH, root / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_script(root, "--workload", "paper-slice", "--seed", "1",
                       "--seconds", "0.01", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert set(last["metrics"]) == set(harness.END_TO_END_UNITS)


def test_command_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    proc = _run_script(tmp_path, "--workload", "desk-sweep", "--seed", "1",
                       "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_command_rejects_an_unknown_workload():
    proc = _run_script(BENCH.parent, "--workload", "nope", "--seed", "1", "--seconds", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
