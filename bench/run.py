#!/usr/bin/env python3
"""Run one slpsim benchmark workload and print its metrics.

    python3 bench/run.py --workload desk-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer split. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record, with the run manifest, is written to
``bench/out/``. Exit code 0 means the correctness gate passed, 1 that it
failed, 2 that the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
PACKAGE = BENCH.parent / "src" / "slpsim"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no slpsim source at {PACKAGE}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    import harness

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    result = harness.run(workload, args.seed, args.seconds, bool(args.trace))
    path = harness.OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result.record, indent=2) + "\n")

    for error in result.errors:
        print(f"GATE FAIL: {error}", file=sys.stderr)
    for name, metric in result.metrics.items():
        print(f"{name:32s} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        print(f"{'failed_trial_frac':32s} {result.record['failed_trial_frac']:>14.6g} frac")
        print(f"{'host_blocks_per_s':32s} {result.record['host_blocks_per_s']:>14.6g} 1/s")
    print(f"csv_sha256 {result.record['csv_sha256']}")
    print(f"record {path.relative_to(BENCH.parent)}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
