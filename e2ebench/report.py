"""Print every end-to-end metric, by name and unit, for every workload.

Run from the repository root::

    python3 e2ebench/report.py [--seed 1] [--seconds 15]

Each workload runs in its own process through ``e2ebench/run.py`` with
tracing off; ``--seconds`` defaults to ``run_seconds`` in
``BENCHMARK.json``.  Exits 1 if any workload reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    args = parser.parse_args(argv)

    all_correct = True
    print(f"{'workload':<12} {'metric':<14} {'value':>14}  unit")
    for workload in (w["name"] for w in config["workloads"]):
        completed = subprocess.run(
            [
                sys.executable, str(ROOT / "e2ebench" / "run.py"),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", "0",
            ],
            capture_output=True,
            text=True,
            cwd=ROOT,
            check=False,
        )
        if completed.returncode != 0:
            print(completed.stderr, file=sys.stderr)
            print(f"{workload:<12} failed with exit code {completed.returncode}")
            all_correct = False
            continue
        lines = completed.stdout.strip().splitlines()
        context, result = json.loads(lines[-2]), json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            print(f"{workload:<12} {name:<14} {metric['value']:>14.6g}  {metric['unit']}")
        print(
            f"{workload:<12} {'(ops)':<14} {result['attempted']:>14}  "
            f"attempted, {result['failed']} failed, tail is "
            f"p{context['tail_percentile']:g} of {context['samples']} samples"
        )
        all_correct &= result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
