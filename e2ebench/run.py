"""End-to-end, layer-by-layer benchmark of the Q-GPU reproduction.

Run from the repository root::

    python3 e2ebench/run.py --workload dense20 --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones.  Lines before it give host and sampling context.  See
``e2ebench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # setup_s counts from here, imports included

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".e2ebench_tmp"
OUTPUT = ROOT / ".e2ebench_out"


def _bootstrap() -> None:
    """Make the repository's sources and this package importable."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"error: {ROOT / 'src' / 'repro'} not found; run from a checkout "
            "of the repository"
        )
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    _bootstrap()
    from e2ebench.host import pin_threads

    threads = pin_threads()  # before NumPy loads

    from e2ebench import harness, host
    from e2ebench.tracing import write_spans
    from e2ebench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {args.workload!r} "
            f"(choose from {', '.join(WORKLOADS)})"
        )
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        host_info = host.probe()
        workload.setup()
        setup_s = time.perf_counter() - _STARTED
        outcome = harness.run(workload, args.seconds, bool(args.trace))

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "threads": threads,
        "host": host_info,
        "setup_s": setup_s,
    }
    if args.trace:
        metrics = harness.per_layer(outcome, host_info["copy_gbps"], workload.setup_info)
        units = {name: unit for name, (unit, _) in harness.PER_LAYER.items()}
        spans_path = OUTPUT / f"spans-{args.workload}-seed{args.seed}.json"
        write_spans(outcome["recorder"].spans, spans_path)
        context["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics, sampling = harness.end_to_end(outcome, setup_s)
        units = harness.END_TO_END
        context.update(sampling)
    print(json.dumps(context, sort_keys=True))
    print(json.dumps(harness.result_line(outcome, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
