"""Benchmark of the EDR control plane and runtime.

Usage, from the repository root::

    python3 perfbench/run.py --workload service --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer ledger.  The run prints every metric by name and unit, the
ledger records, and as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits non-zero, printing no result, when it cannot run (for example
when the program's sources are missing).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from harness import SRC, pin_threads, source_rev

pin_threads()  # before anything loads numpy


def _terminate(signum, _frame):
    # Unwind normally on SIGTERM, so every server child is stopped.
    raise SystemExit(128 + signum)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("service", "runtime"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="busy time of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ledger
    import workloads

    if args.trace:
        out = workloads.traced(args.workload, args.seed)
        declared = ledger.PER_LAYER
    else:
        out = workloads.end_to_end(args.workload, args.seed, args.seconds)
        declared = ledger.END_TO_END
    units = dict(declared)
    if set(out.values) != set(units):
        raise RuntimeError("metrics differ from the declared list: "
                           f"{sorted(set(out.values) ^ set(units))}")
    rev = source_rev()
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, source {rev}")
    for line in out.summary:
        print("  " + line)
    for note in out.notes:
        print("  FAILED: " + note)
    for name, unit in declared:
        print(f"  {name:46s} {out.values[name]:16.6f} {unit}")
    records = ledger.records(args.workload, out.values, units, rev)
    if args.trace:
        spans = ledger.span_records(args.workload, out.ledger, rev)
        for kind in records:
            records[kind] += spans[kind]
    print(json.dumps({"ledger": records}))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": out.values[name], "unit": unit}
                    for name, unit in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
