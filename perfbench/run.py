"""Benchmark entry point.

    python3 perfbench/run.py --workload {replay,cluster,serve} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.
Human-readable lines go to standard output first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end set, measured with no
instrumentation; with ``--trace 1`` they are the per-layer set from a
traced pass (see README.md beside this file).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("replay", "cluster", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program sources at {SRC}; run from a full "
                 "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def emit(correct: bool, checks, metrics: dict, units: dict) -> None:
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    out = {
        "correct": bool(correct),
        "attempted": int(checks.attempted),
        "failed": int(checks.failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    for name, entry in out["metrics"].items():
        if not math.isfinite(entry["value"]):
            raise RuntimeError(f"metric {name} is not finite")
    print(json.dumps(out, sort_keys=False))


def show(title: str, values: dict, units: dict) -> None:
    print(f"== {title}")
    for name, value in values.items():
        print(f"  {name:<40} {value:>16.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")
    import_program()
    sys.path.insert(0, str(HERE))
    import measure

    if args.trace:
        result = measure.traced(args.workload, args.seed, args.seconds)
        units = measure.PER_LAYER
    else:
        result = measure.untraced(args.workload, args.seed, args.seconds,
                                  load_reference())
        result.metrics["peak_rss_mb"] = peak_rss_mb()
        units = measure.END_TO_END
    show(f"{args.workload} seed={args.seed} "
         f"{'traced' if args.trace else 'untraced'}", result.extra,
         result.extra_units)
    show("metrics", result.metrics, units)
    for line in result.lines:
        print(line)
    for message in result.checks.messages:
        print(f"FAILED: {message}")
    checks = result.checks
    emit(checks.failed == 0, checks, result.metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
