"""The repository benchmark: one command, every metric, outputs checked.

Run from the repository root::

    python3 perfbench/run.py --workload cold-start --seed 1 --seconds 40 --trace 0

Workloads (see NOTES.md for why each exists):

* ``cold-start`` — a pool of distinct graphs, each through a fresh
  ``Session`` for its first answers under ``width``;
* ``serve-mix``  — ``repro serve --http`` in its own process, driven by
  an open-loop HTTP load of cache hits, cold graphs and token resumes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes a
separate traced run and prints the per-layer metrics.  Every output is
checked: ``cold-start`` against the answer digests in
``data/corpus.json``, ``serve-mix`` against the bytes a serial
``Session.stream`` serialises to.  Lines before the last describe the run;
the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

ROOT = Path.cwd()
WORKLOADS = ("cold-start", "serve-mix")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; run from the repository "
              "root", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(src))

    from common import END_TO_END, PER_LAYER, PER_LAYER_UNITS, header

    for line in header(ROOT):
        print(line)
    print(f"workload: {args.workload} seed: {args.seed} "
          f"seconds: {args.seconds} trace: {args.trace}")
    sys.stdout.flush()

    if args.workload == "serve-mix":
        from servemix import run
    else:
        from library import run
    report, attempted, failed = run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    if args.trace:
        absent = [name for name in PER_LAYER if name not in report.metrics]
        for name in absent:
            report.put(name, 0, PER_LAYER_UNITS[name])
        if absent:
            report.note("layers not entered here (reported as 0): "
                        + ", ".join(absent))
        expected = PER_LAYER
    else:
        expected = END_TO_END
    if set(report.metrics) != set(expected):
        raise RuntimeError(
            f"metric set mismatch: {sorted(set(report.metrics) ^ set(expected))}"
        )
    report.metrics = {name: report.metrics[name] for name in expected}
    for line in report.notes:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": report.metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
