"""Run one workload of the end-to-end e-cash benchmark.

    python3 perfbench/run.py --workload lifecycle --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
of the current directory and nothing is built. Scratch files live under
``.perfbench_run/`` in the checkout and are removed at exit. The last
line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
a ``{"report": ...}`` object with host facts, schedule digests, failure
notes, percentiles used and the audit. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    src_root = checkout / "src"
    if not (src_root / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {src_root}/repro not found", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src_root), str(BENCH_DIR)]

    from e2ebench import deploy, layers, runner

    if args.workload not in runner.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {runner.WORKLOADS}", file=sys.stderr)
        return 2

    run_root = checkout / ".perfbench_run"
    run_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=run_root))
    os.environ["TMPDIR"] = str(run_dir)
    tempfile.tempdir = str(run_dir)
    ctx = runner.Context(args.workload, args.seed, args.seconds, src_root, run_dir)
    try:
        outcome = runner.run(ctx, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        deploy.reap_all()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_root.rmdir()
        except OSError:
            pass

    catalogue = layers.catalogue() if args.trace else runner.END_TO_END
    metrics = {
        name: {"value": float(outcome["values"][name] or 0.0), "unit": unit}
        for name, unit, _ in catalogue
    }
    print(json.dumps({"report": outcome["report"]}, default=str))
    print(
        json.dumps(
            {
                "correct": bool(outcome["correct"]),
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
