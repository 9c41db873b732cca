"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sites-edit --seed 1 --seconds 15 \
        --trace 0

Run from the repository root; the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``); the line before it
holds run diagnostics (tail percentiles and sample counts, GC pauses,
the host-speed probe). Scratch files live under ``.bench_build/`` and
are removed when the run ends, except the traced run's Chrome trace.
"""

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("sites-edit", "app-farm", "record")


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print("perfbench: no program sources under %s" % source,
              file=sys.stderr)
        return 2
    # Counts (GC collections, dispatches, bytes) must repeat exactly for
    # a seed, so string hashing is fixed for this process and its pool.
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)] + argv, env)
    sys.path[:0] = [ROOT, source]

    from perfbench import measure, stats

    build = os.path.join(ROOT, ".bench_build", "perfbench")
    workdir = os.path.join(build, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            trace_path = os.path.join(build, "%s.trace.json" % args.workload)
            attempted, failed, metrics, diagnostics = measure.traced(
                args.workload, args.seed, args.seconds, workdir, trace_path)
        else:
            attempted, failed, metrics, diagnostics = measure.end_to_end(
                args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = failed == 0
    diagnostics["failure_ratio"] = stats.failure_ratio(failed, attempted)
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
