"""ipidlab benchmark: one command, two workloads, every metric by name.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ipidlab is imported from its
``src/`` directory. Each workload runs in its own Python process (with a
fixed hash seed), which prints an ``ENV`` stamp and, as its last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from a traced run. Scratch
files go to ``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("paper-sweeps", "flow-churn")
CHILD_SLACK_S = 120  # a child may take this long beyond --seconds (imports, set-up, last round)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ipidlab" / "__init__.py").is_file():
        print(f"error: no ipidlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.child:
        return child(args)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_child(name, args)
        if result is None:
            return 1
        results[name] = result
        for metric, m in sorted(result["metrics"].items()):
            print(f"{name:14s} {metric:42s} {m['value']:>16.6g} {m['unit']}")
        print(f"{name:14s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


def run_child(name: str, args) -> dict | None:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", name,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = args.seconds + CHILD_SLACK_S
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: workload {name} did not finish in {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def environment() -> dict:
    import threading

    import numpy
    import scipy

    def affinity() -> bool:
        ok = []

        def probe():
            try:
                os.sched_setaffinity(0, os.sched_getaffinity(0))
                ok.append(True)
            except (AttributeError, OSError):
                ok.append(False)

        t = threading.Thread(target=probe)
        t.start()
        t.join()
        return ok[0]

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown (git not available)"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_revision": rev,
        "thread_affinity_settable": affinity(),
        "machine": "shared, unisolated VM: no CPU isolation, no frequency pinning",
    }


def child(args) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    import checks  # noqa: F401  (mpmath loads outside the timed import)

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import_s = time.perf_counter() - t0

    import ipidlab

    if not Path(ipidlab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: ipidlab imported from {ipidlab.__file__}, not this checkout", file=sys.stderr)
        return 2
    print("ENV " + json.dumps(environment()), flush=True)

    wl = workloads.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench" / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = workloads.Runner(wl, args.seed, out_dir)
    correct, metrics = True, {}
    t_start = time.perf_counter()
    try:
        setup_rep_s = runner.setup()
        t_start = time.perf_counter()
        if args.trace:
            metrics = runner.per_layer(wl.trial_s / 4)
        else:
            rounds = []
            # whole rounds only; stop before a round would overrun --seconds
            while len(rounds) < workloads.MIN_ROUNDS or (
                time.perf_counter() - t_start + statistics.fmean(rounds) <= args.seconds
            ):
                rounds.append(runner.round(wl.trial_s))
            metrics = runner.end_to_end(import_s, setup_rep_s)
    except workloads.checks.CheckFailure as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
    print(f"measured {time.perf_counter() - t_start:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
