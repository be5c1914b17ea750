"""Command-line interface: analysis sweeps, simulations, benchmarks,
trace tooling, and recommendations. All outputs are CSV.

Sweeps default to the lambda grid 2^-14 .. 2^20 (log2-spaced). When no
resource count is given, per-destination sweeps run at its two common
purge thresholds (2^12, 2^15) and per-bucket at its bucket-count bounds
(2^11, 2^18), labeled ``method:r=<count>``. Per-bucket correctness rows
are the exact Poisson tail at sequential rates (lambda / t >= 80) and a
certified 0.0 where no trial can wrap, both with a ``std_err`` of 0, and
elsewhere Monte Carlo estimates (``--trials``, ``--seed``) with a
binomial ``std_err``. Per-bucket security rows are exact, with a
``std_err`` of 0; the other exact rows leave it empty. Their FFT
kernels are evaluated on one thread per usable CPU
(``analytics.parallel_map``), and the output is identical at any CPU
count. ``analytics`` picks each method's analysis from its family, and
a sweep evaluates each distinct point once. The PRNG correctness rows
at one lambda share one Poisson tail and pmf window, from the lowest
k + 1 that the sweep asks for. The per-bucket
security-worst searches of one sweep share one memo of kernel values,
so each kernel runs at most once per sweep, and they skip every
coarse point that a certified upper bound puts below the best value
found (``analytics.worst_case_lambda_i``); the rows are those of the
full search.
"""
from __future__ import annotations

import argparse
import csv
import functools
import sys

import numpy as np

from . import analytics, montecarlo
from .bench import BenchConfig, export_report, run_benchmark
from .clock import DEFAULT_TICKS_PER_UNIT_TIME, UNIT_TIME_S
from .recommend import RateEstimate, bandwidth_to_lambda, recommend
from .selectors import METHODS, Family, SelectorConfig, selector_class
from .trace import generate_trace, load_trace, save_trace

ANALYZE_HEADER = ["method", "lambda_log2", "value", "std_err"]


class CliError(Exception):
    """Validation failure; printed as a one-line reason, exit code 2."""


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="RNG seed for all stochastic outputs")
    parser.add_argument("--out", default=None, help="output file path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was, and its defaults are immutable, so every run can share it."""
    parser = argparse.ArgumentParser(
        prog="ipidlab",
        description="Evaluate IPv4 ID selection methods: collision probability, "
        "guessability, contention benchmarks, and configuration advice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="sweep collision or guess probability over lambda")
    p.add_argument(
        "--quantity",
        required=True,
        choices=["correctness", "security-uniform", "security-worst"],
    )
    p.add_argument(
        "--methods",
        nargs="+",
        default=METHODS,
        choices=METHODS,
        metavar="METHOD",
        help=f"methods to sweep (default: all of {', '.join(METHODS)})",
    )
    p.add_argument(
        "--lambda-log2",
        nargs=3,
        type=float,
        default=(-14.0, 20.0, 1.0),
        metavar=("START", "STOP", "STEP"),
        help="inclusive log2-lambda grid (default -14 20 1)",
    )
    p.add_argument("--g", type=int, default=1, help="adversary guess budget")
    p.add_argument("--k", type=int, default=None, help="reserved-IPID count override")
    p.add_argument("--r", type=int, default=None, help="resource count override")
    p.add_argument("--trials", type=int, default=100_000, help="Monte Carlo trials per point (per-bucket correctness)")
    p.add_argument("--t", type=int, default=DEFAULT_TICKS_PER_UNIT_TIME, help="ticks per unit time")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bench", help="multi-worker IPID request benchmark")
    p.add_argument("--method", required=True, choices=list(METHODS))
    p.add_argument("--cpus", type=int, required=True, help="number of concurrent workers")
    p.add_argument("--duration", type=float, default=10.0, help="seconds per trial")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--trace", default=None, help="trace file (binary or .csv)")
    p.add_argument("--packets", type=int, default=100_000, help="generated trace size")
    p.add_argument("--flows", type=int, default=1024, help="generated trace flow count")
    p.add_argument("--skew", type=float, default=1.0, help="generated trace Zipf skew")
    p.add_argument("--r", type=int, default=None, help="bucket count (per-bucket methods)")
    p.add_argument("--k", type=int, default=None, help="reserved-IPID count (PRNG methods)")
    p.add_argument("--no-pin", action="store_true", help="do not pin workers to CPUs")
    _add_common(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("simulate", help="per-bucket stochastic-increment simulations")
    sim_sub = p.add_subparsers(dest="simulation", required=True)

    pc = sim_sub.add_parser("bucket-collision", help="conditional collision probability")
    pc.add_argument("--n", type=int, required=True, help="packets in transit")
    pc.add_argument("--lambda", dest="lam", type=float, required=True)
    pc.add_argument("--trials", type=int, default=100_000)
    pc.add_argument("--t", type=int, default=DEFAULT_TICKS_PER_UNIT_TIME)
    _add_common(pc)
    pc.set_defaults(func=cmd_simulate_collision)

    pd = sim_sub.add_parser("sum-dist", help="next-value distribution of a bucket counter")
    pd.add_argument("--lambda-i", dest="lam_i", type=float, required=True)
    pd.add_argument("--trials", type=int, default=100_000)
    pd.add_argument("--t", type=int, default=DEFAULT_TICKS_PER_UNIT_TIME)
    _add_common(pd)
    pd.set_defaults(func=cmd_simulate_sumdist)

    p = sub.add_parser("gen-trace", help="generate a synthetic packet trace")
    p.add_argument("--packets", type=int, required=True)
    p.add_argument("--flows", type=int, required=True)
    p.add_argument("--skew", type=float, default=1.0)
    p.add_argument("--atomic-fraction", type=float, default=0.824)
    _add_common(p)
    p.set_defaults(func=cmd_gen_trace)

    p = sub.add_parser("trace", help="trace file utilities")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    pt = trace_sub.add_parser("convert", help="convert between binary and CSV traces")
    pt.add_argument("--in", dest="in_path", required=True)
    pt.add_argument("--out", dest="out_path", required=True)
    pt.set_defaults(func=cmd_trace_convert)

    p = sub.add_parser("recommend", help="recommend a method configuration from rates")
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="total rate per unit time")
    p.add_argument("--lambda-n", dest="lam_n", type=float, default=None, help="non-connection-bound rate")
    p.add_argument("--bandwidth-bps", type=float, default=None, help="total bandwidth in bits/s")
    p.add_argument("--cb-fraction", type=float, default=None, help="fraction of traffic that is connection-bound")
    p.add_argument("--unit-time-s", type=float, default=UNIT_TIME_S)
    p.add_argument("--packet-bytes", type=int, default=1500)
    p.set_defaults(func=cmd_recommend)

    return parser


def _write_csv(path, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _lambda_grid(args) -> np.ndarray:
    start, stop, step = args.lambda_log2
    if not np.isfinite(args.lambda_log2).all():
        raise CliError(f"--lambda-log2: START, STOP and STEP must be finite, got {start} {stop} {step}")
    if not start <= stop:
        raise CliError(f"--lambda-log2: start ({start}) must be <= stop ({stop})")
    if step <= 0:
        raise CliError(f"--lambda-log2: step must be positive, got {step}")
    exps = np.arange(start, stop + step * 0.5, step)
    # the rate expression _sweep_rows evaluates; past the float range it is inf or 0
    with np.errstate(over="ignore", under="ignore"):
        bad = [e for e in exps if not 0.0 < 2.0**e < np.inf]
    if bad:
        raise CliError(f"--lambda-log2: 2**{float(bad[0])!r} is not a positive finite rate")
    return exps


def _check_sim_args(args) -> None:
    for flag, value in (("--trials", args.trials), ("--t", args.t)):
        if value < 1:
            raise CliError(f"{flag} must be >= 1, got {value}")


def _point(quantity: str, method: str, lam: float, r: int, g: int, k: int, sim, memo: dict) -> tuple:
    """One sweep value for ``method`` at total rate ``lam`` split over
    ``r`` resources, and its Monte Carlo standard error (None when exact,
    at ``sim.t`` ticks per unit time). ``memo`` is the sweep's own: its
    PRNG rows' Poisson windows (``analytics.collision_prob_prng``) or its
    exact per-bucket guess probabilities (``analytics.worst_case_lambda_i``)."""
    if quantity == "correctness":
        return analytics.collision_prob(method, lam, k, sim, memo)
    if quantity == "security-uniform":
        return analytics.guess_prob(method, lam / r, g, k, t=sim.t), None
    return analytics.worst_case_lambda_i(method, lam, r, g, k=k, t=sim.t, memo=memo)[1], None


def _sweep_rows(args, exps) -> list[list]:
    """One row per method, resource count and lambda. Per-bucket
    correctness rows that the model does not decide are Monte Carlo, with
    seed + (lambda index) and a binomial standard error; exact rows leave
    it empty, or 0 for per-bucket. Each distinct point is evaluated once
    per sweep: methods of one family share values at equal lambda_i
    (uniform split) or at the same lambda index and resource count, and
    PRNG correctness rows of one lambda share its Poisson window. The
    per-bucket security-uniform points, an FFT each, are evaluated through
    ``analytics.parallel_map``; every other point, cheap and GIL-bound, on
    this thread, where a security-worst search batches its own coarse
    points the same way. The security-worst searches share one memo of exact
    per-bucket values, so a sweep computes each lambda_i at most once."""
    rows = []  # label, exponent, point key
    points = {}  # point key -> its _point arguments, in first-row order
    memo = {}  # lambda -> Poisson window, or (lambda_i, g, t) -> exact per-bucket guess probability
    for method in args.methods:
        cls = selector_class(method)
        k = cls.default_k if args.k is None else args.k
        # correctness does not split lambda over resources
        if args.quantity == "correctness" or not cls.default_r:
            labeled = [(method, 1)]
        elif args.r is not None:
            labeled = [(method, args.r)]
        else:
            labeled = [(f"{method}:r={r}", r) for r in cls.default_r]
        for label, r in labeled:
            for i, e in enumerate(exps):
                lam = 2.0**e
                # the index fixes lambda and the Monte Carlo seed; a uniform
                # row depends on lambda_i alone
                if args.quantity == "security-uniform":
                    key = (cls.family, lam / r, 1, k)
                else:
                    key = (cls.family, i, r, k)
                if key not in points:
                    sim = montecarlo.SimParams(trials=args.trials, t=args.t, seed=args.seed + i)
                    points[key] = (args.quantity, method, lam, r, args.g, k, sim, memo)
                rows.append((label, e, key))

    def evaluate(key) -> tuple:
        return _point(*points[key])

    mapped = [key for key in points if args.quantity == "security-uniform" and key[0] is Family.BUCKET]
    try:
        values = dict(zip(mapped, analytics.parallel_map(evaluate, mapped)))
    except ValueError:
        values = {}  # the loop below evaluates again in row order, and raises the first error in it
    for key in points:
        if key not in values:
            values[key] = evaluate(key)
    out = []
    for label, e, key in rows:
        value, se = values[key]
        if se is None:
            se = 0.0 if key[0] is Family.BUCKET else ""
        out.append([label, e, value, se])
    return out


def cmd_analyze(args) -> int:
    exps = _lambda_grid(args)
    if not 1 <= args.g <= 1 << 16:
        raise CliError(f"--g must be in [1, 65536], got {args.g}")
    if args.r is not None and args.r < 1:
        raise CliError(f"--r must be >= 1, got {args.r}")
    _check_sim_args(args)
    rows = _sweep_rows(args, exps)
    out = args.out or f"analyze-{args.quantity}.csv"
    _write_csv(
        out,
        ANALYZE_HEADER,
        (
            [method, repr(float(e)), repr(float(value)), "" if se == "" else repr(float(se))]
            for method, e, value, se in rows
        ),
    )
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def cmd_bench(args) -> int:
    if args.cpus < 1:
        raise CliError(f"--cpus must be >= 1, got {args.cpus}")
    if not 0 < args.duration < np.inf:
        raise CliError(f"--duration must be positive and finite, got {args.duration}")
    if args.trace:
        trace = load_trace(args.trace)
    else:
        trace = generate_trace(n_packets=args.packets, n_flows=args.flows, skew=args.skew, seed=args.seed)
    sel = SelectorConfig(method=args.method, seed=args.seed, k=args.k)
    if args.r is not None:
        sel.r = args.r
    config = BenchConfig(
        selector=sel,
        workers=args.cpus,
        duration_s=args.duration,
        trials=args.trials,
        pin_cpus=not args.no_pin,
    )
    report = run_benchmark(config, trace)
    out = args.out or f"bench-{args.method}-c{args.cpus}.csv"
    export_report(report, out)
    print(
        f"{args.method}: {report.mean_throughput:.0f} IPIDs/s mean over "
        f"{args.trials} trials ({report.mean_request_ns:.0f} ns/request); wrote {out}"
    )
    return 0


def cmd_simulate_collision(args) -> int:
    _check_sim_args(args)
    sim = montecarlo.SimParams(trials=args.trials, t=args.t, seed=args.seed)
    prob, se = montecarlo.conditional_collision_bucket(args.n, args.lam, sim)
    out = args.out or "bucket-collision.csv"
    _write_csv(
        out,
        ["n", "lambda", "trials", "probability", "std_err"],
        [[args.n, repr(args.lam), args.trials, repr(prob), repr(se)]],
    )
    print(f"collision probability {prob!r} (std err {se!r}); wrote {out}")
    return 0


def cmd_simulate_sumdist(args) -> int:
    _check_sim_args(args)
    sim = montecarlo.SimParams(trials=args.trials, t=args.t, seed=args.seed)
    table = montecarlo.increment_sum_distribution(args.lam_i, sim)
    out = args.out or "sum-dist.csv"
    _write_csv(out, ["ipid", "mass"], ([ipid, repr(float(mass))] for ipid, mass in enumerate(table.mass)))
    print(f"wrote next-value distribution to {out}")
    return 0


def cmd_gen_trace(args) -> int:
    trace = generate_trace(
        n_packets=args.packets,
        n_flows=args.flows,
        skew=args.skew,
        atomic_fraction=args.atomic_fraction,
        seed=args.seed,
    )
    out = args.out or "trace.bin"
    save_trace(trace, out)
    print(f"wrote {len(trace)} records to {out}")
    return 0


def cmd_trace_convert(args) -> int:
    trace = load_trace(args.in_path)
    save_trace(trace, args.out_path)
    print(f"converted {len(trace)} records: {args.in_path} -> {args.out_path}")
    return 0


def cmd_recommend(args) -> int:
    by_rate = args.lam is not None or args.lam_n is not None
    by_bandwidth = args.bandwidth_bps is not None or args.cb_fraction is not None
    if by_rate == by_bandwidth:
        raise CliError(
            "provide exactly one input form: --lambda/--lambda-n or "
            "--bandwidth-bps/--cb-fraction"
        )
    if by_rate:
        if args.lam is None or args.lam_n is None:
            raise CliError("--lambda and --lambda-n are both required")
        lam, lam_n = args.lam, args.lam_n
    else:
        if args.bandwidth_bps is None or args.cb_fraction is None:
            raise CliError("--bandwidth-bps and --cb-fraction are both required")
        if not 0.0 <= args.cb_fraction <= 1.0:
            raise CliError(f"--cb-fraction must be in [0, 1], got {args.cb_fraction}")
        lam = bandwidth_to_lambda(
            args.bandwidth_bps, unit_time_s=args.unit_time_s, packet_bytes=args.packet_bytes
        )
        lam_n = lam * (1.0 - args.cb_fraction)

    try:
        rates = RateEstimate.from_total(lam, lam_n)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    rec = recommend(rates)
    print(f"use case {rec.use_case}: {rec.label}")
    print(f"  rates: lambda={lam!r}, lambda_n={lam_n!r}, lambda_c={rates.lam_c!r}")
    print(f"  non-connection-bound method: {rec.non_cb_method}")
    print(f"  connection-bound handling:   {rec.cb_handling}")
    print(f"  rationale: {rec.rationale}")
    print(f"RECOMMEND {rec.use_case} {rec.non_cb_method} {rec.cb_handling}")
    return 0


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
