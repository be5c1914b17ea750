"""The benchmark's workloads and the work of one run.

A run sets up its input several times (trace generate, save, load),
then repeats whole rounds until its time is up. A round replays the
trace once per method through ``bench.run_benchmark``, round-trips a
small trace, runs the three ``ipidlab analyze`` sweeps through
``cli.run``, and continues an untimed check pass over the trace. Every
round attempts the same checked operations, so the failed share of a
run does not depend on how many rounds fit.
"""
from __future__ import annotations

import contextlib
import gc
import inspect
import io
import json
import os
import random
import resource
import statistics
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from ipidlab import analytics, bench, cli, clock, montecarlo, selectors, siphash, trace

import checks
from checks import Sweep
from spans import Tracer, summarize

METHODS = (
    "global",
    "per-connection",
    "per-destination",
    "per-bucket-exclusive",
    "per-bucket-racy",
    "prng-queue",
    "prng-shuffle",
    "prng-pure",
)
# Methods replayed in timed trials. The per-bucket methods are left out:
# on a shared 2-vCPU VM their trials ran about 2x faster in the machine's
# fast spells (other methods about 1.5x), and their per-run throughput
# spread past 0.25 in most sets of ten runs. The check pass still
# replays them, and the per-layer metrics still time them.
TIMED_METHODS = tuple(m for m in METHODS if not m.startswith("per-bucket"))
LAYERS = ("siphash", "clock", "rng", "selectors", "bench", "trace", "analytics", "montecarlo", "cli")
SWEEP_METRICS = ("correctness_sweep_s", "security_uniform_sweep_s", "security_worst_sweep_s")

SETUP_REPS = 3
SETUP_BUDGET_S = 2.5
MIN_ROUNDS = 3
TICK_RECORDS = 256  # the check pass advances its virtual clock one tick per 256 records
CHECK_CHUNK = 2048  # records per method that each round's check pass adds
IO_PACKETS = 1 << 13  # packets in each round's trace round trip
LONG_TRIAL_S = 0.6
SUM_DIST_LAMBDA_I, SUM_DIST_TRIALS = 1.0, 1 << 14

PAPER_SWEEPS = (
    Sweep("correctness", METHODS, (-14.0, 20.0, 1.0), 20_000),
    Sweep("security-uniform", METHODS, (-14.0, 20.0, 1.0), 20_000),
    Sweep("security-worst", ("per-destination", "per-bucket-exclusive"), (4.0, 4.5, 1.0), 4096, r=2048),
)
# flow-churn still runs each sweep, over exact (closed-form and Poisson)
# methods only, so that every run reports every end-to-end metric; these
# take tens of milliseconds and are sampled every round.
SMALL_SWEEPS = (
    Sweep("correctness", ("global", "per-destination", "prng-pure", "prng-queue", "prng-shuffle"),
          (-3.0, 15.0, 2.0), 1),
    Sweep("security-uniform", ("global", "per-destination", "prng-shuffle"), (-3.0, 13.0, 4.0), 1),
    Sweep("security-worst", ("global", "per-connection", "prng-queue"), (-3.0, 13.0, 4.0), 1),
)


@dataclass(frozen=True)
class Workload:
    name: str
    packets: int
    flows: int
    skew: float
    trial_s: float  # one timed trial of one method
    replay_reps: int  # timed trials per method, and trace round trips, per round
    sweeps: tuple  # correctness, security-uniform, security-worst
    long_trials: tuple = ()  # methods whose trials last LONG_TRIAL_S


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-sweeps", 1 << 14, 1024, 1.0, 0.1, 5, PAPER_SWEEPS),
        # per-destination purges are checked every 0.5 s, so its trials run longer
        Workload("flow-churn", 1 << 17, 1 << 17, 0.0, 0.15, 1, SMALL_SWEEPS,
                 long_trials=("per-destination",)),
    )
}


class CountingRng:
    """random.Random behind the selector RNG interface, counting draws."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.draws = 0

    def getrandbits(self, bits: int) -> int:
        self.draws += 1
        return self._rng.getrandbits(bits)

    def randint(self, a: int, b: int) -> int:
        self.draws += 1
        return self._rng.randint(a, b)

    def randrange(self, n: int) -> int:
        self.draws += 1
        return self._rng.randrange(n)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)


def _median(values) -> float:
    return float(statistics.median(values))


def _per_call_ns(fn, calls: int, reps: int = 3) -> float:
    best = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn(calls)
        best.append((time.perf_counter_ns() - t0) / calls)
    return _median(best)


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


class Runner:
    def __init__(self, workload: Workload, seed: int, out_dir: Path):
        self.wl = workload
        self.seed = seed
        self.out = out_dir
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.draws: dict[str, int] = {}
        self.trace = None
        self._bucket_index: dict = {}  # (key, r) -> flow -> bucket, for the checker
        self._checked: dict = {}  # method -> (clock, rng, checked request)
        self._check_pos = 0

    # -- set-up -----------------------------------------------------------

    def setup(self) -> float:
        """Generate, save and load the trace at least SETUP_REPS times, and
        on until SETUP_BUDGET_S is spent; median seconds of one repetition."""
        wl = self.wl
        path = self.out / "trace.bin"
        totals = []
        while len(totals) < SETUP_REPS or sum(totals) < SETUP_BUDGET_S:
            self.trace = None  # the previous copy is freed first
            t_gen, generated = _timed(
                trace.generate_trace, wl.packets, wl.flows, wl.skew, trace.DEFAULT_ATOMIC_FRACTION, self.seed
            )
            t_save, _ = _timed(trace.save_trace, generated, path)
            sample = [_record_tuple(r) for r in generated.records[::97]]
            del generated
            t_load, self.trace = _timed(trace.load_trace, path)
            if len(self.trace) != wl.packets or sample != [
                _record_tuple(r) for r in self.trace.records[::97]
            ]:
                raise checks.CheckFailure("trace changed in a save/load round trip")
            for key, value in (("gen", t_gen), ("save", t_save), ("load", t_load)):
                self.samples[key].append(value)
            totals.append(t_gen + t_save + t_load)
        return _median(totals)

    # -- one round --------------------------------------------------------

    def round(self, trial_s: float, tracer: Tracer | None = None) -> float:
        def phase(name, fn, *args):
            return tracer.phase(name, fn, *args) if tracer else fn(*args)

        t0 = time.perf_counter()
        phase("perfbench.replay", self._replay, trial_s)
        for _ in range(self.wl.replay_reps):
            phase("perfbench.trace_io", self._trace_io)
        phase("perfbench.sweeps", self._sweeps)
        phase("perfbench.check", self._check_pass)
        return time.perf_counter() - t0

    def _replay(self, trial_s: float) -> None:
        for method in TIMED_METHODS * self.wl.replay_reps:
            config = bench.BenchConfig(
                selector=selectors.SelectorConfig(method=method, seed=self.seed),
                workers=1,
                duration_s=self._trial_s(method, trial_s),
                trials=1,
            )
            trial = bench.run_benchmark(config, self.trace).trials[0]
            self.samples[f"rps.{method}"].append(trial.throughput)
            if method == "global":
                checks.check_conservation(trial.counter_start, trial.counter_end, trial.total_count)
                self.attempted += 1

    def _trial_s(self, method: str, trial_s: float) -> float:
        return trial_s * LONG_TRIAL_S / self.wl.trial_s if method in self.wl.long_trials else trial_s

    def _last_trials(self) -> dict:
        """Mean IPIDs/s per method over the last round's timed trials."""
        reps = self.wl.replay_reps
        return {m: statistics.fmean(self.samples[f"rps.{m}"][-reps:]) for m in TIMED_METHODS}

    def _trace_io(self) -> None:
        """Generate, save and load an IO_PACKETS-packet trace with the
        workload's skew and up to IO_PACKETS of its flows."""
        wl, path = self.wl, self.out / "io.bin"
        # A cyclic collection that lands inside the timed calls walks the
        # whole resident trace and triples their time; where one lands
        # depends on how many requests the previous trials made. Collect
        # first, so that every round trip starts from the same GC state.
        gc.collect()
        t_gen, generated = _timed(
            trace.generate_trace, IO_PACKETS, min(wl.flows, IO_PACKETS), wl.skew, trace.DEFAULT_ATOMIC_FRACTION, self.seed
        )
        t_save, _ = _timed(trace.save_trace, generated, path)
        t_load, loaded = _timed(trace.load_trace, path)
        if loaded != generated:
            raise checks.CheckFailure("trace changed in a save/load round trip")
        self.attempted += 1
        self.samples["io_gen_save"].append(t_gen + t_save)
        self.samples["io_load"].append(t_load)

    def _sweeps(self) -> None:
        rows = {}
        for sweep, metric in zip(self.wl.sweeps, SWEEP_METRICS):
            out = self.out / f"{sweep.quantity}.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                elapsed, rc = _timed(cli.run, sweep.argv(self.seed, str(out)))
            if rc != 0:
                raise checks.CheckFailure(f"analyze {sweep.quantity} exited {rc}")
            self.samples[metric].append(elapsed)
            rows[sweep.quantity] = checks.read_rows(out)
        uniform = rows["security-uniform"]
        for sweep in self.wl.sweeps:
            self.failed += checks.check_sweep(sweep, rows[sweep.quantity], uniform)
            self.attempted += len(rows[sweep.quantity])

    def _check_pass(self) -> None:
        """Continue an untimed replay of the trace by CHECK_CHUNK records
        per method, under a virtual clock and a counting RNG, checking
        every IPID returned. The selectors live for the whole run, so
        their streams grow long enough to cross the non-repetition
        windows."""
        self.attempted += checks.check_siphash(siphash.siphash24)
        if not self._checked:
            for method in METHODS:
                vclock, rng = clock.VirtualClock(), CountingRng(self.seed)
                config = selectors.SelectorConfig(method=method, seed=self.seed, k=checks.PRNG_K.get(method))
                sel = selectors.new_selector(config, clock=vclock, rng=rng)
                self._checked[method] = (vclock, rng, self._checked_request(method, sel, config))
        records, start = self.trace.records, self._check_pos
        for method, (vclock, rng, request) in self._checked.items():
            draws = rng.draws
            for i in range(start, start + CHECK_CHUNK):
                if i and i % TICK_RECORDS == 0:
                    vclock.advance(1)
                request(records[i % len(records)], i // TICK_RECORDS, i)
            self.draws[method] = rng.draws - draws
        self._check_pos += CHECK_CHUNK
        self.attempted += CHECK_CHUNK * len(METHODS)
        table = montecarlo.increment_sum_distribution(
            SUM_DIST_LAMBDA_I, montecarlo.SimParams(trials=SUM_DIST_TRIALS, seed=self.seed)
        )
        checks.check_increment_sum(table.mass, SUM_DIST_LAMBDA_I, 3, SUM_DIST_TRIALS)
        self.attempted += 1

    def _checked_request(self, method: str, sel, config):
        if method == "global":
            chk = checks.Sequential(sel.counter)
            return lambda rec, now, i: chk.feed(sel.next_global())
        if method == "per-connection":
            state = sel.new_connection()
            chk = checks.Sequential(state.counter)
            return lambda rec, now, i: chk.feed(sel.next_per_connection(state))
        if method == "per-destination":
            chk = checks.PerDestination()

            def request(rec, now, i):
                f = rec.flow
                before = len(sel)
                v = sel.next_per_destination(f.src_addr, f.dst_addr)
                chk.feed((f.src_addr, f.dst_addr), v, before, len(sel))

            return request
        if method in checks.BUCKET_METHODS:
            r, key = config.r, sel.hash_key
            counters = [sel.bucket_counter(j) for j in range(r)]
            chk = checks.PerBucket(key, r, counters, 0, self._bucket_index.setdefault((key, r), {}))

            def request(rec, now, i):
                f = rec.flow
                j = sel.bucket_index(f)
                chk.feed((f.src_addr, f.dst_addr, f.protocol), j, now, sel.next_per_bucket(f))

            return request
        if method == "prng-pure":
            chk = checks.NonZero()
            return lambda rec, now, i: chk.feed(sel.next_prng_pure(i))
        k = checks.PRNG_K[method]
        if method == "prng-queue":
            chk = checks.NoRepeat(k)
            return lambda rec, now, i: chk.feed(sel.next_prng_queue())
        chk = checks.NoRepeat(k - 1)
        return lambda rec, now, i: chk.feed(sel.next_prng_shuffle())

    # -- results ----------------------------------------------------------

    def end_to_end(self, import_s: float, setup_rep_s: float) -> dict:
        """Means of the samples, not medians. On the shared 2-vCPU VM where
        the bounds were set, one fixed loop ran at two speeds about 1.4x
        apart, in spells of milliseconds to seconds. A median of short
        samples flips between the two as their mix changes from run to
        run; a mean moves only in proportion to it."""
        (self.out / "samples.json").write_text(json.dumps(self.samples))
        metrics = {
            "setup_s": (import_s + setup_rep_s, "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        for method in TIMED_METHODS:
            metrics[f"rps.{method}"] = (statistics.fmean(self.samples[f"rps.{method}"]), "IPIDs/s")
        metrics["gen_trace_rps"] = (IO_PACKETS / statistics.fmean(self.samples["io_gen_save"]), "records/s")
        metrics["trace_load_rps"] = (IO_PACKETS / statistics.fmean(self.samples["io_load"]), "records/s")
        for key in SWEEP_METRICS:
            metrics[key] = (statistics.fmean(self.samples[key]), "s")
        return metrics

    # -- traced run -------------------------------------------------------

    def install(self, tracer: Tracer) -> None:
        def public(module):
            return [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]

        targets = [
            ("siphash", siphash, ["siphash24"]),
            ("siphash", selectors, ["siphash24"]),
            ("clock", clock.MonotonicClock, ["now"]),
            ("clock", clock.VirtualClock, ["now"]),
            ("rng", CountingRng, ["getrandbits", "randint", "randrange"]),
            ("selectors", selectors, ["bucket_index", "new_selector"]),
            ("selectors", bench, ["new_selector"]),
            ("selectors", selectors.GloballyIncrementingSelector, ["next_global"]),
            ("selectors", selectors.PerConnectionSelector, ["new_connection", "next_per_connection"]),
            ("selectors", selectors.PerDestinationSelector, ["next_per_destination"]),
            ("selectors", selectors.PerBucketSelector, ["next_per_bucket"]),
            ("selectors", selectors.PrngQueueSelector, ["next_prng_queue"]),
            ("selectors", selectors.PrngShuffleSelector, ["next_prng_shuffle"]),
            ("selectors", selectors.PrngPureSelector, ["next_prng_pure", "thread_requester"]),
            ("bench", bench, ["run_benchmark"]),
            ("trace", trace, ["generate_trace", "save_trace", "load_trace"]),
            ("analytics", analytics, public(analytics)),
            ("montecarlo", montecarlo, public(montecarlo)),
            ("cli", cli, ["run"]),
        ]
        for layer, owner, attrs in targets:
            for attr in attrs:
                name = attr if inspect.ismodule(owner) else f"{owner.__name__}.{attr}"
                tracer.patch(owner, attr, f"{layer}.{name}")

    def per_layer(self, trial_s: float) -> dict:
        """A warm-up round (oracles and one-time state), one untraced and
        one traced round, then per-layer measurements."""
        self.round(trial_s)
        wall_plain = self.round(trial_s)
        plain = self._last_trials()
        tracer = Tracer()
        self.install(tracer)
        try:
            wall_traced = self.round(trial_s, tracer)
        finally:
            tracer.unpatch()
        traced = self._last_trials()
        tracer.write(self.out / "spans")
        m = self._span_metrics(tracer)
        # a trial's length is set by its config, not by bench's cost, so
        # bench's self time is what its trials take beyond their set length
        trials_s = self.wl.replay_reps * sum(self._trial_s(method, trial_s) for method in TIMED_METHODS)
        m["bench.self_s"] = (m["bench.self_s"][0] - trials_s, "s")
        # Timed trials last as long traced as untraced and only do fewer
        # requests; their share of the overhead is the extra time the
        # traced trials would need for the untraced trials' requests.
        in_trials = sum(
            self._trial_s(method, trial_s) * self.wl.replay_reps * (plain[method] / traced[method] - 1.0)
            for method in TIMED_METHODS
        )
        overhead = wall_traced - wall_plain + in_trials
        m["tracing.overhead_s"] = (overhead, "s")
        m["tracing.overhead_share"] = (overhead / wall_plain, "ratio")
        for method in ("prng-queue", "prng-shuffle", "prng-pure", "per-bucket-exclusive"):
            m[f"rng.{method}.draws_per_ipid"] = (self.draws[method] / CHECK_CHUNK, "draws/IPID")
        m.update(self._micro())
        return m

    def _span_metrics(self, tracer: Tracer) -> dict:
        names = tracer.names
        s = summarize(tracer.spans(), names)
        counted = ~s["in_trial"]
        m = {}
        for layer in LAYERS:
            ids = [i for i, n in enumerate(names) if n.split(".", 1)[0] == layer]
            mask = np.isin(s["name"], ids)
            m[f"{layer}.calls"] = (int((mask & counted).sum()), "count")
            span_ns = s["dur_ns"] if layer == "bench" else s["self_ns"]
            m[f"{layer}.self_s"] = (float(span_ns[mask & counted].sum()) / 1e9, "s")

        def ids_of(*wanted):
            return [names.index(n) for n in wanted if n in names]

        index_calls = np.isin(s["name"], ids_of("selectors.bucket_index")) & counted
        m["selectors.bucket_index.calls"] = (int(index_calls.sum()), "count")
        worst = np.isin(s["name"], ids_of("analytics.worst_case_lambda_i"))
        parents = s["parent_index"]
        under_worst = (parents >= 0) & worst[np.maximum(parents, 0)]
        evals = np.isin(s["name"], ids_of("analytics.guess_prob_counter", "analytics.guess_prob_bucket"))
        n_worst = int(worst.sum())
        m["analytics.worst_case.evals"] = (
            int((evals & under_worst).sum()) / n_worst if n_worst else 0.0, "count")
        return m

    def _micro(self) -> dict:
        """Direct timings of single-layer operations, outside any round."""
        m = {}
        wl = self.wl
        records = self.trace.records[: 1 << 14]
        flows = list({(r.flow.src_addr, r.flow.dst_addr, r.flow.protocol): r.flow for r in records}.values())[:2000]
        key = bytes(range(16))
        msgs = [(f.dst_addr).to_bytes(4, "little") + f.src_addr.to_bytes(4, "little") + bytes([f.protocol]) for f in flows]

        def hashes(n):
            h = siphash.siphash24
            for i in range(n):
                h(key, msgs[i % len(msgs)])

        def indices(n):
            b = selectors.bucket_index
            for i in range(n):
                b(flows[i % len(flows)], key, 2048)

        m["siphash.ns_per_hash"] = (_per_call_ns(hashes, 4000), "ns")
        m["selectors.bucket_index.ns"] = (_per_call_ns(indices, 4000), "ns")
        for method in METHODS:
            m[f"selectors.{method}.ns_per_req"] = (self._direct_ns(method, records), "ns")

        lock = threading.Lock()

        def locked(n):
            for _ in range(n):
                with lock:
                    pass

        mono = clock.MonotonicClock()

        def now(n):
            f = mono.now
            for _ in range(n):
                f()

        rng = random.Random(self.seed)

        def bits(n):
            f = rng.getrandbits
            for _ in range(n):
                f(16)

        def randint(n):
            f = rng.randint
            for _ in range(n):
                f(1, 300)

        def randrange(n):
            f = rng.randrange
            for _ in range(n):
                f(1 << 15)

        m["selectors.lock_ns"] = (_per_call_ns(locked, 200_000), "ns")
        m["selectors.per-destination.table_peak"] = (self._table_peak(), "entries")
        m["clock.now_ns"] = (_per_call_ns(now, 200_000), "ns")
        m["rng.getrandbits_ns"] = (_per_call_ns(bits, 200_000), "ns")
        m["rng.randint_ns"] = (_per_call_ns(randint, 200_000), "ns")
        m["rng.randrange_ns"] = (_per_call_ns(randrange, 200_000), "ns")
        m.update(self._scaling())
        m.update(self._trace_micro())
        m.update(self._analysis_micro())
        return m

    def _direct_ns(self, method: str, records: list) -> float:
        """ns per request calling the selector directly, no harness."""
        samples = []
        for _ in range(3):
            sel = selectors.new_selector(selectors.SelectorConfig(method=method, seed=self.seed))
            if method == "global":
                f = sel.next_global
                call = lambda rec: f()
            elif method == "per-connection":
                state, f = sel.new_connection(), sel.next_per_connection
                call = lambda rec: f(state)
            elif method == "per-destination":
                f = sel.next_per_destination
                call = lambda rec: f(rec.flow.src_addr, rec.flow.dst_addr)
            elif method in checks.BUCKET_METHODS:
                f = sel.next_per_bucket
                call = lambda rec: f(rec.flow)
            elif method == "prng-queue":
                f = sel.next_prng_queue
                call = lambda rec: f()
            elif method == "prng-shuffle":
                f = sel.next_prng_shuffle
                call = lambda rec: f()
            else:
                f = sel.next_prng_pure
                call = lambda rec: f(0)
            t0 = time.perf_counter_ns()
            for rec in records:
                call(rec)
            samples.append((time.perf_counter_ns() - t0) / len(records))
        return _median(samples)

    def _table_peak(self) -> int:
        """Largest per-destination table over a replay of up to 2^17
        records under a virtual clock (one tick per TICK_RECORDS)."""
        vclock = clock.VirtualClock()
        sel = selectors.new_selector(
            selectors.SelectorConfig(method="per-destination", seed=self.seed), clock=vclock
        )
        peak = 0
        for i, rec in enumerate(self.trace.records[: 1 << 17]):
            if i and i % TICK_RECORDS == 0:
                vclock.advance(1)
            sel.next_per_destination(rec.flow.src_addr, rec.flow.dst_addr)
            peak = max(peak, len(sel))
        return peak

    def _scaling(self) -> dict:
        m = {}
        spreads = []
        nproc = os.cpu_count() or 1
        for method in METHODS:
            rps = []
            for workers in (1, nproc):
                config = bench.BenchConfig(
                    selector=selectors.SelectorConfig(method=method, seed=self.seed),
                    workers=workers,
                    duration_s=0.25,
                    trials=1,
                )
                trial = bench.run_benchmark(config, self.trace).trials[0]
                rps.append(trial.throughput)
            counts = [w.count for w in trial.workers]
            spreads.append(max(counts) / max(1, min(counts)))
            m[f"bench.{method}.scaling"] = (rps[1] / rps[0], "ratio")
        m["bench.worker_spread"] = (_median(spreads), "ratio")
        return m

    def _trace_micro(self) -> dict:
        n = self.wl.packets
        m = {
            "trace.gen_ns_per_record": (_median(self.samples["gen"]) * 1e9 / n, "ns"),
            "trace.save_ns_per_record": (_median(self.samples["save"]) * 1e9 / n, "ns"),
            "trace.load_ns_per_record": (_median(self.samples["load"]) * 1e9 / n, "ns"),
        }
        head = trace.Trace(records=self.trace.records[: 1 << 14])
        csv_path = self.out / "head.csv"
        t0 = time.perf_counter()
        trace.save_trace(head, csv_path)
        back = trace.load_trace(csv_path)
        m["trace.csv_roundtrip_ns_per_record"] = ((time.perf_counter() - t0) * 1e9 / len(head), "ns")
        if back != head:
            raise checks.CheckFailure("trace changed in a CSV round trip")
        bin_path = self.out / "head.bin"
        bin_path.write_bytes((self.out / "trace.bin").read_bytes()[: 16 * len(head)])
        tracemalloc.start()
        try:
            loaded = trace.load_trace(bin_path)
            resident, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m["trace.resident_bytes_per_record"] = (resident / len(loaded), "B")
        return m

    def _analysis_micro(self) -> dict:
        def ms(fn, *args, reps=5):
            return _median(_timed(fn, *args)[0] for _ in range(reps)) * 1e3

        trials = self.wl.sweeps[2].trials
        sim = montecarlo.SimParams(trials=trials, seed=self.seed)
        m = {
            "analytics.collision_prob_prng_ms": (ms(analytics.collision_prob_prng, 2.0**10), "ms"),
            "analytics.guess_prob_counter_ms": (ms(analytics.guess_prob_counter, 2.0**20, 1), "ms"),
            "analytics.truncation_bound_us": (
                _per_call_ns(lambda n: [analytics.truncation_bound(2.0**10) for _ in range(n)], 200) / 1e3,
                "us",
            ),
            "analytics.worst_case.per-destination_s": (
                _timed(analytics.worst_case_lambda_i, "per-destination", 16.0, 2048, 1)[0], "s"),
            "analytics.worst_case.per-bucket_s": (
                _timed(analytics.worst_case_lambda_i, "per-bucket-exclusive", 16.0, 2048, 1, sim)[0], "s"),
        }
        sum_trials, coll_trials = 1 << 15, 1 << 14
        m["montecarlo.sum_dist_trials_per_s"] = (
            sum_trials / (ms(montecarlo.increment_sum_distribution, 16.0,
                             montecarlo.SimParams(trials=sum_trials, seed=self.seed), reps=3) / 1e3),
            "1/s",
        )
        m["montecarlo.collision_trials_per_s"] = (
            coll_trials / (ms(montecarlo.collision_prob_bucket, 2.0**5,
                              montecarlo.SimParams(trials=coll_trials, seed=self.seed), reps=3) / 1e3),
            "1/s",
        )
        return m


def _record_tuple(rec) -> tuple:
    f = rec.flow
    return (f.src_addr, f.dst_addr, f.protocol, f.src_port, f.dst_port, rec.atomic)
