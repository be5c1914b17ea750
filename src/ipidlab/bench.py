"""Multi-worker contention benchmark over a packet trace.

Workers start behind a barrier, then each cycles over the trace's record
indices, cut once per run into lists of at most ``_CHUNK``, requesting
one IPID per record until the wall-clock duration elapses. A request
receives only the record's index: each worker's requester binds, before
the barrier, the record columns its method reads (per-destination every
record's packed table key ``src << 32 | dst``, per-bucket every record's
bucket index, both computed in numpy), so the timed loop neither builds
nor touches a per-packet object. Counting and timing stay worker-local
(merged after join) so the hot loop is unperturbed; the first 5% of the
duration is excluded from request-time measurement as warmup. Workers
are pinned to distinct CPUs where the platform allows it (silent
fallback otherwise).

Per-connection is benchmarked at its real cost profile: the counter
lives in caller-owned state, so a request is a bare local increment
with no lookup or concurrency control.
"""
from __future__ import annotations

import csv
import itertools
import math
import os
import threading
import time
import warnings
from dataclasses import dataclass, field
from statistics import mean
from typing import Optional

from .selectors import SelectorConfig, new_selector
from .trace import Trace

__all__ = [
    "BenchConfig",
    "BenchReport",
    "BenchmarkError",
    "TrialResult",
    "WorkerStats",
    "REPORT_HEADER",
    "export_report",
    "run_benchmark",
]

REPORT_HEADER = ["method", "workers", "trial", "worker_id", "count", "mean_ns", "throughput"]

_CHUNK = 256  # records per block: one clock read and stop check per block
WARMUP_FRACTION = 0.05


class BenchmarkError(RuntimeError):
    """A worker failed; the trial is aborted with its diagnostic."""


@dataclass
class BenchConfig:
    """Benchmark shape: which selector, how many workers, how long."""

    selector: SelectorConfig
    workers: int = 1
    duration_s: float = 10.0
    trials: int = 10
    pin_cpus: bool = True

    def validate(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not 0 < self.duration_s < math.inf:
            raise ValueError(f"duration_s must be positive and finite, got {self.duration_s}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        available = os.cpu_count() or 1
        if self.workers > available:
            warnings.warn(
                f"workers={self.workers} exceeds available execution units "
                f"({available}); request times will include oversubscription",
                stacklevel=2,
            )


@dataclass(frozen=True)
class WorkerStats:
    worker_id: int
    count: int
    mean_ns: float


@dataclass(frozen=True)
class TrialResult:
    workers: tuple[WorkerStats, ...]
    throughput: float  # IPIDs/s, all workers combined
    counter_start: Optional[int] = None  # globally incrementing only
    counter_end: Optional[int] = None

    @property
    def total_count(self) -> int:
        return sum(w.count for w in self.workers)


@dataclass
class BenchReport:
    """Per-trial, per-worker counts and request times plus aggregates."""

    method: str
    workers: int
    trials: list[TrialResult] = field(default_factory=list)

    @property
    def mean_throughput(self) -> float:
        return mean(t.throughput for t in self.trials)

    @property
    def mean_request_ns(self) -> float:
        return mean(w.mean_ns for t in self.trials for w in t.workers)


def _pin_to_cpu(worker_id: int) -> None:
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[worker_id % len(cpus)]})
    except (AttributeError, OSError):
        pass  # pinning unsupported here; run unpinned


def run_benchmark(config: BenchConfig, trace: Trace) -> BenchReport:
    """Run ``config.trials`` independent trials and aggregate them.

    Each trial constructs a fresh selector from the config, so trials
    are independent and deterministic given the selector seed.
    """
    config.validate()
    n = len(trace)
    if not n:
        raise ValueError("trace is empty")
    blocks = [list(range(i, min(i + _CHUNK, n))) for i in range(0, n, _CHUNK)]
    report = BenchReport(method=config.selector.method, workers=config.workers)
    for _trial in range(config.trials):
        report.trials.append(_run_trial(config, trace.array, blocks))
    return report


def _run_trial(config: BenchConfig, records, blocks: list) -> TrialResult:
    selector = new_selector(config.selector)
    workers = config.workers
    duration_s = config.duration_s
    barrier = threading.Barrier(workers)
    stop = threading.Event()
    out: list = [None] * workers
    errors: list = []

    def worker(worker_id: int) -> None:
        try:
            if config.pin_cpus:
                _pin_to_cpu(worker_id)
            request = selector.thread_requester(worker_id, records)
            perf = time.perf_counter
            barrier.wait()
            t0 = perf()
            deadline = t0 + duration_s
            warmup_end = t0 + duration_s * WARMUP_FRACTION
            count = 0
            mark = (t0, 0)  # (time, count) timing starts from; moved once, never at the last block
            for block in itertools.cycle(blocks):
                for i in block:
                    request(i)
                count += len(block)
                now = perf()
                if now >= deadline or stop.is_set():
                    break
                if not mark[1] and now >= warmup_end:
                    mark = (now, count)
            mean_ns = (now - mark[0]) / (count - mark[1]) * 1e9
            out[worker_id] = WorkerStats(worker_id=worker_id, count=count, mean_ns=mean_ns)
        except BaseException as exc:  # surfaced as BenchmarkError after join
            errors.append((worker_id, exc))
            stop.set()
            barrier.abort()

    # only the globally incrementing selector has a shared counter
    counter_start = getattr(selector, "counter", None)
    threads = [
        threading.Thread(target=worker, args=(w,), name=f"ipid-bench-{w}", daemon=True)
        for w in range(workers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        worker_id, exc = errors[0]
        raise BenchmarkError(f"worker {worker_id} failed: {exc!r}") from exc
    counter_end = getattr(selector, "counter", None)
    stats = tuple(out)
    total = sum(w.count for w in stats)
    return TrialResult(
        workers=stats,
        throughput=total / duration_s,
        counter_start=counter_start,
        counter_end=counter_end,
    )


def export_report(report: BenchReport, path) -> None:
    """Write one CSV row per (trial, worker) with the stable schema."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(REPORT_HEADER)
        writer.writerows(
            [report.method, report.workers, trial_idx, w.worker_id, w.count, repr(w.mean_ns), repr(trial.throughput)]
            for trial_idx, trial in enumerate(report.trials)
            for w in trial.workers
        )
