import csv

import pytest

from ipidlab.bench import (
    REPORT_HEADER,
    BenchConfig,
    BenchmarkError,
    export_report,
    run_benchmark,
)
from ipidlab.constants import IPID_SPACE
from ipidlab.selectors import METHODS, SelectorConfig
from ipidlab.trace import PacketRecord, Trace, generate_trace

TRACE = generate_trace(n_packets=2000, n_flows=64, seed=1)


def quick_config(method, workers=1, **kwargs):
    return BenchConfig(
        selector=SelectorConfig(method=method, seed=1),
        workers=workers,
        duration_s=kwargs.pop("duration_s", 0.15),
        trials=kwargs.pop("trials", 2),
        **kwargs,
    )


def test_single_worker_counts_match_aggregate():
    report = run_benchmark(quick_config("global"), TRACE)
    for trial in report.trials:
        assert len(trial.workers) == 1
        assert trial.total_count == trial.workers[0].count
        assert trial.throughput > 0


def test_global_conservation_every_trial():
    report = run_benchmark(quick_config("global", workers=2), TRACE)
    for trial in report.trials:
        delta = (trial.counter_end - trial.counter_start) % IPID_SPACE
        assert delta == trial.total_count % IPID_SPACE


@pytest.mark.parametrize("method", METHODS)
def test_every_method_produces_finite_positive_stats(method):
    config = quick_config(method, workers=2, trials=1)
    report = run_benchmark(config, TRACE)
    trial = report.trials[0]
    assert trial.throughput > 0
    for w in trial.workers:
        assert w.count > 0
        assert w.mean_ns > 0
        assert w.mean_ns == w.mean_ns  # not NaN


def test_report_aggregates():
    report = run_benchmark(quick_config("prng-pure", workers=2, trials=3), TRACE)
    assert len(report.trials) == 3
    assert report.mean_throughput > 0
    assert report.mean_request_ns > 0


def test_export_schema_and_round_trip(tmp_path):
    report = run_benchmark(quick_config("global", workers=2, trials=2), TRACE)
    path = tmp_path / "report.csv"
    export_report(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == REPORT_HEADER
    assert len(rows) == 1 + 2 * 2  # header + trials x workers

    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    for trial_idx, trial in enumerate(report.trials):
        got = [r for r in parsed if int(r["trial"]) == trial_idx]
        assert sum(int(r["count"]) for r in got) == trial.total_count
        assert float(got[0]["throughput"]) == pytest.approx(trial.throughput)
        by_id = {int(r["worker_id"]): r for r in got}
        for w in trial.workers:
            assert float(by_id[w.worker_id]["mean_ns"]) == pytest.approx(w.mean_ns)


def test_worker_failure_aborts_with_diagnostic():
    bad = Trace(records=[PacketRecord.__new__(PacketRecord)])
    object.__setattr__(bad.records[0], "flow", None)
    object.__setattr__(bad.records[0], "atomic", False)
    config = quick_config("per-destination", workers=2, trials=1)
    with pytest.raises(BenchmarkError, match="worker"):
        run_benchmark(config, bad)


def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        run_benchmark(quick_config("global"), Trace(records=[]))


def test_config_validation():
    with pytest.raises(ValueError):
        quick_config("global", workers=0).validate()
    with pytest.raises(ValueError):
        quick_config("global", duration_s=0).validate()
    with pytest.raises(ValueError):
        quick_config("global", trials=0).validate()


def test_oversubscription_warns():
    import os

    config = quick_config("global", workers=(os.cpu_count() or 1) + 1)
    with pytest.warns(UserWarning, match="exceeds available"):
        config.validate()
