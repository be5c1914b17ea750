import csv
import itertools
import os
import warnings

import pytest

from ipidlab import analytics, montecarlo
from ipidlab.cli import ANALYZE_HEADER, run
from ipidlab.constants import IPID_SPACE
from ipidlab.trace import load_trace


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def analyze_rows(path):
    rows = read_csv(path)
    assert rows[0] == ANALYZE_HEADER
    return [
        {
            "method": m,
            "lambda_log2": float(e),
            "value": float(v),
            "std_err": None if se == "" else float(se),
        }
        for m, e, v, se in rows[1:]
    ]


# ---------------------------------------------------------------- analyze


def test_analyze_correctness_prng_pure_anchor(tmp_path):
    out = tmp_path / "c.csv"
    code = run(
        [
            "analyze",
            "--quantity",
            "correctness",
            "--methods",
            "prng-pure",
            "--lambda-log2",
            "5",
            "5.5",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = analyze_rows(out)
    assert len(rows) == 1
    assert rows[0]["value"] == pytest.approx(0.0077795, abs=1e-5)
    assert rows[0]["std_err"] is None


def test_analyze_security_per_connection_constant(tmp_path):
    out = tmp_path / "s.csv"
    code = run(
        [
            "analyze",
            "--quantity",
            "security-uniform",
            "--methods",
            "per-connection",
            "--lambda-log2",
            "-10",
            "10",
            "5",
            "--g",
            "10",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = analyze_rows(out)
    assert len(rows) == 5
    assert all(r["value"] == 10 / IPID_SPACE for r in rows)


def test_analyze_security_prng_constant_across_lambda(tmp_path):
    out = tmp_path / "s2.csv"
    assert (
        run(
            [
                "analyze",
                "--quantity",
                "security-uniform",
                "--methods",
                "prng-queue",
                "--lambda-log2",
                "-10",
                "10",
                "10",
                "--k",
                "8192",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    rows = analyze_rows(out)
    values = {r["value"] for r in rows}
    assert values == {1 / (IPID_SPACE - 8192)}


def test_analyze_security_worst_equals_uniform_for_r1(tmp_path):
    out_u = tmp_path / "u.csv"
    out_w = tmp_path / "w.csv"
    common = ["--methods", "global", "--lambda-log2", "0", "4", "2", "--g", "3"]
    assert run(["analyze", "--quantity", "security-uniform", *common, "--out", str(out_u)]) == 0
    assert run(["analyze", "--quantity", "security-worst", *common, "--out", str(out_w)]) == 0
    assert [r["value"] for r in analyze_rows(out_u)] == [
        r["value"] for r in analyze_rows(out_w)
    ]


def test_analyze_default_r_pairs_labeled(tmp_path):
    out = tmp_path / "d.csv"
    assert (
        run(
            [
                "analyze",
                "--quantity",
                "security-uniform",
                "--methods",
                "per-destination",
                "--lambda-log2",
                "0",
                "1",
                "1",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    labels = {r["method"] for r in analyze_rows(out)}
    assert labels == {"per-destination:r=4096", "per-destination:r=32768"}


def test_analyze_per_bucket_uniform_reports_std_err(tmp_path):
    out = tmp_path / "b.csv"
    assert (
        run(
            [
                "analyze",
                "--quantity",
                "security-uniform",
                "--methods",
                "per-bucket-exclusive",
                "--lambda-log2",
                "2",
                "3",
                "1",
                "--r",
                "2048",
                "--trials",
                "2000",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    rows = analyze_rows(out)
    assert all(r["std_err"] is not None for r in rows)
    assert all(0 <= r["value"] <= 1 for r in rows)


def test_analyze_one_lambda_grid(tmp_path):
    out = tmp_path / "one.csv"
    args = ["--methods", "global", "per-destination", "--lambda-log2", "4", "4", "1"]
    assert run(["analyze", "--quantity", "security-uniform", *args, "--out", str(out)]) == 0
    rows = analyze_rows(out)
    assert sorted(r["method"] for r in rows) == [
        "global",
        "per-destination:r=32768",
        "per-destination:r=4096",
    ]
    assert all(r["lambda_log2"] == 4.0 for r in rows)


def test_analyze_per_bucket_worst_reports_std_err(tmp_path):
    out = tmp_path / "w.csv"
    args = ["--methods", "per-bucket-exclusive", "--lambda-log2", "4", "4", "1"]
    args += ["--r", "2048", "--trials", "512"]
    assert run(["analyze", "--quantity", "security-worst", *args, "--out", str(out)]) == 0
    rows = analyze_rows(out)
    assert len(rows) == 1
    # the row is exact, so it carries a standard error of 0
    assert rows[0]["std_err"] == 0.0
    assert rows[0]["value"] == analytics.worst_case_lambda_i("per-bucket-exclusive", 16.0, 2048, 1, t=3)[1]


def test_analyze_per_bucket_security_is_exact_and_seed_free(tmp_path):
    args = ["--methods", "per-bucket-racy", "--lambda-log2", "-2", "6", "4", "--g", "2"]
    for quantity in ("security-uniform", "security-worst"):
        a, b = tmp_path / f"{quantity}-a.csv", tmp_path / f"{quantity}-b.csv"
        assert run(["analyze", "--quantity", quantity, *args, "--seed", "1", "--out", str(a)]) == 0
        assert run(["analyze", "--quantity", quantity, *args, "--seed", "9", "--trials", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert all(r["std_err"] == 0.0 for r in analyze_rows(a))
    rows = analyze_rows(tmp_path / "security-uniform-a.csv")
    assert rows[0]["value"] == analytics.guess_prob_bucket(0.25 / 2048, 2, t=3).probability


def test_analyze_evaluates_each_per_bucket_point_once_per_sweep(tmp_path, monkeypatch):
    rates, searches = [], []
    exact, worst = analytics._bucket_mass, analytics.worst_case_lambda_i
    monkeypatch.setattr(analytics, "_bucket_mass", lambda *a: rates.append(a[0]) or exact(*a))
    monkeypatch.setattr(analytics, "worst_case_lambda_i", lambda *a, **kw: searches.append(a) or worst(*a, **kw))
    both = ["--methods", "per-bucket-exclusive", "per-bucket-racy", "--out", str(tmp_path / "x.csv")]
    uniform = ["analyze", "--quantity", "security-uniform", "--lambda-log2", "-4", "12", "4", *both]
    # lambda_i = 2^e / 2^11 and 2^e / 2^18: ten distinct rates for 20 rows
    assert run(uniform) == 0
    assert len(rates) == len(set(rates)) == 10
    assert run(uniform) == 0  # no value outlives one sweep
    assert len(rates) == 20
    # one search per bucket count, shared by the two methods
    assert run(["analyze", "--quantity", "security-worst", "--lambda-log2", "4", "4", "1", *both]) == 0
    assert [(a[0], a[2]) for a in searches] == [("per-bucket-exclusive", 1 << 11), ("per-bucket-exclusive", 1 << 18)]


def test_default_security_worst_sweep_computes_each_bucket_rate_once(tmp_path, monkeypatch):
    rates = []
    exact = analytics._bucket_mass
    monkeypatch.setattr(analytics, "_bucket_mass", lambda *a: rates.append(a) or exact(*a))
    assert run(["analyze", "--quantity", "security-worst", "--out", str(tmp_path / "w.csv")]) == 0
    # 70 searches of 32 coarse points and about 10 golden-section steps each
    # share one memo, and the bound skips most coarse points
    assert len(rates) == len(set(rates)) < 250


def test_analyze_simulates_per_bucket_correctness_once_per_lambda(tmp_path, monkeypatch):
    rates = []
    simulate = montecarlo.collision_prob_bucket
    monkeypatch.setattr(montecarlo, "collision_prob_bucket", lambda lam, sim: rates.append(lam) or simulate(lam, sim))
    out = tmp_path / "c.csv"
    argv = ["analyze", "--quantity", "correctness", "--methods", "per-bucket-exclusive", "per-bucket-racy",
            "--lambda-log2", "-4", "12", "4", "--trials", "300", "--out", str(out)]
    assert run(argv) == 0
    assert rates == [2.0**e for e in (-4, 0, 4, 8, 12)]
    rows = analyze_rows(out)
    exclusive, racy = rows[:5], rows[5:]
    assert [(r["value"], r["std_err"]) for r in exclusive] == [(r["value"], r["std_err"]) for r in racy]
    assert run(argv) == 0  # no value outlives one sweep
    assert len(rates) == 10


def test_analyze_folds_each_counter_rate_once_per_sweep(tmp_path, monkeypatch):
    rates = []
    fold = analytics._counter_mass
    monkeypatch.setattr(analytics, "_counter_mass", lambda *a: rates.append(a[0]) or fold(*a))
    argv = ["analyze", "--quantity", "security-uniform", "--methods", "global", "per-destination",
            "--lambda-log2", "0", "15", "3", "--out", str(tmp_path / "u.csv")]
    # lambda_i = 2^e, 2^e / 2^12 and 2^e / 2^15: eleven distinct rates for 18 rows
    assert run(argv) == 0
    assert len(rates) == len(set(rates)) == 11
    assert len(analyze_rows(tmp_path / "u.csv")) == 18
    assert run(argv) == 0
    assert len(rates) == 22


@pytest.mark.parametrize("methods", list(itertools.permutations(["prng-queue", "prng-shuffle", "prng-pure"])))
def test_prng_correctness_rows_do_not_depend_on_the_method_order(tmp_path, methods):
    # each k's birthday table is built by whichever method reaches it first
    def rows_by_method(order, name):
        analytics._birthday_table.cache_clear()
        out = tmp_path / f"{name}.csv"
        assert run(["analyze", "--quantity", "correctness", "--methods", *order, "--out", str(out)]) == 0
        lines = out.read_bytes().splitlines()[1:]
        rows = {m: [line for line in lines if line.startswith(m.encode() + b",")] for m in order}
        assert [len(r) for r in rows.values()] == [len(lines) // 3] * 3
        return rows

    assert rows_by_method(methods, "order") == rows_by_method(sorted(methods), "sorted")


@pytest.mark.parametrize("quantity", ["security-uniform", "security-worst"])
def test_per_bucket_security_rows_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, quantity):
    argv = ["analyze", "--quantity", quantity, "--methods", "per-bucket-exclusive", "per-bucket-racy",
            "--lambda-log2", "-2", "16", "9", "--g", "2"]
    affinity, outputs = os.sched_getaffinity, []
    for cpus in ({0}, affinity(0), {0, 1, 2, 3}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        out = tmp_path / f"{len(cpus)}.csv"
        assert run([*argv, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[1:] == outputs[:1] * 2


@pytest.mark.parametrize("methods, error", [
    (["prng-pure", "per-bucket-exclusive"], "k must be in"),
    (["per-bucket-exclusive", "prng-pure"], "underflows"),
])
def test_analyze_reports_the_first_error_in_row_order(tmp_path, monkeypatch, capsys, methods, error):
    # prng-pure rejects --k 70000, and per-bucket rejects lambda_i = 2^-1074 at t = 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    argv = ["analyze", "--quantity", "security-uniform", "--methods", *methods, "--k", "70000",
            "--r", "1", "--lambda-log2", "-1074", "-1073", "1", "--out", str(tmp_path / "x.csv")]
    assert run(argv) == 2
    assert error in capsys.readouterr().err


def test_analyze_rejects_bad_grid(tmp_path, capsys):
    code = run(
        [
            "analyze",
            "--quantity",
            "correctness",
            "--lambda-log2",
            "5",
            "1",
            "1",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert code == 2
    assert "start" in capsys.readouterr().err


@pytest.mark.parametrize(
    "grid", [["0", "2000", "1"], ["-1100", "-1070", "1"], ["0", "inf", "1"], ["nan", "1", "1"]]
)
def test_analyze_rejects_rate_outside_float_range(tmp_path, capsys, grid):
    out = tmp_path / "x.csv"
    argv = ["analyze", "--quantity", "correctness", "--methods", "global"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run([*argv, "--lambda-log2", *grid, "--out", str(out)])
    assert code == 2
    assert "--lambda-log2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--t", "--trials"])
@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--quantity", "security-uniform", "--methods", "per-bucket-exclusive"],
        ["analyze", "--quantity", "security-worst", "--methods", "per-bucket-racy"],
        ["analyze", "--quantity", "correctness", "--methods", "global"],
        ["analyze", "--quantity", "correctness", "--methods", "per-bucket-exclusive"],
        ["simulate", "sum-dist", "--lambda-i", "1"],
        ["simulate", "bucket-collision", "--n", "10", "--lambda", "1"],
    ],
)
def test_nonpositive_t_and_trials_are_rejected_by_flag(tmp_path, capsys, argv, flag):
    out = tmp_path / "x.csv"
    grid = ["--lambda-log2", "0", "0", "1"] if argv[0] == "analyze" else []
    assert run([*argv, *grid, flag, "0", "--out", str(out)]) == 2
    assert f"error: {flag} must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------ bench


def test_bench_smoke(tmp_path):
    out = tmp_path / "bench.csv"
    code = run(
        [
            "bench",
            "--method",
            "global",
            "--cpus",
            "1",
            "--duration",
            "0.1",
            "--trials",
            "1",
            "--packets",
            "1000",
            "--flows",
            "16",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["method", "workers", "trial", "worker_id", "count", "mean_ns", "throughput"]
    assert float(rows[1][6]) > 0


def test_bench_rejects_zero_cpus(capsys):
    assert run(["bench", "--method", "global", "--cpus", "0"]) == 2
    assert "cpus" in capsys.readouterr().err


@pytest.mark.parametrize("duration", ["0", "nan", "inf"])
def test_bench_rejects_duration_not_positive_and_finite(capsys, duration):
    assert run(["bench", "--method", "global", "--cpus", "1", "--duration", duration]) == 2
    assert "--duration must be positive and finite" in capsys.readouterr().err


# --------------------------------------------------------------- simulate


def test_simulate_collision_single_packet(tmp_path):
    out = tmp_path / "sim.csv"
    code = run(
        [
            "simulate",
            "bucket-collision",
            "--n",
            "1",
            "--lambda",
            "2.0",
            "--trials",
            "500",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == ["n", "lambda", "trials", "probability", "std_err"]
    assert float(rows[1][3]) == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rate", [["--lambda", "1e-20"], ["--lambda", "1", "--t", "100000000000000000000"]])
def test_simulate_collision_with_gaps_past_int64_is_the_birthday_value(tmp_path, rate):
    # nearly every tick gap is past int64 here, so the increments are
    # uniform mod 2^16 and 1000 of them collide at the birthday value
    out = tmp_path / "sim.csv"
    assert run(["simulate", "bucket-collision", "--n", "1000", *rate, "--trials", "2000", "--out", str(out)]) == 0
    prob = float(read_csv(out)[1][3])
    birthday = analytics.conditional_collision_birthday(1000, 0)
    assert abs(prob - birthday) <= 4 * montecarlo.binomial_std_err(birthday, 2000)


def test_simulate_sumdist_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["simulate", "sum-dist", "--lambda-i", "256", "--trials", "5000", "--seed", "1"]
    assert run([*args, "--out", str(a)]) == 0
    assert run([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# -------------------------------------------------------- trace commands


def test_gen_trace_and_convert(tmp_path):
    bin_path = tmp_path / "trace.bin"
    csv_path = tmp_path / "trace.csv"
    assert (
        run(
            [
                "gen-trace",
                "--packets",
                "1000",
                "--flows",
                "1",
                "--seed",
                "3",
                "--out",
                str(bin_path),
            ]
        )
        == 0
    )
    trace = load_trace(bin_path)
    assert len(trace) == 1000
    assert len({r.flow for r in trace.records}) == 1

    assert run(["trace", "convert", "--in", str(bin_path), "--out", str(csv_path)]) == 0
    assert load_trace(csv_path) == trace


def test_gen_trace_deterministic(tmp_path):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    args = ["gen-trace", "--packets", "500", "--flows", "7", "--seed", "11"]
    assert run([*args, "--out", str(a)]) == 0
    assert run([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# -------------------------------------------------------------- recommend


def recommend_lines(capsys, args):
    code = run(["recommend", *args])
    captured = capsys.readouterr()
    return code, captured.out.strip().splitlines(), captured.err


def test_recommend_case_1(capsys):
    code, lines, _ = recommend_lines(capsys, ["--lambda", "0.25", "--lambda-n", "0.25"])
    assert code == 0
    assert lines[-1] == "RECOMMEND 1 prng-based merged-with-non-cb"


def test_recommend_bandwidth_form(capsys):
    code, lines, _ = recommend_lines(
        capsys, ["--bandwidth-bps", "1e9", "--cb-fraction", "0.99"]
    )
    assert code == 0
    # 1 Gbps -> lambda ~ 2^9.7 < 2^10 with lambda_n ~ 2^3.06 -> case 3
    assert lines[-1] == "RECOMMEND 3 per-bucket separate-per-connection"


def test_recommend_requires_one_input_form(capsys):
    code, _, _ = recommend_lines(capsys, [])
    assert code == 2
    code = run(
        [
            "recommend",
            "--lambda",
            "1.0",
            "--lambda-n",
            "0.5",
            "--bandwidth-bps",
            "1e6",
            "--cb-fraction",
            "0.5",
        ]
    )
    assert code == 2


def test_recommend_rejects_excess_lambda_n(capsys):
    code, _, err = recommend_lines(capsys, ["--lambda", "1.0", "--lambda-n", "2.0"])
    assert code == 2
    assert "exceed" in err


@pytest.mark.parametrize(
    "args, rate",
    [
        (["--lambda", "4", "--lambda-n", "nan"], "lambda_n"),
        (["--lambda", "inf", "--lambda-n", "1"], "lambda"),
    ],
)
def test_recommend_rejects_non_finite_rate(capsys, args, rate):
    code, lines, err = recommend_lines(capsys, args)
    assert code == 2
    assert lines == []
    assert err.startswith(f"error: {rate} must be finite")
