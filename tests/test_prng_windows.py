"""The PRNG correctness rows: one exact sum per row, one Poisson window
per rate.

* ``analytics._exact_sum`` and its binned path ``_binned_sum`` return
  ``math.fsum``'s correctly rounded value, bit for bit, on any array of
  non-negative finite doubles up to 2^16 long, so a row's sum does not
  depend on the path or the order of its terms.
* A ``_PoissonWindow`` read from k + 1 has the bits of the window
  evaluated whole from k + 1, whichever starts were asked for before.
* A correctness sweep evaluates each rate's truncation window and each
  of its cells once, in any method order, and a new sweep starts afresh.
"""
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ipidlab import analytics as an
from ipidlab.cli import run
from ipidlab.constants import IPID_SPACE
from ipidlab.selectors import SELECTOR_CLASSES, ConfigError, SelectorConfig

SUMS = (an._exact_sum, an._binned_sum)  # the cut-over, and the binned path on every size


def sums_of(terms: np.ndarray) -> list:
    return [f(terms.copy()) for f in SUMS]  # _exact_sum sorts few terms in place


def sorted_fsum(terms: np.ndarray) -> float:
    """The sort + fsum that summed every window before the binned path."""
    terms = terms.copy()
    terms.sort()
    return math.fsum(terms[::-1].tolist())


# ------------------------------------------------------------- exact sum


@st.composite
def nonnegative_arrays(draw):
    """Up to 2^16 non-negative finite doubles: a bulk of random mantissas
    over a drawn exponent range (subnormals and zeros included), with
    drawn values (zero, subnormals, the edges) at drawn places."""
    size = draw(st.integers(1, IPID_SPACE))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.integers(-1100, 990))
    high = draw(st.integers(low, 1000))
    bulk = rng.random(size) * np.exp2(rng.integers(low, high + 1, size).astype(np.float64))
    bulk[rng.random(size) < draw(st.floats(0.0, 1.0))] = 0.0
    picked = draw(st.lists(st.floats(0.0, 2.0**1000, allow_subnormal=True), max_size=40))
    bulk[rng.integers(0, size, len(picked))] = picked
    return bulk


@settings(max_examples=200, deadline=None)
@given(nonnegative_arrays())
def test_exact_sum_equals_fsum(terms):
    assert sums_of(terms) == [math.fsum(terms.tolist())] * 2


def test_exact_sum_at_the_bincount_bound():
    # 2^16 terms at the top of one block: the block sums are at their largest
    terms = np.full(IPID_SPACE, np.nextafter(1.0, 0.0))
    assert sums_of(terms) == [math.fsum(terms.tolist())] * 2 == [math.ldexp(terms[0], 16)] * 2


@pytest.mark.parametrize("e", range(-40, 1))
def test_exact_sum_of_largest_mantissas_at_every_offset(e):
    # every offset in a block of any width up to 32, at 2^16 terms
    terms = np.full(IPID_SPACE, math.ldexp(np.nextafter(1.0, 0.0), e))
    assert sums_of(terms) == [math.ldexp(terms[0], 16)] * 2


def units(x: float) -> int:
    """x as an exact integer multiple of 2^-1074."""
    num, den = x.as_integer_ratio()
    return num << (1075 - den.bit_length())


def completed_to_ties(probe: np.ndarray) -> list:
    """``probe`` and up to a few doubles more whose exact sum is the
    rounding tie 1 + 2^-53 (even below) or 1 + 3 2^-53 (even above): a sum
    that is off by one unit of 2^-1074, either way, rounds the other way
    at one of them."""
    total = sum(map(units, probe.tolist()))
    completed = []
    for tie in (units(1.0) + units(2.0**-53), units(1.0) + 3 * units(2.0**-53)):
        rest, parts = tie - total, []
        while rest:
            part = rest / (1 << 1074)
            if units(part) > rest:
                part = math.nextafter(part, 0.0)
            parts.append(part)
            rest -= units(part)
        completed.append(np.concatenate([probe, parts]))
    return completed


def large_mantissas(span: int, size: int) -> np.ndarray:
    """Mantissas within 2^-20 of 1 at exponents -span..0: block sums near
    their bound, with low bits that any rounding would drop."""
    rng = np.random.default_rng(span)
    mantissas = 1.0 - rng.random(size) * 2.0**-20
    return mantissas * np.exp2(rng.integers(-span, 1, size).astype(np.float64))


@pytest.mark.parametrize("span", [1, 8, 24, 64])
def test_exact_sum_of_2_16_large_mantissas_over_a_few_blocks(span):
    terms = large_mantissas(span, IPID_SPACE)
    assert sums_of(terms) == [math.fsum(terms.tolist())] * 2


@pytest.mark.parametrize("span", [1, 8, 24, 64, 1054])
def test_exact_sum_rounds_ties_of_2_16_terms(span):
    # the probe is far below 1, so only an exact sum lands on the ties
    probe = large_mantissas(span, IPID_SPACE - 8) * 2.0**-20
    low, high = completed_to_ties(probe)
    assert sums_of(low) == [1.0] * 2 == [math.fsum(low.tolist())] * 2
    assert sums_of(high) == [1.0 + 2.0**-51] * 2 == [math.fsum(high.tolist())] * 2


def test_exact_sum_of_the_smallest_subnormal():
    assert sums_of(np.array([5e-324])) == [5e-324] * 2
    assert sums_of(np.array([5e-324, 0.0, 5e-324])) == [1e-323] * 2


# ------------------------------------------------------- PRNG windows

WINDOW_KS = (0, 1, 100, 8192, 32768, 65534)
FINE_RATES = [2.0 ** (q / 16) for q in range(-14 * 16, 17 * 16 + 1)]


def mixture_terms(window: "an._PoissonWindow", k: int) -> np.ndarray:
    lo, pmf = window.cells_from(k + 1)
    below_one = an._birthday_table(k)[lo - k - 1:lo - k - 1 + pmf.size]
    terms = pmf.copy()
    terms[:below_one.size] *= below_one
    return terms


def test_every_prng_window_sums_as_the_sorted_fsum():
    for lam in FINE_RATES:
        window = an._PoissonWindow(lam)
        for k in WINDOW_KS:
            terms = mixture_terms(window, k)
            assert sums_of(terms) == [sorted_fsum(terms)] * 2, (lam, k)


@pytest.mark.parametrize("order", [WINDOW_KS, WINDOW_KS[::-1]])
def test_a_shared_window_is_the_window_evaluated_from_k_plus_1(order):
    for lam in FINE_RATES[::4]:
        shared = an._PoissonWindow(lam)
        for k in order:
            lo, got = shared.cells_from(k + 1)
            fresh_lo, want = an._PoissonWindow(lam).cells_from(k + 1)
            assert (lo, got.tobytes()) == (fresh_lo, want.tobytes()), (lam, k)


@pytest.mark.parametrize("cut_over", [0, IPID_SPACE + 1])
def test_shared_rows_equal_rows_alone_on_either_sum_path(monkeypatch, cut_over):
    monkeypatch.setattr(an, "_BINNED_SUM_MIN_TERMS", cut_over)
    windows = {}
    for lam in FINE_RATES[::2]:
        for k in WINDOW_KS[::-1]:
            assert an.collision_prob_prng(lam, k, windows) == an.collision_prob_prng(lam, k), (lam, k)


# ------------------------------------------- one window per rate per sweep

PRNG = ("prng-queue", "prng-shuffle", "prng-pure")


def spy_windows(monkeypatch) -> tuple[Counter, dict]:
    """Count ``truncation_bound`` calls per rate and collect the cells each
    ``_log_pmf`` call of ``analytics`` evaluates, per rate."""
    bounds, cells = Counter(), {}
    truncation_bound, log_pmf = an.truncation_bound, an._log_pmf

    def bound_spy(lam):
        bounds[lam] += 1
        return truncation_bound(lam)

    def log_pmf_spy(n, lam):
        cells.setdefault(lam, []).append(np.asarray(n).copy())
        return log_pmf(n, lam)

    monkeypatch.setattr(an, "truncation_bound", bound_spy)
    monkeypatch.setattr(an, "_log_pmf", log_pmf_spy)
    return bounds, cells


def correctness(tmp_path, *args) -> bytes:
    out = tmp_path / "out.csv"
    assert run(["analyze", "--quantity", "correctness", *args, "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("methods", [PRNG, PRNG[::-1]])
def test_a_sweep_evaluates_each_rate_once(monkeypatch, tmp_path, methods):
    bounds, cells = spy_windows(monkeypatch)
    grid = ["--lambda-log2", "-14", "17", "0.5"]
    correctness(tmp_path, "--methods", *methods, *grid)
    rates = [2.0**e for e in np.arange(-14.0, 17.25, 0.5)]
    assert bounds == Counter(rates)
    for lam, calls in cells.items():
        evaluated = np.concatenate(calls)
        assert np.unique(evaluated).size == evaluated.size, lam  # no cell twice
    if methods[0] == "prng-pure":  # the lowest start comes first: one call a rate
        assert all(len(calls) == 1 for calls in cells.values())
    # a new sweep in the same process keeps nothing from the last one
    first = (Counter(bounds), {lam: len(calls) for lam, calls in cells.items()})
    bounds.clear()
    cells.clear()
    correctness(tmp_path, "--methods", *methods, *grid)
    assert (bounds, {lam: len(calls) for lam, calls in cells.items()}) == first


def test_a_prng_shuffle_sweep_evaluates_no_cell_at_or_below_its_window(monkeypatch, tmp_path):
    _, cells = spy_windows(monkeypatch)
    correctness(tmp_path, "--methods", "prng-shuffle")
    assert cells and min(float(n.min()) for calls in cells.values() for n in calls) > 2**15


def test_shared_windows_give_the_rows_of_single_method_sweeps(tmp_path):
    grid = ["--lambda-log2", "-2", "17", "0.75"]  # each method at its own k
    together = correctness(tmp_path, "--methods", *PRNG[::-1], *grid).decode().splitlines()
    alone = [correctness(tmp_path, "--methods", m, *grid).decode().splitlines() for m in PRNG[::-1]]
    assert together == [alone[0][0], *(row for rows in alone for row in rows[1:])]


# ---------------------------------------------------- selectors built directly


@pytest.mark.parametrize("method", PRNG)
def test_a_prng_selector_built_from_its_class_checks_its_config(method):
    # prng-queue would spin forever once its FIFO of 2^16 - 1 values filled;
    # the selector is only built, never drawn from
    k = IPID_SPACE - 1 if method == "prng-queue" else IPID_SPACE
    with pytest.raises(ConfigError, match="^k: "):
        SELECTOR_CLASSES[method](SelectorConfig(method=method, k=k, avoid_zero=True), None, None)
