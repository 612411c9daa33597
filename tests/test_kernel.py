"""exact_sum: math.fsum's bits from a few whole-array passes."""

import math
import struct
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgebounds import (
    WindowGrid,
    _kernel,
    audits,
    build_table,
    dirichlet_instance,
    enumerate_characters,
    psi_total,
    run_audit,
    smoothed_sum_linear,
)
from edgebounds._kernel import exact_sum
from edgebounds.audits import _instance_prime_sums


def _outcome(fn, values):
    """The float's bit pattern (signed zeros and nan apart), or the error type."""
    try:
        return struct.pack("<d", fn(values))
    except (OverflowError, ValueError) as e:
        return type(e)


def _assert_matches_fsum(values):
    arr = np.array(values, dtype=np.float64)
    assert _outcome(exact_sum, arr) == _outcome(math.fsum, arr.tolist()), values


def _count_fallbacks(monkeypatch):
    """Patch _kernel's math so each fsum over a list (the fallback) is counted."""
    calls = []

    def fsum(values):
        if isinstance(values, list):
            calls.append(len(values))
        return math.fsum(values)

    monkeypatch.setattr(_kernel, "math", types.SimpleNamespace(**{**vars(math), "fsum": fsum}))
    return calls


def _count_second_splits(monkeypatch):
    """Patch _kernel._second_split so the rows that reach it are counted."""
    rows = []
    second_split = _kernel._second_split

    def counted(terms, *args):
        rows.extend(terms.tolist())
        return second_split(terms, *args)

    monkeypatch.setattr(_kernel, "_second_split", counted)
    return rows


# mantissa in [-1, 1] times 2^e: from subnormals to 2^1000
_wide = st.builds(
    math.ldexp,
    st.floats(-1.0, 1.0, allow_nan=False),
    st.integers(-1100, 1000),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40))
def test_exact_sum_matches_fsum_any_finite(values):
    _assert_matches_fsum(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(_wide, max_size=60))
def test_exact_sum_matches_fsum_wide_exponents(values):
    _assert_matches_fsum(values)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=40),
    st.lists(st.integers(-4, 4), min_size=1, max_size=40),
    st.randoms(use_true_random=False),
)
def test_exact_sum_matches_fsum_heavy_cancellation(values, nudges, rnd):
    # each term with its negation a few ulps off, shuffled
    terms = list(values)
    for v, k in zip(values, nudges):
        w = -v
        for _ in range(abs(k)):
            w = math.nextafter(w, math.copysign(math.inf, k))
        terms.append(w)
    rnd.shuffle(terms)
    _assert_matches_fsum(terms)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1e-300, 1e300),
    st.sampled_from([1.0, -1.0]),
    st.sampled_from([0.0, 2.0 ** -60, -(2.0 ** -60)]),
)
def test_exact_sum_matches_fsum_at_ties(a, sign, nudge):
    # a + ulp(a)/2 sits exactly halfway; a third term moves it off or not
    half = math.ulp(a) / 2.0
    _assert_matches_fsum([a, sign * half, sign * half * nudge])
    _assert_matches_fsum([sign * half, a])


@pytest.mark.parametrize(
    "values",
    [
        [],
        [0.0],
        [-0.0],
        [-0.0, -0.0],
        [0.0, -0.0],
        [1.0, -1.0],
        [-1.0, 1.0, -0.0],
        [1.0, 2.0 ** -53, 2.0 ** -106],
        [1.0, 2.0 ** -53, -(2.0 ** -106)],
        [1.0, 2.0 ** -53],
        [5e-324, 5e-324, -5e-324],
        [1e308, 1e308],
        [1e308, 1e308, -1e308],
        [1e308, -1e308, 1e308],
        [-1e308, -1e308],
        [1e308, 1.0, -1e308],
        [math.inf, 1.0],
        [math.inf, -math.inf],
        [math.nan, 1.0],
    ],
)
def test_exact_sum_matches_fsum_edge_cases(values):
    _assert_matches_fsum(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([1e308, -1e308, 1.0, -1.0, 2.0 ** -1000]), max_size=8))
def test_exact_sum_overflow_matches_fsum(values):
    _assert_matches_fsum(values)


def test_exact_sum_falls_back_when_the_certificate_fails(monkeypatch):
    calls = _count_fallbacks(monkeypatch)
    # an exact tie that the two splits catch whole needs no fallback
    assert exact_sum(np.array([1.0, 2.0 ** -53])) == 1.0
    assert exact_sum(np.array([1.0, 2.0 ** -53, 2.0 ** -106])) == 1.0 + 2.0 ** -52
    assert calls == []
    # the same tie with a rest left over: the bracket around the rest
    # straddles the rounding point, so fsum decides
    assert exact_sum(np.array([1.0, 2.0 ** -53, 2.0 ** -200, -(2.0 ** -200)])) == 1.0
    assert calls == [4]
    # the rest sums to -2^-312 but rounds to +2^-260, across the tie: only
    # its error bound keeps the wrong neighbour out
    rest = [2.0 ** -200, -(2.0 ** -260 + 2.0 ** -312), -(2.0 ** -200), 2.0 ** -260]
    assert exact_sum(np.array([1.0, 2.0 ** -53] + rest)) == 1.0
    assert calls == [4, 6]
    # the first split's bound settles a rest far below the rounding point
    assert exact_sum(np.array([1.0, 2.0 ** -1000])) == 1.0
    assert calls == [4, 6]
    # s1 = 0 and the bracket straddles it, so the row is split again; a
    # rest below 2^-900 is not split again
    second = _count_second_splits(monkeypatch)
    assert exact_sum(np.array([1.0, -1.0, 2.0 ** -1000])) == 2.0 ** -1000
    assert calls == [4, 6, 3]
    assert second == [[1.0, -1.0, 2.0 ** -1000]]


@pytest.mark.parametrize("shape", [(), (2, 3, 4), (2, 3, 0), (1, 1, 1, 1)])
def test_exact_sum_refuses_arrays_not_one_or_two_dimensional(monkeypatch, shape):
    calls = _count_fallbacks(monkeypatch)
    with pytest.raises(ValueError, match="1-D or 2-D"):
        exact_sum(np.zeros(shape))
    assert calls == []


def test_exact_sum_needs_no_fallback_on_prime_sums(monkeypatch):
    tbl = build_table(10 ** 4)
    calls = _count_fallbacks(monkeypatch)
    psi_total(tbl, 10 ** 4)
    smoothed_sum_linear(tbl, 10 ** 4)
    assert calls == []


def test_window_prime_sums_settle_at_the_first_split(monkeypatch):
    # a perf guard without a clock: a row that takes the second split costs
    # two to three times one that does not, so the window sums must not need it
    grid = WindowGrid(1e4, 10 ** 4)
    calls = _count_fallbacks(monkeypatch)
    second = _count_second_splits(monkeypatch)
    chars = [c for q in range(3, 14) for c in enumerate_characters(q, primitive_only=True)]
    assert len(chars) == 37
    for chi in chars:
        _instance_prime_sums(dirichlet_instance(chi), grid)
    assert second == [] and calls == []


def test_window_sweep_shares_residues_and_local_blocks(monkeypatch):
    # a perf guard without a clock: the default sweep has 470 characters on
    # 36 moduli, so p^k mod q is taken once per modulus (it was 470 times)
    # and digamma runs once per (q, parity) block (it was 946 times)
    mods, digammas = [], []

    class CountedMod(np.ndarray):
        """The grid's p^k array, counting each remainder taken of it."""

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.remainder and inputs[0] is self:
                mods.append(inputs[1])
            return getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)

    flat_prime_powers, digamma = audits.flat_prime_powers, audits.digamma

    def counted_grid(grid):
        lp, pk, k = flat_prime_powers(grid)
        return lp, pk.view(CountedMod), k

    def counted_digamma(z):
        digammas.append(z)
        return digamma(z)

    monkeypatch.setattr(audits, "flat_prime_powers", counted_grid)
    monkeypatch.setattr(audits, "digamma", counted_digamma)
    recs = run_audit("window", q_max=50, x=1e5)
    assert len(recs) == 470 and all(r.verdict == "PASS" for r in recs)
    assert len(mods) == len(set(mods)) == 36
    assert len(digammas) <= 139


def _assert_rows_match_fsum(matrix):
    got = exact_sum(matrix)
    assert isinstance(got, np.ndarray) and got.shape == matrix.shape[:1]
    for row, value in zip(matrix, got.tolist()):
        assert struct.pack("<d", value) == struct.pack("<d", math.fsum(row.tolist())), row


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 16).flatmap(
        lambda n: st.lists(st.lists(_wide, min_size=n, max_size=n), min_size=1, max_size=6)
    )
)
def test_exact_sum_rows_match_fsum_per_row(rows):
    _assert_rows_match_fsum(np.array(rows, dtype=np.float64).reshape(len(rows), -1))


@pytest.mark.filterwarnings("error")  # the inf and nan rows are not split
def test_exact_sum_rows_mix_certified_and_fallback_rows(monkeypatch):
    matrix = np.array(
        [
            [1.5, -0.25, 3.0, 1e-3, 7.0],
            [1.0, math.inf, 2.0, 0.0, -5.0],
            [math.nan, 1.0, 2.0, 3.0, 4.0],
            [-0.0, -0.0, -0.0, -0.0, -0.0],
            [0.0, -0.0, -0.0, 0.0, -0.0],
            [2.0 ** -950, 2.0 ** -960, -(2.0 ** -970), 0.0, 2.0 ** -1000],
            # cancels to a sum the splits catch whole
            [1e16, 3.0, -1e16, 0.5, 0.25],
            # cancels to a sum left in the rest: the bracket around it decides
            [1e16, 1.0, -1e16, 2.0 ** -60, -1.0],
            [0.1, 0.2, 0.3, -0.6, 1e-17],
        ]
    )
    calls = _count_fallbacks(monkeypatch)
    _assert_rows_match_fsum(matrix)
    # inf, nan, both zero rows, the row below 2^-900 and the uncertified
    # cancelling row; the other three are certified
    assert calls == [5] * 6


@pytest.mark.filterwarnings("error")  # nan and inf tops are compared, never split
def test_exact_sum_rows_settle_at_each_stage(monkeypatch):
    first = [[1.5, -0.25, 3.0, 1e-3, 7.0], [1e3, 2.5e-3, -7.0, 1e-12, 3.25]]
    # cancellation leaves the sum in the low parts: the second split
    # certifies the first two rows, and fsum decides the other two
    second = [
        [1e16, 3.0, -1e16, 0.5, 0.25],
        [0.1, 0.2, 0.3, -0.6, 1e-17],
        [1e16, 1.0, -1e16, 2.0 ** -60, -1.0],
        [1.0, -1.0, 2.0 ** -1000, 0.0, -0.0],
    ]
    unsplit = [
        [1.0, math.inf, 2.0, 0.0, -5.0],
        [math.nan, 1.0, 2.0, 3.0, 4.0],
        [-0.0, -0.0, -0.0, -0.0, -0.0],
        [0.0, -0.0, -0.0, 0.0, -0.0],
        [2.0 ** -950, 2.0 ** -960, -(2.0 ** -970), 0.0, 2.0 ** -1000],
    ]
    rows = first + second + unsplit
    order = [6, 0, 2, 7, 3, 8, 1, 4, 9, 10, 5]  # the three stages interleaved
    matrix = np.array([rows[i] for i in order])
    calls = _count_fallbacks(monkeypatch)
    reached = _count_second_splits(monkeypatch)
    _assert_rows_match_fsum(matrix)
    assert reached == [rows[i] for i in order if rows[i] in second]
    assert calls == [5] * 7


def _near_a_rounding_point(rng, n, scale, offset):
    """n terms that cancel in pairs to F + ulp(F)/2 + offset (a tie, or near one)."""
    # exponents spread over 60 binades, so the low parts' float sum is inexact
    half = np.ldexp(rng.standard_normal((n - 3) // 2) * scale, rng.integers(-60, 1, (n - 3) // 2))
    f = float(rng.uniform(0.5, 1.0)) * 2.0 ** int(rng.integers(-20, 20))
    tail = [f, math.ulp(f) / 2.0, offset * math.ulp(f)]
    return rng.permutation(np.concatenate((half, -half, tail, np.zeros((n - 3) % 2))))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(3, 10 ** 5),
    st.integers(0, 2 ** 32 - 1),
    st.floats(1.0, 1e6),
    st.sampled_from([0.0, 2.0 ** -70, -(2.0 ** -70)]),
)
def test_exact_sum_long_rows_near_a_rounding_point(n, seed, scale, offset):
    # the first split's bracket has radius e = 2 n^2 u^2 sigma around a
    # centre within e/2 of the sum, and e/2 >= 9 u^2 sigma > 45 u^2 F is more
    # than |offset| ulp(F) <= 2^-122 F: the bracket holds the tie, so the
    # first split must refuse every row and only the later stages round it
    terms = _near_a_rounding_point(np.random.default_rng(seed), n, scale, offset)
    want = math.fsum(terms.tolist())
    with pytest.MonkeyPatch.context() as mp:
        reached = _count_second_splits(mp)
        got = exact_sum(terms)
        rows = exact_sum(np.stack((terms, terms[::-1])))
    assert struct.pack("<d", got) == struct.pack("<d", want)
    assert [struct.pack("<d", v) for v in rows.tolist()] == [struct.pack("<d", want)] * 2
    assert len(reached) == 3


def test_exact_sum_rows_agree_with_one_dimensional_calls():
    rng = np.random.default_rng(12)
    matrix = rng.standard_normal((7, 300)) * np.exp(rng.uniform(-30, 30, (7, 300)))
    assert exact_sum(matrix).tolist() == [exact_sum(row) for row in matrix]
    assert exact_sum(np.zeros((3, 0))).tolist() == [0.0, 0.0, 0.0]
    assert exact_sum(np.zeros((0, 4))).shape == (0,)
    assert type(exact_sum(matrix[0])) is float
