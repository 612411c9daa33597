"""exact_sum: math.fsum's bits from a few whole-array passes."""

import math
import struct
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgebounds import _kernel, build_table, psi_total, smoothed_sum_linear
from edgebounds._kernel import exact_sum


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
    # a rest below 2^-900 is not split again
    assert exact_sum(np.array([1.0, 2.0 ** -1000])) == 1.0
    assert calls == [4, 6, 2]


def test_exact_sum_needs_no_fallback_on_prime_sums(monkeypatch):
    tbl = build_table(10 ** 4)
    calls = _count_fallbacks(monkeypatch)
    psi_total(tbl, 10 ** 4)
    smoothed_sum_linear(tbl, 10 ** 4)
    assert calls == []
