"""Special-function layer: digamma variants, truncated series, margin helpers."""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from edgebounds import (
    DomainError,
    ResourceBudgetError,
    chandee_margin,
    digamma,
    digamma_rational,
    kappa_series_closed,
    kappa_series_direct,
    techlem2_bound_ratio,
    trivial_zero_tail,
)
from edgebounds import special
from edgebounds.audits import _KAPPA_GRID
from edgebounds.constants import EULER_GAMMA, PI, TWO_PI

mpmath.mp.dps = 30


def test_digamma_reference_points():
    gamma = float(mpmath.euler)
    assert digamma(1.0).value == pytest.approx(-gamma, abs=1e-14)
    assert digamma(0.5).value == pytest.approx(-gamma - 2.0 * math.log(2.0), abs=1e-14)
    assert digamma(2.0).value == pytest.approx(1.0 - gamma, abs=1e-14)


def test_digamma_matches_mpmath_on_grid():
    rng = np.random.default_rng(20240817)
    pts = [complex(re, im) for re, im in zip(rng.uniform(0.05, 40.0, 60), rng.uniform(-40.0, 40.0, 60))]
    pts += [0.25, 1.0, 2.0, 11.5, 0.5 + 30.0j, 3.0 - 4.0j]
    for z in pts:
        got = digamma(z)
        ref = complex(mpmath.digamma(z))
        assert abs(got.value - ref) <= max(1e-13, 5e-14 * abs(ref)) + got.abs_error


def test_digamma_recurrence():
    rng = np.random.default_rng(7)
    for _ in range(40):
        z = complex(rng.uniform(0.1, 20.0), rng.uniform(-20.0, 20.0))
        lhs = digamma(z + 1.0).value
        rhs = digamma(z).value + 1.0 / z
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("bad", [0.0, -0.5, -1.0 + 2.0j, math.nan, complex(-0.0, 3.0)])
def test_digamma_needs_positive_real_part(bad):
    with pytest.raises(DomainError, match="Re z > 0"):
        digamma(bad)


def test_digamma_rational_closed_form_matches_mpmath():
    for q in range(1, 13):
        row = digamma_rational(q)
        assert row.value.shape == (q - 1,)
        for a, got in enumerate(row.value.tolist(), start=1):
            ref = float(mpmath.digamma(mpmath.mpf(a) / q))
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
            # reported error bars stay honest
            assert abs(got - ref) <= row.abs_error + 1e-13 * max(1.0, abs(ref))


def _digamma_rational_terms(a, q, log_sin):
    """The closed form's terms one at a time, as scalar expressions."""
    terms = [-EULER_GAMMA, -math.log(2.0 * q)]
    if 2 * a != q:
        terms.append(-(PI / 2.0) / math.tan(PI * a / q))
    for n in range(1, (q - 1) // 2 + 1):
        c = math.cos(TWO_PI * ((n * a) % q) / q)
        terms.append(2.0 * c * log_sin[n])
    return terms


def test_digamma_rational_equals_scalar_terms():
    # even q covers the 2a = q entry, whose cotangent is left out
    for q in list(range(1, 301)) + [997, 1024]:
        log_sin = [None] + [math.log(math.sin(PI * n / q)) for n in range(1, (q - 1) // 2 + 1)]
        want = [math.fsum(_digamma_rational_terms(a, q, log_sin)) for a in range(1, q)]
        row = digamma_rational(q)
        assert not row.value.flags.writeable
        assert row.value.tolist() == want, q
        bounds = [min(1e-14, 4e-15 + 1.5e-17 * q) + 4e-16 * abs(w) for w in want]
        assert row.abs_error == max(bounds, default=0.0), q


@pytest.mark.parametrize(
    "q",
    [0, -3, 5.0, np.float64(5.0), "5", None, np.array([5])],
    ids=["zero", "negative", "float", "numpy_float", "str", "none", "array"],
)
def test_digamma_rational_rejects_bad_q(q):
    with pytest.raises(DomainError, match="integer q >= 1"):
        digamma_rational(q)


def test_digamma_rational_row_working_memory_is_bounded():
    # unblocked, the 4098 x 2052 terms of this row would take 67 MB
    q = 4099
    tracemalloc.start()
    try:
        row = digamma_rational(q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.value.shape == (q - 1,)
    assert peak < 4 * 2 ** 20


def test_digamma_rational_term_budget(monkeypatch):
    def no_tables(q):
        raise AssertionError("built the tables of q = %d" % (q,))

    monkeypatch.setattr(special, "_cos_log_sin", no_tables)
    # the rows of q = 20,011 and 10^20 are past the default budget: refused before any table
    for q in (20011, np.int64(20011), 10 ** 20):
        with pytest.raises(ResourceBudgetError, match="term budget"):
            digamma_rational(q)
    # the row a = 1..6 of q = 7 is 6 x (3 + 3) = 36 closed-form terms
    monkeypatch.setattr(special, "MAX_DIGAMMA_TERMS", 35)
    with pytest.raises(ResourceBudgetError, match="^6 digamma values at denominator 7 exceed"):
        digamma_rational(7)
    monkeypatch.undo()
    monkeypatch.setattr(special, "MAX_DIGAMMA_TERMS", 36)
    assert digamma_rational(7).value.shape == (6,)


def test_kappa_series_direct_frozen_values():
    assert kappa_series_direct(0.0).value == pytest.approx(0.38629436111989063, rel=1e-13)
    assert kappa_series_direct(1.0).value == pytest.approx(0.5, abs=1e-12)
    assert kappa_series_direct(50j).value == pytest.approx(0.6928473605119984, rel=1e-12)


def test_kappa_series_direct_tail_control():
    for kappa in (0.3, 2.0 + 1.0j, 10j):
        loose = kappa_series_direct(kappa, tail_tol=1e-6)
        tight = kappa_series_direct(kappa, tail_tol=1e-13)
        assert abs(loose.value - tight.value) <= loose.abs_error + 1e-13
        assert tight.abs_error < loose.abs_error


def _kappa_series_term_by_term(kappa, tail_tol):
    """The direct series as its terms: the head n < N as one array, then the
    Euler-Maclaurin tail integral, f(N)/2 and the B_2 correction."""
    a = complex(kappa) + 1.0
    big_n = math.ceil(4.0 * (abs(a) + 2.0))
    while (1.0 / 30.0) / big_n ** 4 > tail_tol:  # |B_4| / N^4 bounds the remainder
        big_n += 1
    if a.imag == 0.0:
        a = a.real
    n = np.arange(1, big_n, dtype=np.float64)
    head = np.real(a / ((a + 2.0 * n) * (a + n))).tolist()
    near, far = big_n + a / 2.0, big_n + a
    integral = cmath.log(far / near).real
    half_f = 0.5 * (a / ((a + 2.0 * big_n) * (a + big_n))).real
    b2_term = (1.0 / 12.0 * (1.0 / (near * near) - 1.0 / (far * far))).real
    return math.fsum(head + [integral, half_f, b2_term])


def test_kappa_series_direct_blocks_equal_one_array_sum():
    # kappa = 1 is the window's odd-character term at the default tail_tol
    assert kappa_series_direct(1.0).value == _kappa_series_term_by_term(1.0, 1e-12)
    # N from the tail_tol rule (kappa = 1 above, 0 here) and from the
    # 4(|a|+2) floor (2+1j, 50j)
    for kappa, tol in ((0.3, 1e-6), (2.0 + 1.0j, 1e-6), (0.0, 1e-15), (50j, 1e-10)):
        assert kappa_series_direct(kappa, tail_tol=tol).value == _kappa_series_term_by_term(
            kappa, tol
        )


def test_kappa_series_direct_within_abs_error_of_mpmath(monkeypatch):
    # an independent oracle: it works with digamma and its constants broken
    monkeypatch.setattr(special, "digamma", None)
    monkeypatch.setattr(special, "_ASYMP_COEFFS", ())
    for kappa in _KAPPA_GRID:
        k = mpmath.mpc(kappa.real, kappa.imag)
        ref = float(mpmath.re(mpmath.digamma(k + 2) - mpmath.digamma((k + 3) / 2)))
        for tol in (1e-6, 1e-10, 1e-13):
            got = kappa_series_direct(kappa, tail_tol=tol)
            assert abs(got.value - ref) <= got.abs_error, (kappa, tol)


def test_kappa_series_direct_working_memory_is_bounded():
    # one array per 2^22-term chunk used to peak near 70 MB at kappa = 1
    tracemalloc.start()
    try:
        kappa_series_direct(1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_kappa_series_direct_term_count_is_capped():
    # N = 4,272,870,064 from tail_tol and 4e12 from the 4(|a|+2) floor
    for kappa, tol in ((1.0, 1e-40), (1e12, 1e-12)):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceBudgetError):
                kappa_series_direct(kappa, tail_tol=tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, (kappa, tol)


@pytest.mark.parametrize(
    "kappa", [math.inf, complex(0.0, math.inf), math.nan, complex(0.0, math.nan)]
)
def test_kappa_series_direct_rejects_non_finite_kappa(kappa):
    with pytest.raises(DomainError):
        kappa_series_direct(kappa)


def test_kappa_series_direct_infinite_term_count_is_over_budget():
    # B_4/tail_tol and 4(|a|+2) overflow to inf here; math.ceil refuses inf
    for kappa, tol in ((0.0, 5e-324), (1e308, 1e-12), (complex(1e308, 1e308), 1e-12)):
        with pytest.raises(ResourceBudgetError):
            kappa_series_direct(kappa, tail_tol=tol)


def test_kappa_series_closed_frozen_values():
    assert kappa_series_closed(0.0) == pytest.approx(0.45434873911844775, rel=1e-13)
    assert kappa_series_closed(1.0) == pytest.approx(0.572131774774831, rel=1e-13)


def test_exp1_matches_mpmath_on_log_grid():
    # both sides of the series / continued-fraction switch at x = 1
    xs = np.geomspace(1e-4, 60.0, 401).tolist() + [1.0, math.nextafter(1.0, 2.0)]
    worst = max(
        abs(mpmath.mpf(special.exp1(x)) - mpmath.e1(x)) / mpmath.e1(x) for x in xs
    )
    assert worst <= 1e-14


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_exp1_domain(bad):
    with pytest.raises(DomainError):
        special.exp1(bad)


def test_trivial_zero_tail_frozen_values():
    frozen = {
        10.0: 0.00016716906159949148,
        100.0: 1.6667166690477582e-07,
        132.25: 7.205583527577413e-08,
        1e5: 1.666666666716667e-16,
    }
    for x, want in frozen.items():
        got = trivial_zero_tail(x)
        assert got.value == pytest.approx(want, rel=1e-12)
        assert 0.0 < got.abs_error < 1e-3 * got.value


def test_trivial_zero_tail_decreasing():
    xs = np.geomspace(10.0, 1e8, 40)
    vals = [trivial_zero_tail(float(x)).value for x in xs]
    assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))


def test_techlem2_bound_ratio_frozen_and_capped():
    assert techlem2_bound_ratio(1.0, 100.0) == pytest.approx(0.05904375527155822, rel=1e-12)
    assert techlem2_bound_ratio(0.5j, 1e4) == pytest.approx(0.15874688758470434, rel=1e-12)
    for re in (0.0, 0.5, 3.0):
        for im in (0.0, 1.0, 8.0):
            for x in (1.5, 100.0, 1e5):
                assert techlem2_bound_ratio(complex(re, im), x) <= 1.0 + 1e-12


def test_chandee_margin_frozen_worst_grid_point():
    assert chandee_margin(0.25 - 50.0j) == pytest.approx(1.6666583339652874e-05, rel=1e-10)
    assert chandee_margin(0.25) > 0.0
    assert chandee_margin(2.0 + 3.0j) > 0.0


def _scalar_margin(z):
    return math.log(abs(z)) - complex(digamma(z).value).real


def _assert_margins_bitwise(zs):
    zs = np.asarray(zs, dtype=np.complex128)
    got = chandee_margin(zs)
    want = np.array([_scalar_margin(z) for z in zs.ravel().tolist()]).reshape(zs.shape)
    assert got.shape == zs.shape and got.dtype == np.float64
    assert np.array_equal(got, want)


def test_chandee_margin_array_bitwise_on_audit_grid():
    res = np.linspace(0.25, 20.0, 200)
    ims = np.linspace(-50.0, 50.0, 200)
    _assert_margins_bitwise(res[:, None] + 1j * ims)


def _shift_moduli(z):
    """|w| at each test of digamma's shift loop, w = z, z + 1, ... until |w| >= 10."""
    w = complex(z)
    out = [abs(w)]
    while out[-1] < 10.0:
        w += 1.0
        out.append(abs(w))
    return out


def test_chandee_margin_array_bitwise_at_the_shift_boundary():
    # z + k lands a few ulps either side of |w| = 10 after k shifts
    zs = []
    for y in np.linspace(0.0, 9.75, 40).tolist():
        x = math.sqrt(100.0 - y * y)
        for k in range(int(x - 0.25) + 1):
            base = x - k
            for step in range(-3, 4):
                zs.append(complex(base + step * math.ulp(base), y))
                zs.append(complex(base + step * math.ulp(base), -y))
    zs += [6.0 + 8.0j, 1.0 + 8.0j, 1.0 + 0.0j, 10.0, math.nextafter(10.0, 0.0)]
    near = [m for z in zs for m in _shift_moduli(z) if abs(m - 10.0) < 1e-12]
    assert 10.0 in near
    assert any(m < 10.0 for m in near) and any(m > 10.0 for m in near)
    _assert_margins_bitwise(zs)


def test_chandee_margin_array_bitwise_edges_and_far_field():
    zs = [0.25, 0.25 + 1e-300j, 0.25 - 50.0j, 3.0, 19.5, 1e6, 0.25 + 1e6j, 0.25 - 1e6j,
          7e5 + 7e5j, 1e6 - 3.0j, 12345.678 + 0.5j]
    rng = np.random.default_rng(20261018)
    zs += (rng.uniform(0.25, 1e3, 2000) + 1j * rng.uniform(-1e3, 1e3, 2000)).tolist()
    zs += (rng.uniform(0.25, 5.0, 2000) + 1j * rng.uniform(-5.0, 5.0, 2000)).tolist()
    _assert_margins_bitwise(zs)
    _assert_margins_bitwise(np.reshape(zs[:24], (2, 3, 4)))
    assert chandee_margin(0.25 - 50.0j) == _scalar_margin(0.25 - 50.0j)
    assert isinstance(chandee_margin(2.0 + 3.0j), float)


def test_chandee_margin_array_bitwise_on_both_quotient_branches():
    # |Re w| == |Im w| for the shift steps (5+5i), w*w (20+20i) and 0.5/w;
    # a real w*w (Im 0) and an imaginary one (Re 0) each take one branch
    zs = [5.0 + 5.0j, 5.0 - 5.0j, 1.0 + 1.0j, 20.0 + 20.0j, 8.0 - 8.0j, 0.25 + 0.25j,
          0.5 + 9.0j, 9.0 + 0.5j, 15.0 + 0.0j, 0.25 + 12.0j, 12.0 + 12.0j]
    assert any(abs(z.real) >= abs(z.imag) for z in zs)
    assert any(abs(z.real) < abs(z.imag) for z in zs)
    _assert_margins_bitwise(zs)


@pytest.mark.parametrize(
    "bad", [0.2499999, -1.0 + 3.0j, math.nan, complex(1.0, math.nan), math.inf,
            complex(1.0, math.inf), complex(1.0, -math.inf)],
)
def test_chandee_margin_domain(bad):
    with pytest.raises(DomainError):
        chandee_margin(bad)
    with pytest.raises(DomainError):
        chandee_margin(np.array([2.0 + 1.0j, bad, 3.0], dtype=np.complex128))


def test_domain_rejections():
    with pytest.raises(DomainError):
        trivial_zero_tail(1.0)
    with pytest.raises(DomainError):
        digamma_rational(0)
