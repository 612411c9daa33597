"""Main bound evaluators: constants, both envelopes, threshold and comparisons."""

import math

import numpy as np
import pytest

from edgebounds import (
    DomainError,
    LFunctionInstance,
    analytic_conductor,
    constants,
    littlewood_reference,
    upper_bound,
)
from edgebounds.bounds import BoundConstants

FROZEN_CONSTANTS = {
    1: (3.516873328245897, 3.269530928956084, 14.084198026489197),
    2: (5.008692232654434, 5.333344401464023, 22.349326622131038),
    3: (6.861954107462445, 8.76438687753695, 36.08991299760013),
    4: (9.17517704224721, 14.581635880932112, 59.38674273846975),
}


def test_constants_frozen_table():
    for d, (k, j1, j2) in FROZEN_CONSTANTS.items():
        c = constants(d)
        assert c.K == pytest.approx(k, rel=1e-14)
        assert c.J1 == pytest.approx(j1, rel=1e-14)
        assert c.J2 == pytest.approx(j2, rel=1e-14)


def test_constants_series_form():
    # closed form minus floor equals the tail of the exponential series
    for d in range(1, 8):
        tail_k = math.fsum(
            0.31**k * d ** (k - 1) / math.factorial(k) for k in range(2, 60)
        )
        assert constants(d).K - 2.31 == pytest.approx(22.59 * tail_k, rel=1e-12)


def test_constants_monotone_in_degree():
    cs = [constants(d) for d in range(1, 11)]
    for a, b in zip(cs, cs[1:]):
        assert b.K > a.K and b.J1 > a.J1 and b.J2 > a.J2


def test_constants_floor_validation():
    with pytest.raises(DomainError):
        constants(0)
    with pytest.raises(DomainError):
        BoundConstants(d=1, K=2.0, J1=3.0, J2=10.0)


def test_report_frozen_values_at_threshold():
    r = upper_bound(1, 23.0)
    assert r.valid and r.d == 1 and r.logC == 23.0
    assert r.L == pytest.approx(math.log(23.0), rel=1e-15)
    assert r.x == pytest.approx(23.0**2 / 4.0, rel=1e-15)
    assert r.upper == pytest.approx(11.763399641775765, rel=1e-13)
    assert r.lower_reciprocal == pytest.approx(10.33519243755692, rel=1e-13)
    t = r.terms
    assert t["Y"] == pytest.approx(2.4423470353692043, rel=1e-14)
    assert t["upper"]["scale"] == pytest.approx(3.562144835980396, rel=1e-14)
    assert t["upper"]["k_term"] == pytest.approx(0.35998910856194716, rel=1e-13)
    assert t["lower"]["scale"] == pytest.approx(2.165524386521849, rel=1e-14)
    assert t["lower"]["j1_term"] == pytest.approx(0.33467100309741976, rel=1e-13)
    assert t["lower"]["j2_term"] == pytest.approx(1.4955869258934213, rel=1e-13)
    assert r.littlewood["upper"] == pytest.approx(11.169084529518422, rel=1e-13)
    assert r.littlewood["lower"] == pytest.approx(6.789989188392778, rel=1e-13)
    assert upper_bound(1, 23.0) == r


def test_littlewood_reference_frozen():
    up, lo = littlewood_reference(1, math.e)
    assert up == pytest.approx(2.0 * math.exp(0.5772156649015329), rel=1e-13)
    assert lo == pytest.approx(2.165524386521849, rel=1e-13)
    up, lo = littlewood_reference(1, 23.0)
    assert up == pytest.approx(11.169084529518422, rel=1e-13)
    assert lo == pytest.approx(6.789989188392778, rel=1e-13)


def test_validity_flag_and_domain():
    assert not upper_bound(1, 22.999999).valid
    assert upper_bound(1, 23.0).valid
    assert not upper_bound(2, 45.0).valid
    assert upper_bound(2, 46.0).valid
    with pytest.raises(DomainError):
        upper_bound(1, 1.0)
    with pytest.raises(DomainError):
        upper_bound(1, 0.5)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            upper_bound(1, bad)
        with pytest.raises(DomainError):
            littlewood_reference(1, bad)


def test_valid_reports_expose_x_at_least_132():
    for d in range(1, 7):
        r = upper_bound(d, 23.0 * d)
        assert r.valid
        assert r.x >= 132.0
        assert r.x == pytest.approx(132.25, rel=1e-12)
        assert r.L - math.log(2 * d) >= math.log(11.5) - 1e-12


def test_advisory_value_below_threshold():
    r = upper_bound(1, 5.0)
    assert not r.valid
    assert math.isfinite(r.upper) and r.upper > 0.0
    # Y = 0 makes the negative power blow up; reported as +inf, not an error
    assert upper_bound(1, 2.0).upper == math.inf


def test_upper_envelope_increasing_all_degrees():
    for d in range(1, 7):
        grid = np.linspace(23.0 * d, 23.0 * d + 400.0, 800)
        vals = [upper_bound(d, float(c)).upper for c in grid]
        assert all(a < b for a, b in zip(vals, vals[1:])), d


def test_lower_envelope_increasing_for_degree_two_and_up():
    for d in range(2, 7):
        grid = np.linspace(23.0 * d, 23.0 * d + 400.0, 800)
        vals = [upper_bound(d, float(c)).lower_reciprocal for c in grid]
        assert all(a < b for a, b in zip(vals, vals[1:])), d


def test_lower_envelope_degree_one_dips_then_recovers():
    # the J2 term decays just above the threshold, so the d=1 lower envelope
    # is NOT monotone there: it dips below its threshold value before rising
    f = lambda c: upper_bound(1, c).lower_reciprocal
    assert f(23.0) == pytest.approx(10.33519243755692, rel=1e-13)
    assert f(24.23256) == pytest.approx(10.334042569973237, rel=1e-12)
    assert f(24.23256) < f(23.0)
    grid = np.linspace(26.0, 500.0, 800)
    vals = [f(float(c)) for c in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_littlewood_comparison_degree_one_crossover():
    # the three-term polynomial beats the reference only once Y is large;
    # at the validity threshold the comparison genuinely fails for d=1
    r = upper_bound(1, 23.0)
    assert r.upper > r.littlewood["upper"]
    r = upper_bound(1, 200.0)
    assert r.upper <= r.littlewood["upper"]


def test_littlewood_comparison_higher_degrees():
    for d in (2, 3, 4):
        for c in np.geomspace(23.0 * d, 1e4, 50):
            r = upper_bound(d, float(c))
            assert r.upper <= r.littlewood["upper"] * (1.0 + 1e-12), (d, c)


def _shifted(inst, t):
    """The instance of L(s + it, f): each local parameter kappa_j + it."""
    return LFunctionInstance(inst.d, inst.q, tuple(k + 1j * t for k in inst.local_params))


def _bound_at_t(inst, t):
    return upper_bound(inst.d, math.log(analytic_conductor(_shifted(inst, t))))


def test_t_aspect_composition():
    # all-zero local parameters: C(t) = C(0) |1 + it|^d
    wide = LFunctionInstance(d=1, q=10**6, local_params=(0.0,), label="wide")
    assert analytic_conductor(_shifted(wide, 0.0)) == analytic_conductor(wide)
    base = _bound_at_t(wide, 0.0)
    assert base.logC == pytest.approx(math.log(10**6 / (2.0 * math.pi)), rel=1e-12)
    unit = LFunctionInstance(d=1, q=1, local_params=(0.0,), label="unit")
    t = math.sqrt((2.0 * math.pi * math.exp(23.0)) ** 2 - 1.0)
    shifted = _bound_at_t(unit, t)
    assert shifted.logC == pytest.approx(23.0, abs=1e-10)
    assert shifted.upper == pytest.approx(upper_bound(1, 23.0).upper, rel=1e-12)
    assert shifted.valid
    # degree 2: the conductor grows like t^2
    flat = LFunctionInstance(d=2, q=10**6, local_params=(0.0, 0.0))
    shift = _bound_at_t(flat, 1e8).logC - _bound_at_t(flat, 0.0).logC
    assert shift == pytest.approx(2.0 * math.log(1e8), rel=1e-15)


def test_t_aspect_nondecreasing_once_valid():
    unit = LFunctionInstance(d=1, q=1, local_params=(0.0,))
    t0 = math.sqrt((2.0 * math.pi * math.exp(23.0)) ** 2 - 1.0)
    ts = np.geomspace(t0, t0 * 1e6, 60)
    ups = [_bound_at_t(unit, float(t)).upper for t in ts]
    assert all(a <= b + 1e-12 for a, b in zip(ups, ups[1:]))


def test_t_aspect_shift_uses_the_local_parameters():
    # an odd character's conductor (kappa = 1) shifted by t = 1000 stays below
    # the threshold 23; the all-zero shift (1/2) log(1 + t^2) would pass it
    odd = LFunctionInstance(d=1, q=34097338, local_params=(1.0,))
    log_c0 = math.log(analytic_conductor(odd))
    assert log_c0 == pytest.approx(16.2, abs=1e-4)
    shifted = _bound_at_t(odd, 1000.0)
    assert shifted.logC == pytest.approx(22.4146, abs=1e-4)
    assert not shifted.valid
    zero_shape = upper_bound(1, log_c0 + 0.5 * math.log1p(1000.0**2))
    assert zero_shape.logC == pytest.approx(23.1078, abs=1e-4)
    assert zero_shape.valid
