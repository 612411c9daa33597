"""End-to-end acceptance checks: constants, formulas, audits, oracles, CLI.

test_h_extremum_inside_printed_bracket checks the printed [0.19, 0.21]
bracket for the surface maximum against the closed-form maximum
4(2 - sqrt(3))/5 = 0.21435935... The lower end holds; the upper end is
exceeded by about 4.36e-3, while the hard cap 0.2143594 holds.
"""

import io
import json
import math
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout

import numpy as np
import pytest

import edgebounds
from edgebounds import (
    build_table,
    constants,
    enumerate_characters,
    l1_value,
    l1_value_series,
    littlewood_reference,
    run_audit,
    smoothed_sum_linear,
    smoothed_sum_log,
    upper_bound,
)
from edgebounds.cli import run


def test_constant_rounding_directions():
    c1, c2 = constants(1), constants(2)
    assert 3.5168 <= c1.K <= 3.5170
    assert c1.K / 4.0 <= 0.88
    assert c1.J1 / 4.0 <= 0.82
    assert c1.J2 <= 14.09
    assert c2.K / 2.0 <= 2.51
    assert c2.J1 / 2.0 <= 2.67
    assert 4.0 * c2.J2 <= 89.40


def test_degree_one_formula_specialization():
    c = constants(1)
    for logc in (23.0, 30.0, 100.0):
        y = math.log(logc) - math.log(2.0)
        rep = upper_bound(1, logc)
        scale_up = rep.terms["upper"]["scale"]
        want_up = scale_up * (y + 0.5 + (c.K / 4.0) / y)
        assert rep.upper == pytest.approx(want_up, rel=1e-12)
        scale_lo = rep.terms["lower"]["scale"]
        want_lo = scale_lo * (y + 0.5 + (c.J1 / 4.0) / y + c.J2 * y / logc)
        assert rep.lower_reciprocal == pytest.approx(want_lo, rel=1e-12)


def test_degree_two_corollary_domination():
    # expanded two-term quadratic with the rounded constants 2.51/2.67/89.40
    log4 = math.log(4.0)
    base_poly = lambda X: X * X - (2.0 * log4 - 1.0) * X + log4**2 - log4
    for logc in np.linspace(46.0, 1e4, 100):
        rep = upper_bound(2, float(logc))
        X = math.log(logc)
        Y = X - log4
        cor_up = rep.terms["upper"]["scale"] * (base_poly(X) + 2.51)
        cor_lo = rep.terms["lower"]["scale"] * (
            base_poly(X) + 2.67 + 89.40 * Y * Y / logc
        )
        assert rep.upper <= cor_up + 1e-9, logc
        assert rep.lower_reciprocal <= cor_lo + 1e-9, logc


def test_prime_sum_windows_within_budget():
    t0 = time.perf_counter()
    tbl = build_table(10**7)
    sieve_seconds = time.perf_counter() - t0
    assert sieve_seconds <= 10.0

    t0 = time.perf_counter()
    for x in (1e2, 1e3, 1e4, 1e6):
        pair = smoothed_sum_linear(tbl, x)
        assert pair["log_two_pi"].within_window(), x
    r100 = smoothed_sum_linear(tbl, 1e2)["two_pi"]
    assert not r100.within_window()
    assert abs(r100.residual) == pytest.approx(0.0456, abs=0.003)
    assert r100.window == pytest.approx(0.0046, abs=0.0003)

    log4 = smoothed_sum_log(tbl, 1e4)
    assert abs(log4["plus_gamma"].residual) <= 6e-6
    assert not log4["minus_gamma"].within_window()
    log6 = smoothed_sum_log(tbl, 1e6)
    assert log6["plus_gamma"].within_window()
    assert not log6["minus_gamma"].within_window()
    assert time.perf_counter() - t0 <= 60.0


def test_inequality_grid_margins():
    (trig,) = run_audit("trig")
    assert trig.lhs >= -1e-12
    for rec in run_audit("p2"):
        assert rec.lhs >= -1e-12, rec.params["x"]
    (chandee,) = run_audit("chandee")
    assert chandee.lhs >= -1e-12
    (tl2,) = run_audit("techlem2")
    assert tl2.lhs <= 1.0 + 1e-12


def test_h_extremum_below_hard_cap():
    (rec,) = run_audit("hmax")
    assert rec.lhs <= 0.2143594 + 1e-9


def test_h_extremum_inside_printed_bracket():
    # The printed bracket is checked against the closed-form maximum: on
    # sigma = 0, h = 6/(9+u) - 2/(4+u) with u = t^2 is stationary at
    # u = (5 sqrt(3) - 3)/2, where h = 4(2 - sqrt(3))/5. That witness alone
    # exceeds the 0.21 ceiling, so the audit's maximum must overshoot it by
    # exactly 4(2 - sqrt(3))/5 - 0.21 (about 4.36e-3); the lower end holds.
    h_star = 4.0 * (2.0 - math.sqrt(3.0)) / 5.0
    t_star = math.sqrt((5.0 * math.sqrt(3.0) - 3.0) / 2.0)
    witness = float(edgebounds.audits._h_surface(0.0, t_star))
    assert witness == pytest.approx(h_star, rel=1e-12)
    assert witness > 0.21
    (rec,) = run_audit("hmax")
    assert rec.lhs >= 0.19
    assert rec.lhs - 0.21 == pytest.approx(h_star - 0.21, rel=1e-9)


def test_logratio_minimum_at_origin():
    (rec,) = run_audit("logratio")
    assert rec.lhs == pytest.approx(math.log(2.0 / 3.0), abs=1e-9)
    assert abs(rec.params["sigma_star"]) + abs(rec.params["t_star"]) <= 1e-6


def test_identity_residual_documented_not_failing():
    (rec,) = run_audit("techlem1")
    assert rec.verdict == "REPORT"
    pts = {complex(p["kappa"]): p for p in rec.params["points"]}
    assert pts[0j]["residual"] == pytest.approx(7.0 / 6.0 - math.log(3.0), abs=1e-4)


def test_dirichlet_oracle_equivalence():
    t0 = time.perf_counter()
    chi4 = [c for c in enumerate_characters(4) if c.primitive][0]
    chi3 = [c for c in enumerate_characters(3) if c.primitive][0]
    assert abs(l1_value(chi4) - math.pi / 4.0) <= 1e-10
    assert abs(l1_value(chi3) - math.pi / (3.0 * math.sqrt(3.0))) <= 1e-10
    worst = 0.0
    for q in range(3, 201):
        for chi in enumerate_characters(q):
            if chi.is_principal or not chi.primitive:
                continue
            worst = max(worst, abs(l1_value(chi) - l1_value_series(chi)))
    assert worst <= 1e-8
    assert time.perf_counter() - t0 <= 60.0


def test_window_containment_full_sweep():
    recs = run_audit("window", q_max=50, x=1e5, sieve_limit=10**6)
    assert len(recs) == 470
    assert all(r.verdict == "PASS" for r in recs)


def test_cli_byte_identical_across_processes_and_threads():
    argv = ["audit", "--id", "trig"]

    def one(threads):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run(
            [sys.executable, "-m", "edgebounds"] + argv,
            capture_output=True, env=env,
        )
        assert out.returncode == 0
        return out.stdout

    a, b = one("1"), one("4")
    assert a == b

    buf1, buf2 = io.StringIO(), io.StringIO()
    with redirect_stdout(buf1):
        run(argv)
    with redirect_stdout(buf2):
        run(argv)
    assert buf1.getvalue() == buf2.getvalue()
    assert buf1.getvalue().encode() == a
    doc = json.loads(a)
    assert doc["schema"] == "edgebounds-report/1"


# raises that no other test reaches; match pins which check refuses
@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(
            lambda: edgebounds.a_terms_audit("upper", 1, 0, (-0.5 + 1j,), 1e4),
            "nonnegative real part", id="a_terms_negative_kappa",
        ),
        pytest.param(
            lambda: edgebounds.BoundConstants(d=0, K=3.6, J1=3.3, J2=14.1),
            "degree", id="bound_constants_d0",
        ),
        pytest.param(
            lambda: edgebounds.LFunctionInstance(d=1, q=0, local_params=(0.0,)),
            "conductor", id="instance_q0",
        ),
        pytest.param(lambda: edgebounds.hecke_instance(0, 1), "weight", id="hecke_weight0"),
        pytest.param(lambda: edgebounds.hecke_instance(12, 0), "level", id="hecke_level0"),
        pytest.param(
            lambda: edgebounds.SeriesValue(1.0, -1.0), "abs_error", id="series_value_negative"
        ),
        pytest.param(
            lambda: edgebounds.kappa_series_direct(-0.5), "Re kappa", id="kappa_direct_negative"
        ),
        pytest.param(
            lambda: edgebounds.kappa_series_direct(1.0, tail_tol=0.0), "tail_tol",
            id="kappa_direct_zero_tol",
        ),
        pytest.param(
            lambda: edgebounds.kappa_series_closed(-0.5), "Re kappa", id="kappa_closed_negative"
        ),
        pytest.param(
            lambda: edgebounds.techlem2_bound_ratio(1.0, 1.0), "x > 1", id="techlem2_x_at_1"
        ),
        pytest.param(
            lambda: edgebounds.techlem2_bound_ratio(-0.5, 2.0), "Re kappa",
            id="techlem2_negative_kappa",
        ),
    ],
)
def test_library_refusals_raise_domain_error(call, match):
    with pytest.raises(edgebounds.DomainError, match=match):
        call()
