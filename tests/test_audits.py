"""Numerical audits: grids, extrema, identity residuals, lemma windows."""

import math

import mpmath
import numpy as np
import pytest

from edgebounds import (
    DomainError,
    LFunctionInstance,
    WindowGrid,
    chandee_margin,
    dirichlet_instance,
    enumerate_characters,
    explicit_formula_window,
    extremum_h,
    extremum_logratio,
    hecke_instance,
    identity_residual_techlem1,
    l1_value,
    run_audit,
    verify_chandee_grid,
    verify_p2_positivity,
)
from edgebounds import _kernel, audits
from edgebounds.audits import (
    AUDIT_IDS,
    AuditRecord,
    Interval,
    _KAPPA_GRID,
    _instance_prime_sums,
    _kappa_term,
    _window_parts,
)
from edgebounds.constants import B_ZERO_SUM, LOG_2
from edgebounds.primes import prime_power_grid


def test_audit_id_registry():
    assert AUDIT_IDS == (
        "trig", "p2", "hmax", "logratio", "techlem1", "techlem2",
        "chandee", "bconst", "lemma24", "lemma26", "aterms", "window",
    )
    with pytest.raises(DomainError):
        run_audit("nonesuch")


def test_interval_basics():
    iv = Interval(1.0, 2.0)
    assert iv.width() == 1.0
    assert iv.contains(1.5) and not iv.contains(2.5)
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)


def test_audit_record_verdict_validation():
    with pytest.raises(DomainError):
        AuditRecord(
            id="x", params={}, lhs=0.0, rhs=0.0, window=0.0,
            residual=0.0, verdict="MAYBE",
        )


def test_trig_grid_exact_zero_margin():
    (rec,) = run_audit("trig")
    assert rec.verdict == "PASS"
    assert rec.lhs == 0.0 and rec.residual == 0.0
    assert rec.params["worst_k"] == 1
    assert rec.params["min_slack_k_ge_2"] == 1.0


def test_p2_grid_zero_margin_at_full_weight():
    recs = run_audit("p2")
    assert [r.params["x"] for r in recs] == [100.5, 132.25, 1009.3]
    for rec in recs:
        assert rec.verdict == "PASS"
        assert rec.lhs == 0.0
        assert rec.params["argmin_r"] == 1.0 and rec.params["argmin_theta"] == 0.0
    assert [r.params["k_cut"] for r in recs] == [6, 7, 9]


def _one_expression_trig_margins(theta_steps):
    """Reference: each k's margin as one expression, 1 - r cos t made afresh per k."""
    r, th, cos_th = audits._r_theta_grid(theta_steps)
    return [
        k * k * (1.0 - r * cos_th) - (1.0 - r ** k * np.cos(k * th))
        for k in range(1, audits._TRIG_K_MAX + 1)
    ]


def _one_expression_p2_grid(x, theta_steps):
    """Reference: the p = 2 block with each term one expression and a signed weight."""
    kk = int(x).bit_length() - 1
    w = [1.0 / (2.0 ** k * k * LOG_2) - 1.0 / (x * math.log(x)) for k in range(1, kk + 1)]
    r, th, cos_th = audits._r_theta_grid(theta_steps)
    obj = np.zeros((audits._R_STEPS, theta_steps))
    for k in range(1, min(5, kk) + 1):
        sgn = 1.0 if k % 2 == 1 else -1.0
        obj += sgn * (1.0 - r ** k * np.cos(k * th)) * w[k - 1]
    for k in range(6, kk + 1):
        if k % 2 == 0:
            obj -= k * k * (1.0 - r * cos_th) * w[k - 1]
    obj *= LOG_2
    return obj


@pytest.mark.parametrize("theta_steps", [8, 64, 512, 1000])
def test_trig_and_p2_buffers_equal_one_expression_grids(theta_steps):
    # whole grids, byte for byte: each k's trig margin, and the p = 2 block
    # at k_cut 6, 7, 9 and 18, so with one to seven even k >= 6
    grid = audits._r_theta_grid(theta_steps)
    got = [(k, m.copy()) for k, m in audits._trig_margins(*grid)]
    want = _one_expression_trig_margins(theta_steps)
    assert [k for k, _m in got] == list(range(1, audits._TRIG_K_MAX + 1))
    for (k, m), ref in zip(got, want):
        assert m.tobytes() == ref.tobytes(), k
    for x in (100.5, 132.25, 1009.3, 500000.5):
        xf, kk, _r, _th, obj = audits._p2_grid(x, theta_steps)
        assert (xf, kk) == (x, int(x).bit_length() - 1)
        ref = _one_expression_p2_grid(x, theta_steps)
        assert obj.shape == ref.shape and obj.tobytes() == ref.tobytes(), x


def test_p2_domain_rejections():
    with pytest.raises(DomainError):
        verify_p2_positivity(99.0)
    with pytest.raises(DomainError):
        verify_p2_positivity(1024.0)  # integral prime power not allowed
    with pytest.raises(DomainError):
        verify_p2_positivity(1009.0)  # a prime is a prime power
    assert verify_p2_positivity(1000.0, theta_steps=8).verdict == "PASS"


def test_h_extremum_frozen_report():
    (rec,) = run_audit("hmax")
    assert rec.verdict == "REPORT"
    assert rec.lhs == pytest.approx(0.2143593539448983, rel=1e-12)
    # analytic maximum 4(2-sqrt(3))/5 at t^2 = (5 sqrt(3) - 3)/2, sigma = 0
    assert rec.lhs == pytest.approx(4.0 * (2.0 - math.sqrt(3.0)) / 5.0, rel=1e-10)
    assert rec.params["sigma_star"] <= 1e-9
    assert rec.params["t_star"] ** 2 == pytest.approx(
        (5.0 * math.sqrt(3.0) - 3.0) / 2.0, rel=1e-7
    )
    assert rec.params["grid_max"] == pytest.approx(0.2143584375270094, rel=1e-9)
    assert rec.params["boundary_abs_max"] < 1e-5
    assert rec.lhs <= 0.2143594 + 1e-9


def test_logratio_extremum_frozen():
    (rec,) = run_audit("logratio")
    assert rec.verdict == "PASS"
    assert rec.lhs == pytest.approx(math.log(2.0 / 3.0), abs=1e-9)
    assert abs(rec.params["sigma_star"]) + abs(rec.params["t_star"]) <= 1e-6


def test_identity_residual_frozen_points():
    (rec,) = run_audit("techlem1")
    assert rec.verdict == "REPORT"
    assert rec.lhs == pytest.approx(0.08381590701201852, rel=1e-10)
    pts = {complex(p["kappa"]): p for p in rec.params["points"]}
    assert pts[0j]["residual"] == pytest.approx(7.0 / 6.0 - math.log(3.0), abs=1e-4)
    assert pts[0j]["residual"] == pytest.approx(0.06805437799855707, rel=1e-10)
    assert pts[1 + 0j]["residual"] == pytest.approx(0.07213177477483113, rel=1e-10)
    assert pts[50j]["residual"] == pytest.approx(0.0008950819224291529, rel=1e-9)
    # the direct series agrees with its digamma form; the closed form is off
    for p in rec.params["points"]:
        assert abs(p["direct_minus_digamma"]) <= 2e-15
        assert p["direct_minus_digamma"] == p["direct"] - p["digamma"]


def test_kappa_term_via_digamma_matches_mpmath():
    for kappa in _KAPPA_GRID:
        k = mpmath.mpc(kappa.real, kappa.imag)
        ref = float(mpmath.re(mpmath.digamma(k + 2) - mpmath.digamma((k + 3) / 2)))
        assert abs(_kappa_term(kappa) - ref) <= 1e-15, kappa
    # the only nonzero parameter a Dirichlet window meets: the bits the
    # direct series gave there, so every window document is unchanged
    assert _kappa_term(1 + 0j) == 0.49999999999999994


def test_techlem2_grid_frozen():
    (rec,) = run_audit("techlem2")
    assert rec.verdict == "PASS"
    assert rec.lhs == pytest.approx(0.48609046130040606, rel=1e-11)
    assert rec.lhs <= 1.0 + 1e-12
    assert rec.params["worst_x"] == pytest.approx(1.01)
    assert rec.params["worst_kappa_re"] == 0.0


def test_chandee_grid_frozen():
    (rec,) = run_audit("chandee")
    assert rec.verdict == "PASS"
    assert rec.lhs == pytest.approx(1.6666583339652874e-05, rel=1e-10)
    assert rec.params["argmin_re"] == 0.25 and rec.params["argmin_im"] == -50.0


@pytest.mark.parametrize("shape", [(1, 1), (7, 13), (3, 5000), (45, 11)])
def test_chandee_grid_blocks_match_point_loop(monkeypatch, shape):
    # the first strict minimum in row-major order, as a loop over the points keeps
    res = np.linspace(0.25, 20.0, shape[0])
    ims = np.linspace(-50.0, 50.0, shape[1])
    worst, arg = math.inf, None
    for a in res.tolist():
        for b in ims.tolist():
            m = chandee_margin(complex(a, b))
            if m < worst:
                worst, arg = m, (a, b)
    monkeypatch.setattr(audits, "_CHANDEE_STEPS", shape)
    rec = verify_chandee_grid()
    assert rec.lhs == worst and (rec.params["argmin_re"], rec.params["argmin_im"]) == arg


def test_chandee_grid_keeps_first_minimum_across_blocks(monkeypatch):
    # every row with Re z > 5 ties at the minimum; blocks of 20 rows put the
    # first of them (row 48) in the third block, and later blocks must not win
    monkeypatch.setattr(audits, "chandee_margin", lambda z: np.where(z.real > 5.0, -1.0, 0.0))
    rec = verify_chandee_grid()
    res = np.linspace(0.25, 20.0, 200)
    assert rec.lhs == -1.0
    assert rec.params["argmin_re"] == res[res > 5.0][0] and rec.params["argmin_im"] == -50.0


def test_b_constant_audit():
    (rec,) = run_audit("bconst")
    assert rec.verdict == "PASS"
    want = 0.5 * math.log(4.0 * math.pi) - 1.0 - 0.5 * float(mpmath.euler)
    assert B_ZERO_SUM == pytest.approx(want, rel=1e-14)
    # an independent oracle: B = -xi'(1)/xi(1), with the completed zeta
    # xi(s) = s(s-1)/2 pi^(-s/2) Gamma(s/2) zeta(s), whose log-derivative at 1 is +0.0231
    with mpmath.workdps(30):
        log_xi = lambda s: mpmath.log(
            s * (s - 1) / 2 * mpmath.pi ** (-s / 2) * mpmath.gamma(s / 2) * mpmath.zeta(s)
        )
        log_xi_prime = mpmath.diff(log_xi, 1)
    assert B_ZERO_SUM == pytest.approx(-float(log_xi_prime), rel=1e-14)
    assert rec.lhs == pytest.approx(-0.023095708966121065, rel=1e-13)
    assert rec.params["negative"] is True
    assert rec.params["two_abs_B"] == pytest.approx(0.04619141793224213, rel=1e-13)


def test_lemma24_verdict_pattern():
    recs = run_audit("lemma24", sieve_limit=10**6)
    key = [(r.params["x"], r.params["variant"], r.verdict) for r in recs]
    assert key == [
        (100.0, "two_pi", "FAIL"),
        (100.0, "log_two_pi", "PASS"),
        (1000.0, "two_pi", "FAIL"),
        (1000.0, "log_two_pi", "PASS"),
        (10000.0, "two_pi", "PASS"),
        (10000.0, "log_two_pi", "PASS"),
        (1000000.0, "two_pi", "PASS"),
        (1000000.0, "log_two_pi", "PASS"),
    ]
    first = recs[0]
    assert first.lhs == pytest.approx(3.0451713875819264, rel=1e-13)
    assert first.residual == pytest.approx(-0.045614819904761905, rel=1e-12)
    assert first.window == pytest.approx(0.004619141793224213, rel=1e-13)


def test_lemma26_verdict_pattern():
    recs = run_audit("lemma26", sieve_limit=10**6)
    key = [(r.params["x"], r.params["variant"], r.verdict) for r in recs]
    assert key == [
        (10000.0, "minus_gamma", "FAIL"),
        (10000.0, "plus_gamma", "PASS"),
        (1000000.0, "minus_gamma", "FAIL"),
        (1000000.0, "plus_gamma", "PASS"),
    ]
    plus4 = recs[1]
    assert plus4.residual == pytest.approx(-2.4170891532726557e-07, rel=1e-9)
    assert plus4.window == pytest.approx(5.445151081162462e-06, rel=1e-12)
    # the failing sign variant misses by about 2 log gamma-ish units, not noise
    assert recs[0].residual == pytest.approx(1.1544310880941502, rel=1e-12)


def test_a_terms_frozen_examples():
    upper, lower = run_audit("aterms")
    assert upper.verdict == "PASS" and lower.verdict == "PASS"
    assert upper.params["side"] == "upper" and upper.params["x"] == 132.25
    assert upper.lhs == pytest.approx(-0.005926066815544042, rel=1e-12)
    assert upper.rhs == 0.0128
    assert lower.params["side"] == "lower" and lower.params["d"] == 2
    assert lower.lhs == pytest.approx(-2.677099582436458e-05, rel=1e-11)
    assert lower.rhs == pytest.approx(-0.00041832466074890316, rel=1e-12)
    assert lower.lhs >= lower.rhs


def test_a_terms_validation():
    from edgebounds import a_terms_audit

    with pytest.raises(DomainError):
        a_terms_audit("sideways", 1, 1, (), 1e4)
    with pytest.raises(DomainError):
        a_terms_audit("upper", 1, 2, (), 1e4)
    with pytest.raises(DomainError):
        a_terms_audit("upper", 2, 0, (0.5,), 1e4)  # needs d - l entries
    with pytest.raises(DomainError):
        a_terms_audit("upper", 2, 0, (0.0, 1.0), 1e4)  # zero parameter listed
    with pytest.raises(DomainError):
        a_terms_audit("upper", 1, 1, (), 100.0)  # below the x floor


def test_window_records_frozen_small_moduli():
    recs = run_audit("window", q_max=8, x=1e5, sieve_limit=10**6)
    assert len(recs) == 12
    assert all(r.verdict == "PASS" for r in recs)
    by_key = {(r.params["q"], r.params["char_index"]): r for r in recs}
    r3 = by_key[(3, 1)]
    assert r3.lhs == pytest.approx(-0.5031885471527644, rel=1e-13)
    assert r3.params["lo"] == pytest.approx(-0.5032292607898121, rel=1e-12)
    assert r3.params["hi"] == pytest.approx(-0.503161271393275, rel=1e-12)
    r4 = by_key[(4, 1)]
    assert r4.lhs == pytest.approx(-0.2415644752704905, rel=1e-13)
    assert r4.window == pytest.approx(4.6490710794613865e-05, rel=1e-11)
    r8 = by_key[(8, 3)]
    assert r8.params["lo"] <= 0.10500911500948218 <= r8.params["hi"]


def test_window_truth_is_log_abs_l1():
    grid = WindowGrid(1e5, 10**6)
    inst = dirichlet_instance({c.index: c for c in enumerate_characters(4)}[1])
    iv = explicit_formula_window(inst, grid)
    assert iv.lo == pytest.approx(-0.24159498944669316, rel=1e-12)
    assert iv.hi == pytest.approx(-0.24150200802510394, rel=1e-12)
    assert iv.contains(math.log(math.pi / 4.0))
    chi = {c.index: c for c in enumerate_characters(5)}[2]
    iv = explicit_formula_window(dirichlet_instance(chi), grid)
    assert (iv.lo, iv.hi) == pytest.approx((-0.8430520691677468, -0.8429584732744223), rel=1e-12)
    assert iv.contains(math.log(abs(l1_value(chi))))


def test_window_grid_refuses_bad_x_before_any_sieve(monkeypatch):
    def no_sieve(limit):
        raise AssertionError("sieved to %d" % (limit,))

    monkeypatch.setattr(_kernel, "_odd_primes", no_sieve)
    for x, limit, msg in (
        (100.0, 10**6, "windows need x >= 132"),
        (math.nan, 10**6, "windows need x >= 132"),
        (1000.0, 200, "beyond table limit 200"),
    ):
        with pytest.raises(DomainError, match=msg):
            WindowGrid(x, limit)


def _per_prime_prime_sums(inst, tbl, x):
    """Reference: one inst.coefficient call per prime power, per-segment terms."""
    logx = math.log(x)
    log_parts, lin_parts = [], []
    for p_arr, pk_arr, k in prime_power_grid(tbl, x):
        re_a = np.array([inst.coefficient(int(p), k).real for p in p_arr], dtype=np.float64)
        lp = np.log(p_arr.astype(np.float64))
        pk = pk_arr.astype(np.float64)
        log_parts.append(re_a * (1.0 - k * lp / logx) / (k * pk))
        lin_parts.append(re_a * lp * (1.0 / pk - 1.0 / x))
    return math.fsum(np.concatenate(log_parts)), math.fsum(np.concatenate(lin_parts))


@pytest.mark.parametrize("q", [3, 8, 12, 45, 49])
def test_window_prime_sums_equal_per_prime_reference(table6, q):
    chars = [c for c in enumerate_characters(q, primitive_only=True) if not c.is_principal]
    assert chars
    for x in (132.0, 1000.5, 1e5, 1e6):
        grid = WindowGrid(x, table6.limit)
        # the per-prime reference costs about 0.1 s per character at 1e6
        for chi in chars if x <= 1e5 else chars[:2]:
            inst = dirichlet_instance(chi)
            assert _instance_prime_sums(inst, grid) == _per_prime_prime_sums(inst, table6, x)


def test_window_rejects_bad_or_missing_coefficients():
    # a table beyond |a| <= d never becomes an instance to window
    with pytest.raises(DomainError):
        LFunctionInstance(
            d=1, q=3, local_params=(0.0,), label="bad", coeff_table=np.full(3, 5.0 + 0j)
        )
    grid = WindowGrid(1000.0, 10**4)
    with pytest.raises(DomainError, match="no coefficient table"):
        explicit_formula_window(hecke_instance(12, 1), grid)
    shape_only = LFunctionInstance(d=1, q=3, local_params=(1.0,), label="shape-only")
    with pytest.raises(DomainError, match="no coefficient table"):
        explicit_formula_window(shape_only, grid)


def test_one_grid_across_interleaved_moduli_gives_fresh_windows():
    x, limit = 1000.0, 10**4
    chars = {q: enumerate_characters(q, primitive_only=True) for q in (5, 7, 8)}
    insts = [dirichlet_instance(chi) for q in (5, 7, 5, 8) for chi in chars[q]]
    table = chars[5][0].value_table() + chars[5][1].value_table()
    insts.append(LFunctionInstance(d=2, q=5, local_params=(0.0, 1.0), coeff_table=table))
    # complex kappa, then a repeat after another: the block key is the local
    # parameters themselves (this probes the key; it is not L(s + it))
    odd = chars[5][0].value_table()
    insts += [LFunctionInstance(1, 5, (kap,), coeff_table=odd) for kap in (1 + 1j, 1 + 2j, 1 + 1j)]
    grid = WindowGrid(x, limit)
    for inst in insts:
        # q is in the block key: an odd q = 7 window on the q = 5 gamma block moves
        fresh = explicit_formula_window(inst, WindowGrid(x, limit))
        assert explicit_formula_window(inst, grid) == fresh, inst
    shape_only = LFunctionInstance(d=1, q=3, local_params=(1.0,), label="shape-only")
    with pytest.raises(DomainError, match="no coefficient table"):
        explicit_formula_window(shape_only, grid)


def _abs_re_b(chi):
    """|Re B| = Re L'/L(1, chi) + _gamma_block / 2 (Davenport, ch. 12), by mpmath.

    L(1, chi) = -(1/q) sum chi(a) psi(a/q) and
    L'(1, chi) = -log q L(1, chi) - (1/q) sum chi(a) gamma_1(a/q), from the
    Laurent expansion of the Hurwitz zeta function at s = 1.
    """
    q = chi.modulus
    table = chi.value_table()
    with mpmath.workdps(20):
        terms = [(mpmath.mpc(table[a]), mpmath.mpf(a) / q) for a in range(1, q) if table[a] != 0]
        l1 = -mpmath.fsum(v * mpmath.digamma(u) for v, u in terms) / q
        gamma1 = mpmath.fsum(v * mpmath.stieltjes(1, u) for v, u in terms) / q
        dl1 = -mpmath.log(q) * l1 - gamma1
        gblock = mpmath.log(q / mpmath.pi) + mpmath.digamma(mpmath.mpf(1 + chi.parity) / 2)
        return float(mpmath.re(dl1 / l1) + gblock / 2)


# (|Re B| - b_lo)/(b_hi - b_lo) for the primitive characters with q <= 7, in
# enumerate_characters order: (3, 1), (4, 1), (5, 1..3), (7, 1..5)
_RE_B_POSITIONS = {
    132.25: (0.4613198704, 0.4499680691, 0.4158770505, 0.4106684927, 0.4158770505,
             0.6741244224, 0.3484757874, 0.2203501969, 0.3484757874, 0.6741244224),
    1e3: (0.4812640704, 0.3390068821, 0.3103079371, 0.4174082378, 0.3103079371,
          0.4745156710, 0.5197552735, 0.5262461460, 0.5197552735, 0.4745156710),
    1e4: (0.5191271583, 0.6911873866, 0.6448868540, 0.3393445884, 0.6448868540,
          0.3634436155, 0.4357997540, 0.3930277742, 0.4357997540, 0.3634436155),
    1e5: (0.4027851989, 0.6730027321, 0.3408406862, 0.6515247419, 0.3408406862,
          0.2297209937, 0.5891574513, 0.4516039500, 0.5891574513, 0.2297209937),
}


def test_zero_sum_interval_holds_abs_re_b():
    chars = [chi for q in range(3, 8) for chi in enumerate_characters(q, primitive_only=True)]
    assert [(c.modulus, c.index) for c in chars] == (
        [(3, 1), (4, 1)] + [(5, i) for i in (1, 2, 3)] + [(7, i) for i in range(1, 6)]
    )
    truths = [_abs_re_b(chi) for chi in chars]
    for x, frozen in _RE_B_POSITIONS.items():
        grid = WindowGrid(x, 10**6)
        positions = []
        for chi, re_b in zip(chars, truths):
            b_lo, b_hi, _mid, _err = _window_parts(dirichlet_instance(chi), grid)
            assert b_lo <= re_b <= b_hi, (chi.modulus, chi.index, x)
            positions.append((re_b - b_lo) / (b_hi - b_lo))
        assert positions == pytest.approx(frozen, abs=1e-9), x


def test_window_audit_sizes_its_own_table_for_fractional_x():
    recs = run_audit("window", q_max=5, x=10000.5)
    assert len(recs) == 5 and all(r.verdict == "PASS" for r in recs)
    ref = run_audit("window", q_max=5, x=10000.5, sieve_limit=10**6)
    assert recs == ref


def test_extremum_h_deterministic():
    a = extremum_h()
    b = extremum_h()
    assert a.lhs == b.lhs and a.params["t_star"] == b.params["t_star"]


def test_logratio_extremum_callable_directly():
    rec = extremum_logratio()
    assert rec.verdict == "PASS"
    assert rec.params["argmin_at_origin"] is True
