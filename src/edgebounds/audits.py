"""Machine checks for every inequality, extremum, and identity the bound
derivation leans on, plus the two-sided window for log|L(1,f)|.

Each check returns AuditRecord(s) with one of three verdicts:

* PASS  - the asserted inequality/identity holds within the record window.
* FAIL  - it does not (some model variants fail by design at small x).
* REPORT - a measured discrepancy is documented without adjudication.

Margin-style records PASS when residual >= -window; window-style records
PASS when |residual| <= window. Every grid is a fixed lattice, so reruns
are bit-identical.
"""

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ._kernel import exact_sum
from .constants import B_ZERO_SUM, EULER_GAMMA, LOG_2, LOG_PI, TWO_PI
from .dirichlet import check_sweep, enumerate_characters, l1_value
from .errors import DomainError, ResourceBudgetError
from .lfunc import LFunctionInstance, dirichlet_instance
from .primes import (
    PrimeTable,
    WeightedSumResult,
    build_table,
    flat_prime_powers,
    is_prime_power,
    prime_power_grid,
    smoothed_sum_linear,
    smoothed_sum_log,
    table_limit,
)
from .special import (
    chandee_margin,
    digamma,
    kappa_ramp,
    kappa_series_closed,
    kappa_series_direct,
    Number,
    techlem2_bound_ratio,
    trivial_zero_tail,
)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise DomainError("empty interval [%r, %r]" % (self.lo, self.hi))

    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, v: float) -> bool:
        return self.lo <= v <= self.hi


@dataclass(frozen=True)
class AuditRecord:
    id: str
    params: Dict[str, object]
    lhs: float
    rhs: float
    window: float
    residual: float
    verdict: str

    def __post_init__(self) -> None:
        if self.verdict not in ("PASS", "FAIL", "REPORT"):
            raise DomainError("bad verdict %r" % (self.verdict,))

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "window": self.window,
            "residual": self.residual,
            "verdict": self.verdict,
        }


def _margin_record(audit_id: str, params: dict, lhs: float, rhs: float, margin: float):
    """A margin-style record: window 1e-12, PASS when margin >= -1e-12."""
    return AuditRecord(
        id=audit_id,
        params=params,
        lhs=lhs,
        rhs=rhs,
        window=1e-12,
        residual=margin,
        verdict="PASS" if margin >= -1e-12 else "FAIL",
    )


# cells of one grid: a float64 array in trig, p2, hmax and logratio (80 MB
# each), whose size --grid-steps sets
MAX_GRID_CELLS = 10 ** 7


def _check_grid(rows: int, cols: int) -> None:
    """Refuse a rows x cols grid beyond MAX_GRID_CELLS before any array is made."""
    if rows * cols > MAX_GRID_CELLS:
        raise ResourceBudgetError(
            "a %d x %d grid exceeds the %d-cell budget" % (rows, cols, MAX_GRID_CELLS)
        )


_R_STEPS = 200  # r-values of the trig and p2 grids
_TRIG_K_MAX = 20  # trig scans k = 1.._TRIG_K_MAX


def _r_theta_grid(theta_steps: int):
    """(r, theta, cos theta): r in (0, 1] down a column, theta in [0, 2 pi) along a row."""
    _check_grid(_R_STEPS, theta_steps)
    r = np.linspace(1.0 / _R_STEPS, 1.0, _R_STEPS)[:, None]
    th = np.linspace(0.0, TWO_PI, theta_steps, endpoint=False)[None, :]
    return r, th, np.cos(th)


# ---------------------------------------------------------------------------
# grid inequalities


def verify_trig_inequality(theta_steps: int = 512) -> AuditRecord:
    """min over k <= 20, r in (0,1], theta of k^2(1-r cos t) - (1-r^k cos kt)."""
    r, th, cos_th = _r_theta_grid(theta_steps)
    min_margin = math.inf
    argk = 1
    min_slack = math.inf
    for k in range(1, _TRIG_K_MAX + 1):
        margin = k * k * (1.0 - r * cos_th) - (1.0 - r ** k * np.cos(k * th))
        m = float(margin.min())
        if m < min_margin:
            min_margin, argk = m, k
        if k >= 2:
            slack = k * k - 1.0 - (r ** k + r)
            min_slack = min(min_slack, float(slack.min()))
    params = {
        "k_max": _TRIG_K_MAX,
        "r_steps": _R_STEPS,
        "theta_steps": theta_steps,
        "worst_k": argk,
        "min_slack_k_ge_2": min_slack,
    }
    return _margin_record("trig", params, min_margin, 0.0, min_margin)


def verify_p2_positivity(x: float, theta_steps: int = 512) -> AuditRecord:
    """Nonnegativity of the alternating p=2 block after the k>=6 swap.

    Exact terms for k <= 5; even k >= 6 replaced by their worst case
    -k^2(1-r cos t) w_k, odd k >= 7 dropped (their terms are nonnegative).
    The scanned quantity is a lower bound for the true block, so PASS
    certifies the block itself.
    """
    xf = float(x)
    if xf < 100.0:
        raise DomainError("need x >= 100, got %r" % (x,))
    if xf == math.floor(xf) and is_prime_power(int(xf)):
        raise DomainError("x=%r is a prime power" % (x,))
    kk = int(xf).bit_length() - 1  # the largest k with 2^k <= x
    w = [1.0 / (2.0 ** k * k * LOG_2) - 1.0 / (xf * math.log(xf)) for k in range(1, kk + 1)]
    if min(w) <= 0.0:
        raise DomainError("weights not positive at x=%r" % (x,))
    r, th, cos_th = _r_theta_grid(theta_steps)
    obj = np.zeros((_R_STEPS, theta_steps))
    for k in range(1, min(5, kk) + 1):
        sgn = 1.0 if k % 2 == 1 else -1.0
        obj += sgn * (1.0 - r ** k * np.cos(k * th)) * w[k - 1]
    for k in range(6, kk + 1):
        if k % 2 == 0:
            obj -= k * k * (1.0 - r * cos_th) * w[k - 1]
    obj *= LOG_2
    i, j = np.unravel_index(np.argmin(obj), obj.shape)
    mn = float(obj[i, j])
    params = {
        "x": xf,
        "k_cut": kk,
        "r_steps": _R_STEPS,
        "theta_steps": theta_steps,
        "argmin_r": float(r[i, 0]),
        "argmin_theta": float(th[0, j]),
    }
    return _margin_record("p2", params, mn, 0.0, mn)


_TECHLEM2_STEPS = (25, 20, 20)  # (Re kappa, Im kappa, x) lattice sizes


def verify_techlem2_grid() -> AuditRecord:
    """ratio |(x^-k - 1)/(k(k+1))| log3/(2 log x) <= 1 on a fixed lattice."""
    re_steps, im_steps, x_steps = _TECHLEM2_STEPS
    res = np.linspace(0.0, 10.0, re_steps)
    ims = np.linspace(-10.0, 10.0, im_steps)
    xs = np.geomspace(1.01, 1e6, x_steps)
    worst = -math.inf
    arg: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    for a in res:
        for b in ims:
            kap = complex(a, b)
            for xx in xs:
                v = techlem2_bound_ratio(kap, float(xx))
                if v > worst:
                    worst, arg = v, (float(a), float(b), float(xx))
    params = {
        "re_steps": re_steps,
        "im_steps": im_steps,
        "x_steps": x_steps,
        "worst_kappa_re": arg[0],
        "worst_kappa_im": arg[1],
        "worst_x": arg[2],
    }
    return _margin_record("techlem2", params, worst, 1.0, 1.0 - worst)


_CHANDEE_STEPS = (200, 200)  # (Re z, Im z) lattice sizes
# grid cells verify_chandee_grid evaluates at once (one row if a row is longer)
_CHANDEE_BLOCK = 1 << 12


def verify_chandee_grid() -> AuditRecord:
    """log|z| - Re psi(z) >= 0 on Re z in [1/4, 20], |Im z| <= 50.

    The grid is walked a block of whole rows at a time; argmin is the first
    smallest margin in row-major order.
    """
    re_steps, im_steps = _CHANDEE_STEPS
    res = np.linspace(0.25, 20.0, re_steps)
    ims = np.linspace(-50.0, 50.0, im_steps)
    rows = max(1, _CHANDEE_BLOCK // im_steps)
    worst = math.inf
    arg = (0.0, 0.0)
    for lo in range(0, re_steps, rows):
        m = chandee_margin(res[lo:lo + rows, None] + 1j * ims)
        i, j = np.unravel_index(np.argmin(m), m.shape)
        if m[i, j] < worst:
            worst, arg = float(m[i, j]), (float(res[lo + i]), float(ims[j]))
    params = {
        "re_steps": re_steps,
        "im_steps": im_steps,
        "argmin_re": arg[0],
        "argmin_im": arg[1],
    }
    return _margin_record("chandee", params, worst, 0.0, worst)


# ---------------------------------------------------------------------------
# extremum searches


def _h_surface(s, t):
    t2 = t * t
    return (s * s + 3.0 * s + 2.0 + t2) / ((s + 2.0) ** 2 + t2) - (
        s * s + 4.0 * s + 3.0 + t2
    ) / ((s + 3.0) ** 2 + t2)


def _logratio_surface(s, t):
    t2 = t * t
    return 0.5 * np.log(((s + 2.0) ** 2 + t2) / ((s + 3.0) ** 2 + t2))


_SURFACE_MAX = 1e6  # the extremum grids span sigma in [0, 1e6], |t| <= 1e6
_REFINE_STEPS = 200  # pattern-search steps after the grid


def _pattern_search(
    fn: Callable[[float, float], float], s0: float, t0: float, maximize: bool
) -> Tuple[float, float, float]:
    sign = 1.0 if maximize else -1.0
    best = sign * fn(s0, t0)
    step = 0.1
    for _ in range(_REFINE_STEPS):
        cands = []
        for ds, dt in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            s1 = max(0.0, s0 + ds)
            t1 = t0 + dt
            cands.append((sign * fn(s1, t1), s1, t1))
        v1, s1, t1 = max(cands)
        if v1 > best:
            best, s0, t0 = v1, s1, t1
        else:
            step *= 0.5
    return s0, t0, sign * best


def _surface_extremum(surface, n: int, maximize: bool):
    """(grid values, best grid value, (s*, t*, refined value)) of surface.

    The n x n grid is tan-spaced over sigma in [0, _SURFACE_MAX] and
    |t| <= _SURFACE_MAX; its best point seeds the pattern search.
    """
    _check_grid(n, n)
    edge = math.atan(_SURFACE_MAX)
    s = np.tan(np.linspace(0.0, edge, n))[:, None]
    t = np.tan(np.linspace(-edge, edge, n))[None, :]
    vals = surface(s, t)
    i, j = np.unravel_index(np.argmax(vals) if maximize else np.argmin(vals), vals.shape)
    seed = float(s[i, 0]), float(t[0, j])
    refined = _pattern_search(lambda a, b: float(surface(a, b)), *seed, maximize)
    return vals, float(vals[i, j]), refined


def extremum_h(grid_steps: int = 512) -> AuditRecord:
    """Global max of the two-fraction surface over sigma >= 0.

    Asserts the direction the derivation uses (max <= 0.2143594 + 1e-9)
    and REPORTs the computed maximum and its location.

    The maximum is analytic: on sigma = 0 the surface is
    6/(9 + t^2) - 2/(4 + t^2), stationary at t^2 = (5 sqrt(3) - 3)/2 with
    value 4(2 - sqrt(3))/5 = 0.21435935394..., so the cap above is that
    closed form rounded up. The printed bracket [0.19, 0.21] for the same
    maximum does not hold: its upper end is exceeded by about 4.36e-3.
    """
    vals, grid_max, (s_star, t_star, vmax) = _surface_extremum(_h_surface, grid_steps, True)
    boundary = max(
        float(np.abs(vals[-1, :]).max()),
        float(np.abs(vals[:, 0]).max()),
        float(np.abs(vals[:, -1]).max()),
    )
    claimed = 0.2143594
    verdict = "REPORT" if vmax <= claimed + 1e-9 else "FAIL"
    return AuditRecord(
        id="hmax",
        params={
            "sigma_star": s_star,
            "t_star": t_star,
            "grid_steps": grid_steps,
            "refine_steps": _REFINE_STEPS,
            "boundary_abs_max": boundary,
            "grid_max": grid_max,
        },
        lhs=vmax,
        rhs=claimed,
        window=1e-9,
        residual=vmax - claimed,
        verdict=verdict,
    )


def extremum_logratio(grid_steps: int = 512) -> AuditRecord:
    """Global min of the half-log ratio surface: log(2/3) at the origin."""
    _, _, (s_star, t_star, vmin) = _surface_extremum(_logratio_surface, grid_steps, False)
    target = math.log(2.0 / 3.0)
    at_origin = abs(s_star) + abs(t_star) <= 1e-6
    ok = abs(vmin - target) <= 1e-9 and at_origin
    return AuditRecord(
        id="logratio",
        params={
            "sigma_star": s_star,
            "t_star": t_star,
            "grid_steps": grid_steps,
            "refine_steps": _REFINE_STEPS,
            "argmin_at_origin": at_origin,
        },
        lhs=vmin,
        rhs=target,
        window=1e-9,
        residual=vmin - target,
        verdict="PASS" if ok else "FAIL",
    )


# ---------------------------------------------------------------------------
# identities and constants


_KAPPA_GRID: Tuple[complex, ...] = (
    0j,
    0.5 + 0j,
    1 + 0j,
    2 + 0j,
    5 + 0j,
    10 + 0j,
    1j,
    5j,
    50j,
    0.5 + 1j,
    3 + 4j,
    10 + 10j,
)
_TAIL_TOL = 1e-15  # the direct series' tail bound at each point of _KAPPA_GRID


def _kappa_term(kap: complex) -> float:
    """Re[psi(kappa+2) - psi((kappa+3)/2)]: the sum kappa_series_direct evaluates."""
    return complex(digamma(kap + 2).value - digamma((kap + 3) / 2).value).real


def identity_residual_techlem1() -> AuditRecord:
    """Closed form minus direct series for the local-parameter sum.

    Each point also carries the digamma form of the sum and the direct
    series' difference from it. The direct series and digamma agree to
    about 1e-15, so the printed closed form is the side that is off (0.068
    at the origin). The verdict is always REPORT: lhs is the largest
    |closed - direct| on the grid.
    """
    points = []
    worst = 0.0
    for kap in _KAPPA_GRID:
        direct = kappa_series_direct(kap, tail_tol=_TAIL_TOL)
        closed = kappa_series_closed(kap)
        via_digamma = _kappa_term(kap)
        resid = closed - direct.value
        worst = max(worst, abs(resid))
        points.append(
            {
                "kappa": kap,
                "direct": direct.value,
                "closed": closed,
                "residual": resid,
                "digamma": via_digamma,
                "direct_minus_digamma": direct.value - via_digamma,
            }
        )
    return AuditRecord(
        id="techlem1",
        params={"points": points, "tail_tol": _TAIL_TOL},
        lhs=worst,
        rhs=0.0,
        window=0.0,
        residual=worst,
        verdict="REPORT",
    )


def verify_b_constant() -> AuditRecord:
    fresh = 0.5 * math.log(4.0 * math.pi) - 1.0 - 0.5 * EULER_GAMMA
    resid = B_ZERO_SUM - fresh
    return AuditRecord(
        id="bconst",
        params={"two_abs_B": 2.0 * abs(B_ZERO_SUM), "negative": B_ZERO_SUM < 0.0},
        lhs=B_ZERO_SUM,
        rhs=fresh,
        window=1e-12,
        residual=resid,
        verdict="PASS" if abs(resid) <= 1e-12 and B_ZERO_SUM < 0.0 else "FAIL",
    )


# ---------------------------------------------------------------------------
# explicit-formula windows


def _window_weights(tbl: PrimeTable, x: float) -> tuple:
    """Character-free factors of both window prime sums, built once per (tbl, x).

    Over the flat grid of every p^k <= x (primes.flat_prime_powers): (p^k,
    1 - k log p / log x, k p^k, log p, 1/p^k - 1/x). Every instance
    windowed at the same x shares it.
    """
    xf = float(x)
    lp, pk, k = flat_prime_powers(prime_power_grid(tbl, xf))
    return pk, 1.0 - k * lp / math.log(xf), k * pk, lp, 1.0 / pk - 1.0 / xf


def _instance_prime_sums(inst: LFunctionInstance, weights: tuple) -> Tuple[float, float]:
    """One pass over p^k <= x: (log-weight sum, linear-weight sum).

    log-weight: Re a(p^k) / (k p^k) * (1 - k log p / log x)
    linear-weight: Re a(p^k) * log p * (1/p^k - 1/x)

    weights are _window_weights(tbl, x). Each sum is one exactly rounded
    fsum (_kernel.exact_sum), so it does not depend on the term order.
    """
    pk_arr, log_num, log_den, lp, lin_w = weights
    re_a = inst.coefficients(pk_arr).real
    # keep this operation order: every window document depends on each bit
    return exact_sum(re_a * log_num / log_den), exact_sum(re_a * lp * lin_w)


def _gamma_block(inst: LFunctionInstance) -> float:
    """log(q / pi^d) + sum_j Re psi((1 + kappa_j)/2)."""
    acc = [math.log(inst.q) - inst.d * LOG_PI]
    for kap in inst.local_params:
        acc.append(complex(digamma((1.0 + kap) / 2.0).value).real)
    return math.fsum(acc)


def _check_window_x(x: float) -> float:
    xf = float(x)
    if xf < 132.0:
        raise DomainError("windows need x >= 132")
    return xf


def explicit_formula_window(
    inst: LFunctionInstance, tbl: PrimeTable, x: float, weights: Optional[tuple] = None
) -> Interval:
    """Interval for log|L(1,f)| with every |theta| <= 1 ranged worst-case.

    weights may carry _window_weights(tbl, x) shared across instances, else it is built here.
    """
    xf = _check_window_x(x)
    d = inst.d
    l = inst.zero_param_count()
    logx = math.log(xf)
    sqx = math.sqrt(xf)
    if weights is None:
        weights = _window_weights(tbl, xf)
    s_log, s_lin = _instance_prime_sums(inst, weights)
    gblock = _gamma_block(inst)
    tx = trivial_zero_tail(xf).value

    kap_sum = 0.0
    for kap in inst.nonzero_params():
        kap_sum += _kappa_term(complex(kap)) + kappa_ramp(kap, logx).real

    rhs0 = (
        0.5 * (1.0 - 1.0 / xf) * gblock
        - s_lin
        + l * (logx + 1.0) / xf
        + (d - 2 * l) * LOG_2 / xf
        - kap_sum / xf
    )
    # theta-range of the tail coefficient, both printed variants pooled
    rhs_lo = rhs0 - d * tx
    rhs_hi = rhs0 + (d + 2 * l) * tx
    den_lo = 1.0 + 1.0 / xf - 2.0 / sqx
    den_hi = 1.0 + 1.0 / xf + 2.0 / sqx
    quots = (
        rhs_lo / den_lo,
        rhs_lo / den_hi,
        rhs_hi / den_lo,
        rhs_hi / den_hi,
    )
    # the interval [b_lo, b_hi] holds the zero-sum magnitude |Re B|
    b_lo = max(0.0, min(quots))
    b_hi = max(0.0, max(quots))

    c1_lo = 1.0 / logx - 2.0 / (sqx * logx * logx)
    c1_hi = 1.0 / logx + 2.0 / (sqx * logx * logx)
    err = 2.0 * d / (xf * logx * logx)
    mid = s_log + gblock / (2.0 * logx)
    return Interval(mid - c1_hi * b_hi - err, mid - c1_lo * b_lo + err)


# ---------------------------------------------------------------------------
# grouped-term audit


def a_terms_audit(
    side: str,
    d: int,
    l: int,
    kappas: Sequence[Number],
    x: float,
) -> AuditRecord:
    """Cumulative size of the five grouped terms against the claimed cap.

    upper side: combined <= 2d/(1+sqrt(x))^2
    lower side: combined >= -2.05 d/(sqrt(x)-1)^2
    """
    if side not in ("upper", "lower"):
        raise DomainError("side must be 'upper' or 'lower'")
    if not 0 <= l <= d:
        raise DomainError("need 0 <= l <= d")
    kaps = tuple(complex(k) for k in kappas)
    if len(kaps) != d - l:
        raise DomainError("expected %d nonzero local parameters" % (d - l,))
    if any(k == 0 for k in kaps):
        raise DomainError("zero local parameter passed in nonzero list")
    if any(k.real < 0 for k in kaps):
        raise DomainError("local parameters need nonnegative real part")
    xf = _check_window_x(x)
    logx = math.log(xf)
    sqx = math.sqrt(xf)
    tx = trivial_zero_tail(xf).value

    a1 = l * (logx + 1.0) / xf
    a2 = (d - 2 * l) * LOG_2 / xf
    a3 = ((d - 2 * l) if side == "upper" else d) * tx
    a4 = math.fsum(_kappa_term(k) for k in kaps) / xf if kaps else 0.0
    a5 = math.fsum(kappa_ramp(k, logx).real for k in kaps) / xf if kaps else 0.0
    core = a1 + a2 - a3 - a4 - a5
    if side == "upper":
        pref = (1.0 / logx - 2.0 / (sqx * logx * logx)) / (1.0 + 1.0 / sqx) ** 2
        combined = -pref * core + 2.0 * d / (xf * logx * logx)
        cap = 2.0 * d / (1.0 + sqx) ** 2
        margin = cap - combined
    else:
        pref = (1.0 / logx + 2.0 / (sqx * logx * logx)) / (1.0 - 1.0 / sqx) ** 2
        combined = -pref * core - 2.0 * d / (xf * logx * logx)
        cap = -2.05 * d / (sqx - 1.0) ** 2
        margin = combined - cap
    params = {
        "side": side,
        "d": d,
        "l": l,
        "kappas": list(kaps),
        "x": xf,
        "A1": a1,
        "A2": a2,
        "A3": a3,
        "A4": a4,
        "A5": a5,
    }
    return _margin_record("aterms", params, combined, cap, margin)


# ---------------------------------------------------------------------------
# runner


def _prime_sum_records(
    audit_id: str,
    sums: Callable[[PrimeTable, float], Dict[str, WeightedSumResult]],
    xs: Sequence[float],
    sieve_limit: Optional[int],
) -> List[AuditRecord]:
    """One record per model variant of sums(tbl, x), x by x, tbl sieved to sieve_limit or 10^6."""
    tbl = build_table(sieve_limit or 10 ** 6)
    return [
        AuditRecord(
            id=audit_id,
            params={"x": r.x, "variant": name},
            lhs=r.lhs,
            rhs=r.main,
            window=r.window,
            residual=r.residual,
            verdict="PASS" if r.within_window() else "FAIL",
        )
        for x in xs
        for name, r in sums(tbl, x).items()
    ]


def window_records(tbl: PrimeTable, chars: Iterable, x: float) -> List[AuditRecord]:
    """Window record per primitive non-principal character, one shared grid.

    Each record holds log|L(1,chi)| (lhs) against the midpoint of its
    explicit-formula window at x; it PASSes when the window contains it.
    """
    out = []
    weights = None
    for chi in chars:
        inst = dirichlet_instance(chi)
        if weights is None:
            weights = _window_weights(tbl, _check_window_x(x))
        iv = explicit_formula_window(inst, tbl, x, weights)
        truth = math.log(abs(l1_value(chi)))
        mid = 0.5 * (iv.lo + iv.hi)
        half = 0.5 * iv.width()
        out.append(
            AuditRecord(
                id="window",
                params={
                    "q": chi.modulus,
                    "char_index": chi.index,
                    "x": float(x),
                    "lo": iv.lo,
                    "hi": iv.hi,
                },
                lhs=truth,
                rhs=mid,
                window=half,
                residual=truth - mid,
                verdict="PASS" if iv.contains(truth) else "FAIL",
            )
        )
    return out


def _window_audit_records(q_max: int, x: float, sieve_limit: Optional[int]) -> List[AuditRecord]:
    """window_records of 3 <= q <= q_max, on a table sieved to sieve_limit or x."""
    check_sweep(q_max)
    tbl = build_table(sieve_limit or table_limit(x))
    # a primitive character mod q >= 2 is never principal (conductor 1)
    chars = (
        chi for q in range(3, q_max + 1) for chi in enumerate_characters(q, primitive_only=True)
    )
    return window_records(tbl, chars, x)


# id -> records(grid_steps, q_max, x, sieve_limit). Entries call module
# globals at run time, so a function patched on this module is the one that runs.
_AUDITS: Dict[str, Callable[[int, int, float, Optional[int]], List[AuditRecord]]] = {
    "trig": lambda g, q, x, lim: [verify_trig_inequality(theta_steps=g)],
    "p2": lambda g, q, x, lim: [
        verify_p2_positivity(xx, theta_steps=g) for xx in (100.5, 132.25, 1009.3)
    ],
    "hmax": lambda g, q, x, lim: [extremum_h(grid_steps=g)],
    "logratio": lambda g, q, x, lim: [extremum_logratio(grid_steps=g)],
    "techlem1": lambda g, q, x, lim: [identity_residual_techlem1()],
    "techlem2": lambda g, q, x, lim: [verify_techlem2_grid()],
    "chandee": lambda g, q, x, lim: [verify_chandee_grid()],
    "bconst": lambda g, q, x, lim: [verify_b_constant()],
    "lemma24": lambda g, q, x, lim: _prime_sum_records(
        "lemma24", smoothed_sum_linear, (100.0, 1000.0, 10000.0, 1000000.0), lim
    ),
    "lemma26": lambda g, q, x, lim: _prime_sum_records(
        "lemma26", smoothed_sum_log, (10000.0, 1000000.0), lim
    ),
    "aterms": lambda g, q, x, lim: [
        a_terms_audit("upper", 1, 1, (), 132.25),
        a_terms_audit("lower", 2, 0, (0.5, 1.5), 1e4),
    ],
    "window": lambda g, q, x, lim: _window_audit_records(q, x, lim),
}

AUDIT_IDS = tuple(_AUDITS)


def run_audit(
    audit_id: str,
    grid_steps: int = 512,
    q_max: int = 50,
    x: float = 1e5,
    sieve_limit: Optional[int] = None,
) -> List[AuditRecord]:
    """Dispatch one audit id to its records (see AUDIT_IDS).

    lemma24, lemma26 and window sieve their own prime table, to sieve_limit
    when given; the other ids ignore it.
    """
    records = _AUDITS.get(audit_id)
    if records is None:
        raise DomainError("unknown audit id %r" % (audit_id,))
    return records(grid_steps, q_max, x, sieve_limit)
