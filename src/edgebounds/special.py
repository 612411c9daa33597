"""Scalar special-function kernels, digamma rows at rationals, Chandee margins.

Digamma (complex, and the exact-formula row at the rationals a/q,
a = 1..q-1), the tail series generated by trivial zeros, and the two
series/ratio expressions audited elsewhere in the package. The scalar
results are SeriesValues with an absolute-error estimate that no consumer
reads yet; the digamma row is a frozen array, and the exponential integral
exp1, which only the L(1, chi) oracle uses, a plain float good to a few ulp.

The Chandee margin log|z| - Re digamma(z) is computed for a whole array of
z at once, with the bits the scalar digamma gives point by point. So its
kernel does not use NumPy complex arithmetic: NumPy divides complex numbers
through a reciprocal, where CPython uses Smith's method, and the last bits
differ. It writes out CPython's complex product and quotient on the real
and imaginary float64 arrays instead. Every log is math.log, taken over a
list, because np.log can round differently from the C library log that
math.log and cmath.log call (it did for moduli of the chandee grid on an
AVX-512 machine).
"""

import cmath
import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from ._kernel import exact_sum
from .constants import EULER_GAMMA, LOG_3, PI, TWO_PI
from .errors import DomainError, ResourceBudgetError

Number = Union[float, complex]


@dataclass(frozen=True)
class SeriesValue:
    """A numeric result with a truncation/rounding error bound."""

    value: Number
    abs_error: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.abs_error) or self.abs_error < 0.0:
            raise DomainError("abs_error must be finite and nonnegative")


# Coefficients B_{2k}/(2k) of the asymptotic digamma expansion, k = 1..8.
_ASYMP_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
    -3617.0 / 8160.0,
)

# |B_18/18|, magnitude bound for the first dropped asymptotic term.
_ASYMP_NEXT = 43867.0 / 798.0 / 18.0

_SHIFT_RADIUS = 10.0

_EPS = 2.0 ** -53  # unit roundoff of float64


def digamma(z: Number) -> SeriesValue:
    """Logarithmic derivative of the gamma function at complex z, Re z > 0.

    Upward recurrence moves the argument to |z| >= 10, then the Bernoulli
    asymptotic series truncated at the eighth term is applied. Any other
    z, nan included, raises DomainError.
    _chandee_margins replays these steps on arrays, bit for bit.

    abs_error bounds the truncation and every rounding to first order in
    u = 2^-53, with log, hypot and atan2 within 1 ulp. In units of u:
    * each shift w -> w + 1 adds 4|1/w| for the quotient (Smith's algorithm
      with numerator 1 errs by under 3.54u), |acc| for the subtraction, and
      2 for rounding Re w + 1. That moves psi's argument by at most u Re w'
      (w' = w + 1), so the result by |psi'(w')| u Re w' <= psi'(Re w') u Re w'
      < u(1 + 1/Re w') < 2u, as Re w' > 1;
    * then, with |w| >= 10, cmath.log adds 2 + 2(|log|w|| + |arg w|)
      < 4|log w|, and the three additions forming val add 3|val|
      + 2|series| + |0.5/w| < 3|val| + 0.052;
    * 0.3 covers that 0.052, 0.2 for 0.5/w, under 0.02 for the series' own
      rounding, and under 0.01 for the truncation's excess over its first
      omitted term: none for real w, up to 10% near the imaginary axis (at
      w = 10i, against mpmath).
    """
    w = complex(z)
    if not w.real > 0.0:
        raise DomainError("digamma needs Re z > 0, got %r" % (z,))

    err_scale = 0.0  # the shifts' rounding, in units of u
    acc = 0.0 + 0.0j
    while abs(w) < _SHIFT_RADIUS:
        step = 1.0 / w
        acc -= step
        err_scale += 4.0 * abs(step) + abs(acc) + 2.0
        w += 1.0

    inv2 = 1.0 / (w * w)
    series = 0.0 + 0.0j
    power = inv2
    for c in _ASYMP_COEFFS:
        series += c * power
        power *= inv2
    logw = cmath.log(w)
    val = logw + acc - 0.5 / w - series

    trunc = _ASYMP_NEXT * abs(w) ** -18.0
    abs_error = trunc + 2.0 ** -53 * (err_scale + 3.0 * abs(val) + 4.0 * abs(logw) + 0.3)
    if complex(z).imag == 0.0:
        return SeriesValue(float(val.real), abs_error)
    return SeriesValue(val, abs_error)


def _cos_log_sin(q: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n = 1..(q-1)//2, cos(2 pi m/q) for m < q and log sin(pi n/q), scalar-built."""
    n = np.arange(1, (q - 1) // 2 + 1, dtype=np.int64)
    cos_tab = np.array([math.cos(TWO_PI * m / q) for m in range(q)], dtype=np.float64)
    log_sin = np.array([math.log(math.sin(PI * k / q)) for k in n.tolist()], dtype=np.float64)
    return n, cos_tab, log_sin


_ROW_BLOCK = 1 << 13  # matrix cells digamma_rational builds at once

# closed-form terms one digamma_rational row may sum: the whole row at q = 20,000
MAX_DIGAMMA_TERMS = 2 * 10 ** 8


def check_digamma_row(q: int) -> None:
    """Refuse the row psi(a/q), a = 1..q-1, past MAX_DIGAMMA_TERMS closed-form terms."""
    if (q - 1) * (3 + (q - 1) // 2) > MAX_DIGAMMA_TERMS:
        msg = "%d digamma values at denominator %d exceed the %d-term budget"
        raise ResourceBudgetError(msg % (q - 1, q, MAX_DIGAMMA_TERMS))


def digamma_rational(q: int) -> np.ndarray:
    """The row psi(a/q), a = 1..q-1, via the finite cosine-log formula.

    Exact closed form for 1 <= a < q:
    psi(a/q) = -gamma - log 2q - (pi/2) cot(pi a/q)
               + 2 sum_{n <= (q-1)/2} cos(2 pi n a/q) log sin(pi n/q),
    with the cotangent left out at 2a = q. The cosines and log-sines come
    from one table per q, each entry built by the scalar math functions, so
    every term is the same float as when computed alone; the terms of each
    a are summed exactly rounded (_kernel.exact_sum).

    The row is a frozen float64 array, its terms built a block of rows (near
    _ROW_BLOCK cells) at a time. A q that is not an integer >= 1 raises
    DomainError, and a row past MAX_DIGAMMA_TERMS terms ResourceBudgetError
    (check_digamma_row).
    """
    if not isinstance(q, (int, np.integer)) or q < 1:
        raise DomainError("digamma_rational needs an integer q >= 1, got %r" % (q,))
    q = int(q)
    check_digamma_row(q)

    cot = [0.0 if 2 * k == q else -(PI / 2.0) / math.tan(PI * k / q) for k in range(1, q)]
    n, cos_tab, log_sin = _cos_log_sin(q)
    rows = max(1, _ROW_BLOCK // (3 + n.size))
    terms = np.empty((min(rows, q - 1), 3 + n.size), dtype=np.float64)
    terms[:, 0] = -EULER_GAMMA
    terms[:, 1] = -math.log(2.0 * q)
    value = np.empty(q - 1, dtype=np.float64)
    for lo in range(0, q - 1, rows):
        hi = min(q - 1, lo + rows)
        block = terms[:hi - lo]
        block[:, 2] = cot[lo:hi]
        phase = np.multiply.outer(np.arange(lo + 1, hi + 1, dtype=np.int64), n)
        phase %= q
        cos_log_sin = block[:, 3:]
        np.take(cos_tab, phase, out=cos_log_sin)
        cos_log_sin *= 2.0
        cos_log_sin *= log_sin
        value[lo:hi] = exact_sum(block)
    value.flags.writeable = False
    return value


_EXP1_SERIES_TERMS = 29  # x^29/(29 * 29!) < 1e-32 at x = 1


def exp1(x: float) -> float:
    """Exponential integral E1(x) = integral_x^inf e^-t/t dt, for finite x > 0.

    For x <= 1, the power series -gamma - log x - sum_{k<=29} (-x)^k/(k k!),
    summed with math.fsum. For x > 1, the continued fraction
    e^-x/(x + 1 - 1^2/(x + 3 - 2^2/(x + 5 - ...))) evaluated from the bottom
    up at depth 10 + 110/x, where the truncation error is below the
    rounding error; the bottom-up pass is stable, unlike a forward product
    of ~100 Lentz factors, which loses up to 1e-14 relative near x = 1.
    The relative error is a few units in the last place either way.
    """
    x = float(x)
    if not 0.0 < x < math.inf:
        raise DomainError("exp1 needs finite x > 0, got %r" % (x,))
    if x <= 1.0:
        terms = [-EULER_GAMMA, -math.log(x)]
        t = 1.0
        for k in range(1, _EXP1_SERIES_TERMS + 1):
            t *= -x / k
            terms.append(-t / k)
        return math.fsum(terms)
    f = 0.0
    for i in range(10 + int(110.0 / x), 0, -1):
        f = -(i * i) / (x + (2 * i + 1) + f)
    return math.exp(-x) / (x + 1.0 + f)


def trivial_zero_tail(x: float) -> SeriesValue:
    """Sum of x^(-2n-1) / (2n(2n+1)) over n >= 1, for x > 1.

    Equals (w/2) log w - ((1+u)/2) log1p(u) + u with u = 1/x, w = (x-1)/x
    (x - 1 is exact). The positive series is summed as it is cancellation-
    free; the closed form only near x = 1, where the series slows down.
    abs_error bounds the rounding to first order (a unit of 2^-53 per
    operation, two per libm log) plus the dropped tail of the series.
    """
    x = float(x)
    if not x > 1.0:
        raise DomainError("need x > 1, got %r" % (x,))
    u = 1.0 / x
    u2 = u * u
    if u2 > 0.9:
        # x < ~1.054: each term within 6 units of its size, an addition 1 more
        w = (x - 1.0) / x
        head = 0.5 * w * math.log(w)
        mid = 0.5 * (1.0 + u) * math.log1p(u)
        value = head - mid + u
        return SeriesValue(value, 8.0 * _EPS * (abs(head) + mid + u))

    terms = []
    upow = u * u2  # u^(2n+1) at n = 1
    n = 1
    while True:
        t = upow / (2.0 * n * (2.0 * n + 1.0))
        if terms and t < 2.2e-17 * terms[0]:
            break
        terms.append(t)
        upow *= u2
        n += 1
        if n > 400:
            break
    value = math.fsum(terms)
    tail_bound = (upow / (2.0 * n * (2.0 * n + 1.0))) / (1.0 - u2)
    # term m: 4m + 2 roundings from x, 1 more for higher orders; fsum 1 in all
    rounding = _EPS * (math.fsum((4 * m + 3) * t for m, t in enumerate(terms, start=1)) + value)
    return SeriesValue(value, tail_bound + rounding)


# B_2 and |B_4|: the Euler-Maclaurin tail of kappa_series_direct keeps the
# B_2 correction and bounds its remainder through B_4.
_EM_B2 = 1.0 / 6.0
_EM_B4 = 1.0 / 30.0

# Most terms kappa_series_direct sums directly: about 4 MB of temporaries.
# The techlem1 grid needs at most 2,403 (kappa = 0 at tail_tol = 1e-15).
MAX_KAPPA_TERMS = 10 ** 5


def kappa_series_direct(kappa: Number, tail_tol: float = 1e-12) -> SeriesValue:
    """Re sum_{n>=1} (2/(kappa+1+2n) - 1/(kappa+1+n)) summed with an Euler-Maclaurin tail.

    The paired term is f(n) = a/((a+2n)(a+n)) = 1/(n+a/2) - 1/(n+a) with
    a = kappa + 1. The terms n < N are summed directly; the Euler-Maclaurin
    tail integral_N^inf f + f(N)/2 + (B_2/2)((N+a/2)^-2 - (N+a)^-2) stands
    for n >= N. Both poles of f lie at distance >= x from every x > 0, so
    the fourth derivative is at most 48/x^5 in size and the remainder at
    most (2|B_4|/4!) * 12/N^4 = |B_4|/N^4. N is the smallest integer
    >= 4(|a|+2) that brings this bound to tail_tol; abs_error is the bound
    plus rounding; an N above MAX_KAPPA_TERMS, an infinite one included,
    raises ResourceBudgetError before any term is built, and a kappa that
    is not finite raises DomainError. Nothing here comes from digamma, so
    the audits can hold the two against each other.
    """
    k = complex(kappa)
    if not (math.isfinite(k.real) and math.isfinite(k.imag)):
        raise DomainError("need finite kappa, got %r" % (kappa,))
    if k.real < 0.0:
        raise DomainError("need Re kappa >= 0, got %r" % (kappa,))
    if not tail_tol > 0.0:
        raise DomainError("tail_tol must be positive")
    a = k + 1.0
    n_em = max(4.0 * (abs(a) + 2.0), (_EM_B4 / tail_tol) ** 0.25)
    if n_em <= MAX_KAPPA_TERMS:  # else it may be inf, which math.ceil refuses
        n_em = math.ceil(n_em)
        while _EM_B4 / n_em ** 4 > tail_tol:
            n_em += 1
    if n_em > MAX_KAPPA_TERMS:
        raise ResourceBudgetError(
            "kappa series needs %.10g terms, beyond the %d budget" % (n_em, MAX_KAPPA_TERMS)
        )
    if a.imag == 0.0:
        a = a.real  # real input: float arithmetic throughout

    n = np.arange(1, n_em, dtype=np.float64)
    head = np.real(a / ((a + 2.0 * n) * (a + n)))
    near, far = n_em + a / 2.0, n_em + a
    tail = (
        cmath.log(far / near).real,  # integral_N^inf f
        (a / (4.0 * near * far)).real,  # f(N)/2
        (_EM_B2 / 2.0 * (1.0 / (near * near) - 1.0 / (far * far))).real,
    )
    value = exact_sum(np.concatenate((head, tail)))
    abs_error = _EM_B4 / n_em ** 4 + 1e-15 * (1.0 + abs(value))
    return SeriesValue(float(value), abs_error)


def kappa_series_closed(kappa: Number) -> float:
    """Closed-form expression paired with kappa_series_direct in the audits.

    Evaluated verbatim at sigma = Re kappa, t = Im kappa:
    log(4)/2 + (s^2+3s+2+t^2)/((s+2)^2+t^2) - (s^2+4s+3+t^2)/((s+3)^2+t^2)
    + log(((s+2)^2+t^2)/((s+3)^2+t^2))/2.
    It is the side that is off: kappa_series_direct and the digamma form
    Re[psi(kappa+2) - psi((kappa+3)/2)] agree to about 1e-15, while this
    expression exceeds them by a smooth positive residual (0.068 at the
    origin), which the techlem1 audit reports instead of asserting equality.
    """
    k = complex(kappa)
    if k.real < 0.0:
        raise DomainError("need Re kappa >= 0, got %r" % (kappa,))
    s, t = k.real, k.imag
    t2 = t * t
    d2 = (s + 2.0) ** 2 + t2
    d3 = (s + 3.0) ** 2 + t2
    return (
        0.5 * math.log(4.0)
        + (s * s + 3.0 * s + 2.0 + t2) / d2
        - (s * s + 4.0 * s + 3.0 + t2) / d3
        + 0.5 * math.log(d2 / d3)
    )


def kappa_ramp(kappa: complex, log_x: float) -> complex:
    """(x^-kappa - 1) / (kappa (kappa + 1)) at x = e^log_x, for kappa != 0.

    The ramp of the grouped term A5 and of techlem2_bound_ratio; windows,
    the A-terms audit and the techlem2 grid all evaluate it here.
    """
    return (cmath.exp(-kappa * log_x) - 1.0) / (kappa * (kappa + 1.0))


def techlem2_bound_ratio(kappa: Number, x: float) -> float:
    """|(x^-kappa - 1) / (kappa (kappa+1))| * log(3) / (2 log x).

    The audited inequality asserts this ratio never exceeds 1 on
    Re kappa >= 0, x > 1. The kappa -> 0 singularity is removable
    ((x^-kappa - 1)/kappa -> -log x) and is evaluated by series.
    """
    x = float(x)
    if not x > 1.0:
        raise DomainError("need x > 1, got %r" % (x,))
    k = complex(kappa)
    if k.real < 0.0:
        raise DomainError("need Re kappa >= 0, got %r" % (kappa,))
    big_l = math.log(x)
    if abs(k) * big_l < 1e-8:
        kl = k * big_l
        ramp = -big_l * (1.0 - kl / 2.0 + kl * kl / 6.0 - kl * kl * kl / 24.0)
        core = ramp / (k + 1.0)
    else:
        core = kappa_ramp(k, big_l)
    return abs(core) * LOG_3 / (2.0 * big_l)


def _quot(num: float, br: np.ndarray, bi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """num / (br + i bi) for a real num, as CPython's _Py_c_quot divides.

    Smith's method: both parts are divided by the larger-magnitude one
    (the real part when |br| >= |bi|), chosen per element. The numerator's
    imaginary part is zero, so its terms drop out; only the sign of a zero
    can differ from CPython's.
    """
    first = np.abs(br) >= np.abs(bi)
    big = np.where(first, br, bi)
    small = np.where(first, bi, br)
    ratio = small / big
    denom = big + small * ratio
    scaled = num * ratio
    return np.where(first, num, scaled) / denom, -np.where(first, scaled, num) / denom


def _prod(ar, ai, br, bi) -> Tuple[np.ndarray, np.ndarray]:
    """(ar + i ai)(br + i bi), as CPython's _Py_c_prod multiplies."""
    return ar * br - ai * bi, ar * bi + ai * br


def _log(x: np.ndarray) -> np.ndarray:
    """math.log of each element (np.log may round differently)."""
    return np.array(list(map(math.log, x.tolist())), dtype=np.float64)


def _chandee_margins(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """log|z| - Re digamma(z) at z = re + i im, for Re z >= 0, elementwise.

    Replays digamma's steps on whole arrays: the shift while |w| < 10, w*w,
    the asymptotic series and 0.5/w. Only the real parts that Re digamma(z)
    adds up are kept. Moduli come from np.hypot, which is the C hypot that
    abs(complex) calls; logs from math.log.
    """
    wr = re.copy()
    acc = np.zeros_like(re)
    idx = np.flatnonzero(np.hypot(re, im) < _SHIFT_RADIUS)
    while idx.size:
        r, i = wr[idx], im[idx]
        acc[idx] -= _quot(1.0, r, i)[0]
        r += 1.0
        wr[idx] = r
        idx = idx[np.hypot(r, i) < _SHIFT_RADIUS]

    inv2 = _quot(1.0, *_prod(wr, im, wr, im))
    series = np.zeros_like(re)
    power = inv2
    for c in _ASYMP_COEFFS:
        series += c * power[0]
        power = _prod(*power, *inv2)
    psi = _log(np.hypot(wr, im)) + acc - _quot(0.5, wr, im)[0] - series
    return _log(np.hypot(re, im)) - psi


def chandee_margin(z: Union[Number, np.ndarray]) -> Union[float, np.ndarray]:
    """log|z| - Re digamma(z) on the half-plane Re z >= 1/4.

    The audited inequality asserts the margin is nonnegative there. z may
    be a complex number or an ndarray of them; an array gives an array of
    the same shape. Each margin has the bits of
    math.log(abs(z)) - digamma(z).value.real. A z that is not finite, or
    has Re z < 1/4, raises DomainError.
    """
    arr = np.asarray(z, dtype=np.complex128)
    re, im = arr.real.ravel(), arr.imag.ravel()
    if not (np.isfinite(re) & np.isfinite(im) & (re >= 0.25)).all():
        raise DomainError("need finite z with Re z >= 1/4, got %r" % (z,))
    margin = _chandee_margins(re, im)
    if arr.ndim == 0:
        return float(margin[0])
    return margin.reshape(arr.shape)
