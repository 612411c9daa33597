"""Scalar special-function kernels.

Digamma (complex, and exact-formula at rationals), the tail series generated
by trivial zeros, and the two series/ratio expressions audited elsewhere in
the package. Every result is returned as a SeriesValue carrying a rigorous
absolute-error estimate that downstream consumers propagate.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple, Union

import numpy as np

from .constants import EULER_GAMMA, LOG_3, PI, TWO_PI
from .errors import DomainError, ResourceBudgetError

Number = Union[float, complex]


@dataclass(frozen=True)
class SeriesValue:
    """A numeric result paired with a truncation/rounding error bound."""

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


def digamma(z: Number) -> SeriesValue:
    """Logarithmic derivative of the gamma function at complex z.

    Upward recurrence moves the argument to |z| >= 10 (after reflection when
    Re z < 0), then the Bernoulli asymptotic series truncated at the eighth
    term is applied. Absolute error stays below 1e-13 away from poles.
    """
    w = complex(z)
    if w.imag == 0.0 and w.real <= 0.0 and w.real == math.floor(w.real):
        raise DomainError("digamma pole at nonpositive integer %r" % (z,))

    err_scale = 0.0
    reflect = 0.0 + 0.0j
    if w.real < 0.0:
        # psi(w) = psi(1 - w) - pi / tan(pi w)
        reflect = -PI / cmath.tan(PI * w)
        err_scale += abs(reflect)
        w = 1.0 - w

    acc = 0.0 + 0.0j
    while abs(w) < _SHIFT_RADIUS:
        step = 1.0 / w
        acc -= step
        err_scale += abs(step)
        w += 1.0

    inv2 = 1.0 / (w * w)
    series = 0.0 + 0.0j
    power = inv2
    for c in _ASYMP_COEFFS:
        series += c * power
        power *= inv2
    logw = cmath.log(w)
    val = logw + reflect + acc - 0.5 / w - series

    trunc = _ASYMP_NEXT * abs(w) ** -18.0
    abs_error = trunc + 2e-16 * (abs(val) + err_scale + abs(logw)) + 4e-18
    if complex(z).imag == 0.0:
        return SeriesValue(float(val.real), abs_error)
    return SeriesValue(val, abs_error)


@lru_cache(maxsize=16)
def _cos_log_sin(q: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n = 1..(q-1)//2, cos(2 pi m/q) for m < q and log sin(pi n/q), scalar-built."""
    n = np.arange(1, (q - 1) // 2 + 1, dtype=np.int64)
    cos_tab = np.array([math.cos(TWO_PI * m / q) for m in range(q)], dtype=np.float64)
    log_sin = np.array([math.log(math.sin(PI * k / q)) for k in n.tolist()], dtype=np.float64)
    for arr in (n, cos_tab, log_sin):
        arr.flags.writeable = False
    return n, cos_tab, log_sin


def digamma_rational(a: int, q: int) -> SeriesValue:
    """Digamma at the rational point a/q via the finite cosine-log formula.

    Exact closed form for 1 <= a <= q; all terms are accumulated with
    compensated summation, keeping the absolute error at the 1e-15 scale
    for the modulus sizes used in this package. The cosines and log-sines
    come from one table per q, each entry built by the scalar math
    functions, so every term is the same float as when computed alone.
    """
    if not (isinstance(a, (int, np.integer)) and isinstance(q, (int, np.integer))):
        raise DomainError("arguments must be integers")
    if q < 1 or a < 1 or a > q:
        raise DomainError("need 1 <= a <= q, got a=%r q=%r" % (a, q))
    if a == q:
        return SeriesValue(-EULER_GAMMA, 5e-16)

    terms = [-EULER_GAMMA, -math.log(2.0 * q)]
    if 2 * a != q:
        terms.append(-(PI / 2.0) / math.tan(PI * a / q))
    n, cos_tab, log_sin = _cos_log_sin(int(q))
    terms += (2.0 * cos_tab[n * int(a) % q] * log_sin).tolist()
    value = math.fsum(terms)
    # Rounding grows with the number of cosine-log terms and, near the
    # pole at 0, with the magnitude of the value itself.
    abs_error = min(1e-14, 4e-15 + 1.5e-17 * q) + 4e-16 * abs(value)
    return SeriesValue(value, abs_error)


def trivial_zero_tail(x: float) -> SeriesValue:
    """Sum of x^(-2n-1) / (2n(2n+1)) over n >= 1, for x > 1.

    Equals -(1/(2x)) log(1 - x^-2) - atanh(1/x) + 1/x in closed form; the
    direct positive series is summed here because it is cancellation-free at
    every x, and the closed form is used only very close to x = 1 where the
    series slows down.
    """
    x = float(x)
    if not x > 1.0:
        raise DomainError("need x > 1, got %r" % (x,))
    u = 1.0 / x
    u2 = u * u
    if u2 > 0.9:
        # x < ~1.054: closed form, no meaningful cancellation in this range.
        value = -0.5 * u * math.log1p(-u2) - (math.atanh(u) - u)
        return SeriesValue(value, 1e-14 * (1.0 + abs(value)))

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
    return SeriesValue(value, tail_bound + 1e-16 * value)


# B_2 and |B_4|: the Euler-Maclaurin tail of kappa_series_direct keeps the
# B_2 correction and bounds its remainder through B_4.
_EM_B2 = 1.0 / 6.0
_EM_B4 = 1.0 / 30.0

# Most terms kappa_series_direct sums directly. The techlem1 grid needs at
# most 2,403 (kappa = 0 at tail_tol = 1e-15).
MAX_KAPPA_TERMS = 10 ** 7


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
    terms = np.real(a / ((a + 2.0 * n) * (a + n))).tolist()
    near, far = n_em + a / 2.0, n_em + a
    terms.append(cmath.log(far / near).real)  # integral_N^inf f
    terms.append((a / (4.0 * near * far)).real)  # f(N)/2
    terms.append((_EM_B2 / 2.0 * (1.0 / (near * near) - 1.0 / (far * far))).real)
    value = math.fsum(terms)
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
        core = (cmath.exp(-k * big_l) - 1.0) / (k * (k + 1.0))
    return abs(core) * LOG_3 / (2.0 * big_l)


def chandee_margin(z: Number) -> float:
    """log|z| - Re digamma(z) on the half-plane Re z >= 1/4.

    The audited inequality asserts the margin is nonnegative there.
    """
    w = complex(z)
    if w.real < 0.25:
        raise DomainError("need Re z >= 1/4, got %r" % (z,))
    psi = digamma(w).value
    return math.log(abs(w)) - complex(psi).real
