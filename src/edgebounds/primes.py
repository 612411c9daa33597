"""Prime-power tables and the three weighted prime sums used by the audits.

A table is the list of primes up to its limit. Prime powers up to x are
enumerated per exponent, term arrays are built vectorized, and every final
reduction is _kernel.exact_sum, which returns math.fsum's correctly rounded
value in a few whole-array passes, so results do not depend on term order
and are identical across runs.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import _kernel
from .constants import B_ZERO_SUM, EULER_GAMMA, LOG_2PI, TWO_PI
from .errors import DomainError, ResourceBudgetError
from .special import trivial_zero_tail

# a table to this limit sieves with 100 MB and keeps 11,078,937 primes (89 MB)
MAX_SIEVE_LIMIT = 200_000_000


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """The primes up to limit, ascending, as a read-only int64 array."""

    limit: int
    primes: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class WeightedSumResult:
    """Sieve value of a weighted prime sum next to one model main term."""

    x: float
    lhs: float
    main: float
    window: float
    residual: float

    def __post_init__(self) -> None:
        if self.window < 0.0 or not math.isfinite(self.residual):
            raise DomainError("window must be >= 0 and residual finite")

    def within_window(self) -> bool:
        return abs(self.residual) <= self.window


def table_limit(x: float, sieve_limit: Optional[int] = None) -> int:
    """sieve_limit, else the least table holding every p^k <= x, within the budget.

    A non-finite x is refused first, with or without sieve_limit.
    """
    if not math.isfinite(x):
        raise DomainError("need a finite x, got %r" % (x,))
    return checked_limit(max(2, math.ceil(x)) if sieve_limit is None else sieve_limit)


def checked_limit(limit: int) -> int:
    """limit as an int, once it is known to fit the sieve budget."""
    limit = int(limit)
    if limit < 2:
        raise DomainError("need limit >= 2, got %r" % (limit,))
    if limit > MAX_SIEVE_LIMIT:
        raise ResourceBudgetError(
            "sieve limit %d exceeds the %d budget" % (limit, MAX_SIEVE_LIMIT)
        )
    return limit


def build_table(limit: int) -> PrimeTable:
    """The primes up to limit: 2, then _kernel._odd_primes(limit).

    The odd-only sieve holds limit/2 bytes, 100 MB at MAX_SIEVE_LIMIT, and
    is freed before the table is made.
    """
    limit = checked_limit(limit)
    primes = np.concatenate(([2], _kernel._odd_primes(limit)))
    primes.flags.writeable = False  # shared by every grid of this table
    return PrimeTable(limit=limit, primes=primes)


def factorize(n: int) -> List[Tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1 by trial division, primes ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime_power(n: int) -> bool:
    """True when n = p^k for a prime p and k >= 1, by trial division."""
    n = int(n)
    return n >= 2 and len(factorize(n)) == 1


def check_table_x(x: float, limit: int) -> float:
    """float(x), once it is known to be finite and not beyond a table sieved to limit."""
    xf = float(x)
    if not math.isfinite(xf):
        raise DomainError("need a finite x, got %r" % (x,))
    if xf > limit:
        raise DomainError("x=%r beyond table limit %d" % (x, limit))
    return xf


def prime_power_grid(tbl: PrimeTable, x: float):
    """Arrays (primes p, values p^k, exponent k) for every p^k <= x."""
    xf = check_table_x(x, tbl.limit)
    out = []
    k = 1
    while 2.0 ** k <= xf:
        approx = xf ** (1.0 / k)
        # the primes <= approx + 2, a prefix of the ascending list
        cand = tbl.primes[:np.searchsorted(tbl.primes, math.floor(approx + 2.0), side="right")]
        if cand.size:
            pk = cand ** k
            keep = pk <= xf
            if np.any(keep):
                out.append((cand[keep], pk[keep], k))
        k += 1
    return out


def flat_prime_powers(grid) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log p, p^k, k) over a prime_power_grid, flat in its order.

    log p is float64; p^k and k are int64, and p^k <= MAX_SIEVE_LIMIT keeps
    p^k and k p^k exact as float64.
    """
    if not grid:
        return np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    p, pk, k = (
        np.concatenate(seg)
        for seg in zip(*((p, pk, np.full(p.size, k, dtype=np.int64)) for p, pk, k in grid))
    )
    return np.log(p.astype(np.float64)), pk, k


def psi_total(tbl: PrimeTable, x: float) -> float:
    """Sum of log p over prime powers p^k <= x."""
    return _kernel.exact_sum(flat_prime_powers(prime_power_grid(tbl, x))[0])


def check_linear_x(x: float) -> float:
    """float(x), once it is known to be > 1, as smoothed_sum_linear needs."""
    xf = float(x)
    if not xf > 1.0:
        raise DomainError("need x > 1, got %r" % (x,))
    return xf


def smoothed_sum_linear(tbl: PrimeTable, x: float) -> dict:
    """Sum of log(p)/p^k * (1 - p^k/x), with both model main terms.

    Returns {"two_pi": ..., "log_two_pi": ...}: the same sieve value against
    the main term with a 2*pi/x correction and against the residue-derived
    log(2*pi)/x correction. The window is the proven 2|B|/sqrt(x) allowance;
    exactly one variant is expected to sit inside it at small x.
    """
    xf = check_linear_x(x)
    lp, pk, _k = flat_prime_powers(prime_power_grid(tbl, x))
    lhs = _kernel.exact_sum(lp * (1.0 / pk - 1.0 / xf))

    base = math.log(xf) - (1.0 + EULER_GAMMA) - trivial_zero_tail(xf).value
    window = 2.0 * abs(B_ZERO_SUM) / math.sqrt(xf)
    out = {}
    for label, corr in (("two_pi", TWO_PI), ("log_two_pi", LOG_2PI)):
        main = base + corr / xf
        out[label] = WeightedSumResult(
            x=xf, lhs=lhs, main=main, window=window, residual=lhs - main
        )
    return out


def smoothed_sum_log(tbl: PrimeTable, x: float) -> dict:
    """Sum of 1/(k p^k) * (1 - log(p^k)/log x), with both sign variants.

    Returns {"minus_gamma": ..., "plus_gamma": ...} for the main terms
    loglog x -/+ gamma - 1 + gamma/log x. The window is
    2|B|/(sqrt(x) log^2 x) + 1/(3 x^3 log^2 x).
    """
    xf = float(x)
    if xf < math.e:
        raise DomainError("need x >= e, got %r" % (x,))
    logx = math.log(xf)
    lp, pk, k = flat_prime_powers(prime_power_grid(tbl, x))
    lhs = _kernel.exact_sum((1.0 - k * lp / logx) / (k * pk))

    window = 2.0 * abs(B_ZERO_SUM) / (math.sqrt(xf) * logx * logx) + 1.0 / (
        3.0 * xf ** 3 * logx * logx
    )
    out = {}
    for label, sign in (("minus_gamma", -1.0), ("plus_gamma", 1.0)):
        main = math.log(logx) + sign * EULER_GAMMA - 1.0 + EULER_GAMMA / logx
        out[label] = WeightedSumResult(
            x=xf, lhs=lhs, main=main, window=window, residual=lhs - main
        )
    return out


def alternating_prime_power_sum(tbl: PrimeTable, x: float) -> float:
    """Sum over p^k <= x of (-1)^k (1/(k p^k) - log(p) / (x log x)).

    x itself must not be a prime power (integral x is checked exactly;
    non-integral x always passes).
    """
    xf = float(x)
    if xf < 2.0:
        raise DomainError("need x >= 2, got %r" % (x,))
    lp, pk, k = flat_prime_powers(prime_power_grid(tbl, x))  # refuses x beyond the table first
    if xf == math.floor(xf) and is_prime_power(int(xf)):
        raise DomainError("x=%r is a prime power" % (x,))

    c = 1.0 / (xf * math.log(xf))
    sign = np.where(k % 2 == 1, -1.0, 1.0)
    return _kernel.exact_sum(sign * (1.0 / (k * pk) - lp * c))
