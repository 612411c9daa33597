"""The two NumPy kernels under the prime tables and the prime sums.

spf_array is an Eratosthenes sieve over the odd slots: 2 is stamped on every
even slot, then each odd prime p up to sqrt(limit), largest first, on every
slot of spf[p*p::2p] by one plain slice assignment. A smaller prime comes
later and overwrites the slots it shares, so each composite ends with its
smallest factor; whatever odd slot remains unstamped is prime.

exact_sum is math.fsum along the last axis of a float64 array, bit for bit,
done in a few whole-array passes (Rump, Ogita and Oishi, "Accurate
floating-point summation I", SIAM J. Sci. Comput. 2008): two error-free
extractions give exact partial sums s1 and s2 of each row, and a rigorous
error bound on the row's rest certifies that s1 + s2 + rest rounds to one
float. Any row the certificate does not cover goes to math.fsum itself.
"""

import math
from typing import List, Union

import numpy as np

_SLICE = 1 << 15  # odd slots filled at once; bounds the temporaries

# exact_sum only splits terms and sigmas with magnitudes in this range, so
# no extraction underflows and no partial sum of fsum can overflow
_TINY = 2.0 ** -900
_HUGE = 2.0 ** 900
_U = 2.0 ** -53  # unit roundoff of float64


def _odd_primes(n: int) -> np.ndarray:
    """The odd primes up to n, ascending, from a bool sieve of n + 1 slots."""
    comp = np.zeros(n + 1, dtype=bool)
    for p in range(3, math.isqrt(n) + 1, 2):
        if not comp[p]:
            comp[p * p:: 2 * p] = True
    return np.flatnonzero(~comp[3::2]) * 2 + 3


def spf_array(limit: int) -> np.ndarray:
    """Smallest prime factor of every n in [0, limit]; 0 below 2."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    spf[2::2] = 2
    odd = spf[1::2]  # odd[i] is spf[2i + 1]
    for p in _odd_primes(math.isqrt(limit))[::-1].tolist():
        odd[p * p // 2:: p] = p
    for lo in range(1, odd.size, _SLICE):  # odd[0] is n = 1
        seg = odd[lo:lo + _SLICE]
        unmarked = np.flatnonzero(seg == 0)
        seg[unmarked] = 2 * (unmarked + lo) + 1
    return spf


def _extract(rows: np.ndarray, tops: List[float], m: int):
    """(exact row sums of the high parts, low parts) of rows split at sigma.

    Each row has its own sigma = 2^(e + m) with top < 2^e and 2^m >= n, so
    every high part is a multiple of ulp(sigma)/2 no larger than sigma / n:
    any summation order is exact, rows == high + low exactly and
    |low| <= u sigma (ExtractVector). The caller keeps 2^-900 <= top and
    sigma <= 2^900 on every row whose result it uses.
    """
    sigma = np.array([math.ldexp(1.0, math.frexp(t)[1] + m) for t in tops])[:, None]
    high = rows + sigma
    high -= sigma
    return np.add.reduce(high, 1).tolist(), np.subtract(rows, high, out=high)


def exact_sum(terms: np.ndarray) -> Union[float, np.ndarray]:
    """math.fsum(row.tolist()) along the last axis of a float64 array, bit for bit.

    A 1-D array gives one float; a 2-D array gives one float64 per row.
    After two splits each row's value is s1 + s2 + rest. It is returned
    only when that sum, with the rest's error bound added and taken away,
    rounds to one nonzero float; signed zeros, non-finite terms, fsum's
    OverflowError and every uncertified row come from math.fsum itself.
    """
    n = terms.shape[-1]
    if not n:  # math.fsum of no terms
        return 0.0 if terms.ndim == 1 else np.zeros(terms.shape[:-1])
    rows = terms.reshape(-1, n)
    m = n.bit_length() + 1  # 2^m >= n + 2
    # sigma <= 2^(m+1) top, so top <= 2^(899-m) keeps sigma <= 2^900
    cap = _HUGE * 2.0 ** -(m + 1)
    # ufunc reductions: the ndarray methods add a fixed cost to every call,
    # and the prime sums make hundreds of 1-D calls per run
    tops = np.maximum.reduce(np.abs(rows), 1).tolist()  # not finite on a row with a term that is not
    split = [_TINY <= t <= cap for t in tops]
    good = rows
    if not all(split):
        # zeroed, these rows split harmlessly; math.fsum sums them below
        good = np.where(np.array(split)[:, None], rows, 0.0)
        tops = [t if ok else 0.0 for t, ok in zip(tops, split)]
    s1, rest = _extract(good, tops, m)
    tops = np.maximum.reduce(np.abs(rest), 1).tolist()  # <= u sigma, so below the cap
    # a row with top == 0 splits into zeros: s2 = 0 and the rest stays
    s2, rest = _extract(rest, tops, m)
    r = np.add.reduce(rest, 1).tolist()
    mag = np.add.reduce(np.abs(rest, out=rest), 1).tolist()
    # |r - sum(rest)| <= (n - 1) u sum|rest| / (1 - (n - 1) u) <= e, with
    # the rounding of e's own sum and product inside the factor of 2
    scale = 2.0 * n * _U
    sums = []
    for i, (ok, a, b, t, g, c) in enumerate(zip(split, s1, s2, tops, mag, r)):
        ok = ok and not 0.0 < t < _TINY  # a rest below 2^-900 is not split again
        if ok and g == 0.0:  # the splits caught every bit; one addition rounds it
            below = above = a + b
        elif ok:
            e = scale * g
            below = math.fsum((a, b, math.nextafter(c - e, -math.inf)))
            above = math.fsum((a, b, math.nextafter(c + e, math.inf)))
        sums.append(below if ok and below == above != 0.0 else math.fsum(rows[i].tolist()))
    return sums[0] if terms.ndim == 1 else np.array(sums, dtype=np.float64)
