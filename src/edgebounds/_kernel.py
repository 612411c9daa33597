"""The two NumPy kernels under the prime tables and the prime sums.

spf_array is a masked-assignment Eratosthenes sieve: for each prime p up to
sqrt(limit), stamp p into the still-unstamped slots of spf[p*p::p], a fixed
slice at a time; whatever remains unstamped at the end is prime.

exact_sum is math.fsum for a float64 array, bit for bit, done in a few
whole-array passes (Rump, Ogita and Oishi, "Accurate floating-point
summation I", SIAM J. Sci. Comput. 2008): two error-free extractions give
exact partial sums s1 and s2, and a rigorous error bound on the rest
certifies that s1 + s2 + rest rounds to one float. Any case the certificate
does not cover goes to math.fsum itself.
"""

import math

import numpy as np

_SLICE = 1 << 16  # slots stamped or scanned at once; bounds the temporaries

# exact_sum only splits terms and sigmas with magnitudes in this range, so
# no extraction underflows and no partial sum of fsum can overflow
_TINY = 2.0 ** -900
_HUGE = 2.0 ** 900
_U = 2.0 ** -53  # unit roundoff of float64


def spf_array(limit: int) -> np.ndarray:
    """Smallest prime factor of every n in [0, limit]; 0 below 2."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    spf[4::2] = 2  # p = 2 meets only unstamped slots
    for p in range(3, int(limit ** 0.5) + 1, 2):
        if spf[p] == 0:
            multiples = spf[p * p:: p]
            for lo in range(0, multiples.size, _SLICE):
                block = multiples[lo:lo + _SLICE]
                block[block == 0] = p
    for lo in range(2, limit + 1, _SLICE):
        seg = spf[lo:lo + _SLICE]
        unmarked = np.flatnonzero(seg == 0)
        seg[unmarked] = unmarked + lo
    return spf


def _extract(terms: np.ndarray, top: float, m: int):
    """(exact sum of the high parts, low parts) of terms split at sigma.

    sigma = 2^(e + m) with top < 2^e and 2^m >= n, so every high part is a
    multiple of ulp(sigma)/2 no larger than sigma / n: any summation order
    is exact, terms == high + low exactly and |low| <= u sigma
    (ExtractVector). The caller keeps 2^-900 <= top and sigma <= 2^900.
    """
    sigma = math.ldexp(1.0, math.frexp(top)[1] + m)
    high = (sigma + terms) - sigma
    return float(high.sum()), terms - high


def exact_sum(terms: np.ndarray) -> float:
    """math.fsum(terms.tolist()) for a 1-D float64 array, bit for bit.

    After two splits the value is s1 + s2 + rest. It is returned only when
    that sum, with the rest's error bound added and taken away, rounds to
    one nonzero float; signed zeros, non-finite terms, fsum's OverflowError
    and every uncertified sum come from math.fsum itself.
    """
    n = terms.size
    m = n.bit_length() + 1  # 2^m >= n + 2
    # sigma <= 2^(m+1) top, so top <= 2^(899-m) keeps sigma <= 2^900
    cap = _HUGE * 2.0 ** -(m + 1)
    top = float(np.abs(terms).max()) if n else 0.0  # not finite if a term is not
    if not _TINY <= top <= cap:
        return math.fsum(terms.tolist())
    s1, rest = _extract(terms, top, m)
    top = float(np.abs(rest).max())  # <= u sigma, so below the cap
    s2 = 0.0
    if top != 0.0:
        if top < _TINY:
            return math.fsum(terms.tolist())
        s2, rest = _extract(rest, top, m)
    mag = float(np.abs(rest).sum())
    if mag == 0.0:  # the splits caught every bit; one addition rounds it
        below = above = s1 + s2
    else:
        # |r - sum(rest)| <= (n - 1) u sum|rest| / (1 - (n - 1) u) <= e, with
        # the rounding of e's own sum and product inside the factor of 2
        r = float(rest.sum())
        e = 2.0 * n * _U * mag
        below = math.fsum((s1, s2, math.nextafter(r - e, -math.inf)))
        above = math.fsum((s1, s2, math.nextafter(r + e, math.inf)))
    if below == above != 0.0:
        return below
    return math.fsum(terms.tolist())
