"""The NumPy kernels under the prime tables and the prime sums.

_odd_primes is the sieve of every prime table: an Eratosthenes sieve with
one bool per odd integer, so a table to n holds n/2 bytes while it sieves
(100 MB at MAX_SIEVE_LIMIT = 2e8), and the primes it returns, 8 bytes each.

spf_array, the smallest prime factor of every integer as int32 (4 bytes per
integer), is no longer called by the package; the tests read primes off it
as a reference. It stamps 2 on every even slot, then each odd prime p up to
sqrt(limit), largest first, on every slot of spf[p*p::2p] by one plain
slice assignment. A smaller prime comes later and overwrites the slots it
shares, so each composite ends with its smallest factor; whatever odd slot
remains unstamped is prime.

exact_sum is math.fsum along the last axis of a float64 array, bit for bit,
done in a few whole-array passes (Rump, Ogita and Oishi, "Accurate
floating-point summation I", SIAM J. Sci. Comput. 2008). One error-free
extraction splits each row into high parts with an exact sum s1 and low
parts with |low| <= u sigma. That bound alone limits the error of the low
parts' float sum r, so when s1 + (r - e) and s1 + (r + e), two IEEE
additions, round to one float, the row is settled; in 2-D this is a few
array operations over all rows. Each row it leaves goes on by itself: its
low parts are split again, into an exact s2 and a rest that the same
a-priori bound, at the rest's own sigma, certifies with s1 + s2. Any row
neither certificate covers goes to math.fsum itself.
"""

import math
from typing import Union

import numpy as np

_SLICE = 1 << 15  # odd slots filled at once; bounds the temporaries
# cells split at once in exact_sum's second split: its one temporary, 64 KiB,
# stays in cache and below glibc's 128 KiB threshold for a fresh mapping,
# whose page faults cost more than the split
_BLOCK = 1 << 13

# exact_sum only splits terms and sigmas with magnitudes in this range, so
# no extraction underflows and no partial sum of fsum can overflow
_TINY = 2.0 ** -900
_HUGE = 2.0 ** 900
_U = 2.0 ** -53  # unit roundoff of float64


def _odd_primes(n: int) -> np.ndarray:
    """The odd primes up to n, ascending, as int64.

    One bool per odd integer: slot i is 2i + 1, and each odd prime p up to
    sqrt(n) marks its odd multiples from p*p on, slots p*p//2, p*p//2 + p, ...
    The marks are inverted in place, so no second array the size of the
    sieve is made.
    """
    comp = np.zeros((n + 1) // 2, dtype=bool)
    comp[:1] = True  # 1 is not prime
    for p in range(3, math.isqrt(n) + 1, 2):
        if not comp[p // 2]:
            comp[p * p // 2:: p] = True
    odd = np.flatnonzero(np.logical_not(comp, out=comp))
    odd *= 2
    odd += 1
    return odd


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


def _radius(n: int, sigma):
    """e = 2 n^2 u^2 sigma, a priori, with no pass over the parts: n parts
    each at most u sigma have a float sum within (n - 1) u n u sigma /
    (1 - (n - 1) u) <= e of their exact sum, with the one rounding of
    2n * n inside the factor of 2. sigma is a float or an array."""
    return 2.0 * n * n * _U * _U * sigma


def _second_split(terms: np.ndarray, s1: float, low: np.ndarray, m: int) -> float:
    """math.fsum of the 1-D row terms, given s1 and low from its first split.

    low, which the caller hands over, is split again in place, _BLOCK cells
    at a time, at its own sigma = 2^(k + m) with top < 2^k: each high part
    is a multiple of ulp(sigma)/2 no larger than sigma / (n + 2), so their
    sum s2 is exact in any order (ExtractVector), and the rest is at most
    u sigma. With e = _radius(n, sigma) around the rest's float sum r,
    s1 + s2 + rest is returned when fsum of s1, s2 and each end of r -+ e
    rounds to one nonzero float. A rest of zeros leaves s1 + s2, one
    rounding. Any other row goes to math.fsum.
    """
    n = low.size
    top = max(np.maximum.reduce(low), -np.minimum.reduce(low))
    if 0.0 < top < _TINY:  # a rest below 2^-900 is not split again
        return math.fsum(terms.tolist())
    # a zero low splits into zeros: s2 = r = 0
    sigma = math.ldexp(1.0, math.frexp(top)[1] + m)
    s2 = r = 0.0
    for lo in range(0, n, _BLOCK):
        block = low[lo:lo + _BLOCK]
        high = block + sigma
        high -= sigma
        s2 += float(np.add.reduce(high))  # a partial sum of high parts: exact
        r += float(np.add.reduce(np.subtract(block, high, out=block)))
        del high  # before the next block's: one block is held at a time
    e = _radius(n, sigma)
    below = math.fsum((s1, s2, math.nextafter(r - e, -math.inf)))
    above = math.fsum((s1, s2, math.nextafter(r + e, math.inf)))
    if below != above and not low.any():  # the splits caught every bit
        below = above = s1 + s2
    return below if below == above != 0.0 else math.fsum(terms.tolist())


def exact_sum(terms: np.ndarray) -> Union[float, np.ndarray]:
    """math.fsum(row.tolist()) along the last axis of a float64 array, bit for bit.

    A 1-D array gives one float; a 2-D array gives one float64 per row;
    any other shape is a ValueError. After one split each row's value is
    s1 + low, and it is returned when s1 plus the float sum of low, with
    low's a-priori error bound added and taken away, rounds to one float.
    Each row this leaves goes on to _second_split by itself; signed zeros,
    non-finite terms, fsum's OverflowError and every uncertified row come
    from math.fsum itself.
    """
    if terms.ndim not in (1, 2):
        raise ValueError(f"exact_sum sums a 1-D or 2-D array, not a {terms.ndim}-D one")
    n = terms.shape[-1]
    if not n:  # math.fsum of no terms
        return 0.0 if terms.ndim == 1 else np.zeros(terms.shape[0])
    m = (n + 1).bit_length()  # 2^m >= n + 2
    # sigma <= 2^(m+1) top, so top <= 2^(899-m) keeps sigma <= 2^900
    cap = _HUGE * 2.0 ** -(m + 1)
    # every |low| <= u sigma, so the row's sum lies in s1 + [r - e, r + e]
    # with e = _radius(n, sigma), and each end below is one IEEE addition
    # of two floats, correctly rounded: when both ends round to one float,
    # so does the sum. That float is never a zero, because two floats add
    # to 0 only when their exact sum is 0, and the ends differ.
    if terms.ndim == 1:
        # Python floats from here: the prime sums make hundreds of 1-D calls
        # per run, and each NumPy call on a scalar adds to their fixed cost
        top = max(np.maximum.reduce(terms), -np.minimum.reduce(terms))  # nan with a nan term
        if not _TINY <= top <= cap:
            return math.fsum(terms.tolist())
        sigma = math.ldexp(1.0, math.frexp(top)[1] + m)
        high = terms + sigma
        high -= sigma
        s1 = float(np.add.reduce(high))
        low = np.subtract(terms, high, out=high)
        r = float(np.add.reduce(low))
        e = _radius(n, sigma)
        below = s1 + math.nextafter(r - e, -math.inf)
        if below == s1 + math.nextafter(r + e, math.inf):
            return below
        return _second_split(terms, s1, low, m)
    # max |term| of each row (nan with a nan), with no np.abs temporary
    tops = np.maximum(np.maximum.reduce(terms, 1), -np.minimum.reduce(terms, 1))
    split = (tops >= _TINY) & (tops <= cap)  # False on a row with a term that is not finite
    good = terms
    if not split.all():
        # zeroed, these rows split harmlessly; math.fsum sums them below
        good = np.where(split[:, None], terms, 0.0)
        tops[~split] = 0.0
    sigma = np.ldexp(1.0, np.frexp(tops)[1] + m)
    high = good + sigma[:, None]
    high -= sigma[:, None]
    s1 = np.add.reduce(high, 1)
    low = np.subtract(good, high, out=high)
    e = _radius(n, sigma)
    r = np.add.reduce(low, 1)
    below = s1 + np.nextafter(r - e, -np.inf)
    done = split & (below == s1 + np.nextafter(r + e, np.inf))
    for i in np.flatnonzero(~done).tolist():
        row = terms[i]
        below[i] = _second_split(row, s1[i], low[i], m) if split[i] else math.fsum(row.tolist())
    return below
