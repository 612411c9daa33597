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
array operations over all rows. Only the rows it leaves go on: their low
parts are split again, into an exact s2 and a rest whose own measured bound
certifies s1 + s2 + rest. Any row neither certificate covers goes to
math.fsum itself.
"""

import math
from typing import List, Union

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


def _tops(rows: np.ndarray) -> np.ndarray:
    """max |term| of each row of a 2-D array (nan on a row with a nan), from
    two read-only reductions instead of an np.abs temporary."""
    return np.maximum(np.maximum.reduce(rows, 1), -np.minimum.reduce(rows, 1))


def _extract(rows: np.ndarray, tops: List[float], m: int) -> List[float]:
    """Exact row sums of the high parts of rows split at sigma; rows keep the low parts.

    Each row has its own sigma = 2^(e + m) with top < 2^e and 2^m >= n + 2,
    so every high part is a multiple of ulp(sigma)/2 no larger than
    sigma / (n + 2): any summation order is exact, rows == high + low
    exactly and |low| <= u sigma (ExtractVector). The caller keeps
    2^-900 <= top and sigma <= 2^900 on every row whose result it uses.
    The columns go in blocks of at most _BLOCK cells, so the only
    temporary stays small, and rows is overwritten in place.
    """
    sigma = np.array([math.ldexp(1.0, math.frexp(t)[1] + m) for t in tops])[:, None]
    sums = np.zeros(len(tops))
    step = max(1, _BLOCK // len(tops))
    for lo in range(0, rows.shape[1], step):
        block = rows[:, lo:lo + step]
        high = block + sigma
        high -= sigma
        sums += np.add.reduce(high, 1)  # a partial sum of high parts: exact
        np.subtract(block, high, out=block)
    return sums.tolist()


def _second_split(rows: np.ndarray, s1: List[float], rest: np.ndarray, m: int) -> List[float]:
    """math.fsum of each row of rows, given s1 and rest from its first split.

    rest, which the caller hands over, is split again in place into an
    exact s2 and a second rest, and a rigorous bound on that rest's float
    sum certifies that s1 + s2 + rest rounds to one nonzero float. Any row
    it does not certify goes to math.fsum.
    """
    n = rows.shape[1]
    tops = _tops(rest).tolist()  # <= u sigma, so below the cap
    # a row with top == 0 splits into zeros: s2 = 0 and the rest stays
    s2 = _extract(rest, tops, m)
    r = np.add.reduce(rest, 1).tolist()
    mag = np.add.reduce(np.abs(rest, out=rest), 1).tolist()
    # |r - sum(rest)| <= (n - 1) u sum|rest| / (1 - (n - 1) u) <= e, with
    # the rounding of e's own sum and product inside the factor of 2
    scale = 2.0 * n * _U
    sums = []
    for row, a, b, t, g, c in zip(rows, s1, s2, tops, mag, r):
        ok = not 0.0 < t < _TINY  # a rest below 2^-900 is not split again
        if ok and g == 0.0:  # the splits caught every bit; one addition rounds it
            below = above = a + b
        elif ok:
            e = scale * g
            below = math.fsum((a, b, math.nextafter(c - e, -math.inf)))
            above = math.fsum((a, b, math.nextafter(c + e, math.inf)))
        sums.append(below if ok and below == above != 0.0 else math.fsum(row.tolist()))
    return sums


def exact_sum(terms: np.ndarray) -> Union[float, np.ndarray]:
    """math.fsum(row.tolist()) along the last axis of a float64 array, bit for bit.

    A 1-D array gives one float; a 2-D array gives one float64 per row;
    any other shape is a ValueError. After one split each row's value is
    s1 + low, and it is returned when s1 plus the float sum of low, with
    low's a-priori error bound added and taken away, rounds to one float.
    The rows this leaves go on to _second_split; signed zeros,
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
    # every |low| <= u sigma, so |fl(sum low) - sum low| <= (n - 1) u n u
    # sigma / (1 - (n - 1) u) <= e = 2 n^2 u^2 sigma, with the one rounding
    # of 2n * n inside the factor of 2 (a priori: no pass over low). The
    # row's sum lies in s1 + [r - e, r + e], and each end below is one IEEE
    # addition of two floats, correctly rounded: when both ends round to
    # one float, so does the sum. That float is never a zero, because two
    # floats add to 0 only when their exact sum is 0, and the ends differ.
    scale = 2.0 * n * n * _U * _U
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
        e = scale * sigma
        below = s1 + math.nextafter(r - e, -math.inf)
        if below == s1 + math.nextafter(r + e, math.inf):
            return below
        return _second_split(terms[None], [s1], low[None], m)[0]
    tops = _tops(terms)
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
    e = scale * sigma
    r = np.add.reduce(low, 1)
    below = s1 + np.nextafter(r - e, -np.inf)
    done = split & (below == s1 + np.nextafter(r + e, np.inf))
    if done.all():
        return below
    again = np.flatnonzero(split & ~done)
    rest = low[again]
    del good, high, low  # the first split's temporaries go before the second
    if again.size:
        below[again] = _second_split(terms[again], s1[again].tolist(), rest, m)
    for i in np.flatnonzero(~split).tolist():
        below[i] = math.fsum(terms[i].tolist())
    return below
