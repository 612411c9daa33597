"""Smallest-prime-factor sieve in NumPy.

Masked-assignment Eratosthenes: for each prime p up to sqrt(limit), stamp p
into the still-unstamped slots of spf[p*p::p]; whatever remains unstamped at
the end is prime.
"""

import numpy as np

_SLICE = 1 << 16  # slots scanned at once for primes; bounds the temporaries


def spf_array(limit: int) -> np.ndarray:
    """Smallest prime factor of every n in [0, limit]; 0 below 2."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    spf[4::2] = 2  # p = 2 meets only unstamped slots
    for p in range(3, int(limit ** 0.5) + 1, 2):
        if spf[p] == 0:
            block = spf[p * p:: p]
            block[block == 0] = p
    for lo in range(2, limit + 1, _SLICE):
        seg = spf[lo:lo + _SLICE]
        unmarked = np.flatnonzero(seg == 0)
        seg[unmarked] = unmarked + lo
    return spf
