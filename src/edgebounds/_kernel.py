"""Smallest-prime-factor sieve in NumPy.

Masked-assignment Eratosthenes: for each prime p up to sqrt(limit), stamp p
into the still-unstamped slots of spf[p*p::p]; whatever remains unstamped at
the end is prime.
"""

import numpy as np


def spf_array(limit: int) -> np.ndarray:
    """Smallest prime factor of every n in [0, limit]; 0 below 2."""
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, int(limit ** 0.5) + 1):
        if spf[p] == 0:
            block = spf[p * p:: p]
            block[block == 0] = p
    unmarked = np.nonzero(spf[2:] == 0)[0]
    spf[unmarked + 2] = (unmarked + 2).astype(np.int32)
    return spf
