"""The one sieve backend: its name, and bitwise parity with the NumPy fallback it replaced."""

import hashlib
import tracemalloc

import numpy as np

import edgebounds
from edgebounds import _kernel
from edgebounds.primes import build_table

# sha256 of the int32 table that the former NumPy fallback `_spf_fallback.spf_array(200000)`
# returned; the compiled backend agreed with it bitwise.
_FALLBACK_SPF_200000_SHA256 = "635f810180ba6b4eb5b9a86f05fad3dbd97715443380130186502fcba354b8a4"


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def test_backend_name_is_known():
    assert edgebounds.kernel_backend() == "python"


def test_fallback_matches_dispatch():
    a = _kernel.spf_array(200000)
    assert a.dtype == np.int32
    assert _digest(a) == _FALLBACK_SPF_200000_SHA256
    # the table keeps the primes read off this sieve, not the sieve itself
    n = np.arange(200001)
    want = n[(n >= 2) & (a == n)]
    assert np.array_equal(build_table(200000).primes, want)


def test_sieve_temporaries_are_bounded():
    # every prime is stamped and the final scan made a fixed slice at a
    # time, so no mask or index array grows with the sieve
    limit = 2 * 10 ** 6
    tracemalloc.start()
    try:
        _kernel.spf_array(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 4 * (limit + 1) < 2 ** 18


def test_prime_scan_temporaries_are_bounded():
    # the odd-only sieve is one bool per odd integer, inverted in place and
    # freed before the table is made: at most the sieve and the odd primes,
    # or the odd primes and the table, are held at once
    limit = 2 * 10 ** 6
    tracemalloc.start()
    try:
        primes = build_table(limit).primes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - max(limit // 2 + 1 + primes.nbytes, 2 * primes.nbytes) < 2 ** 18
