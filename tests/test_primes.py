"""Prime table layer: sieve correctness, Chebyshev sums, smoothed sums."""

import math

import numpy as np
import pytest

import edgebounds
from edgebounds import (
    DomainError,
    ResourceBudgetError,
    _kernel,
    alternating_prime_power_sum,
    build_table,
    is_prime_power,
    prime_power_grid,
    psi_total,
    smoothed_sum_linear,
    smoothed_sum_log,
)
from edgebounds.primes import (
    MAX_SIEVE_LIMIT,
    WeightedSumResult,
    check_table_x,
    factorize,
    flat_prime_powers,
)


def _naive_spf(n):
    for p in range(2, n + 1):
        if n % p == 0:
            return p
    return 0


def test_spf_matches_trial_division():
    assert edgebounds.kernel_backend() == "python"
    for limit in (3000, 200_000):
        spf = _kernel.spf_array(limit)
        assert spf.dtype == np.int32 and spf[0] == 0 and spf[1] == 0
        n = np.arange(2, limit + 1)
        p = spf[2:].astype(np.int64)
        assert np.all(n % p == 0)
        assert np.all(spf[p] == p)
        assert np.all((p * p <= n) | (p == n))
        # no smaller prime divides n: trial division by each prime <= sqrt(limit)
        for q in range(2, math.isqrt(limit) + 1):
            if _naive_spf(q) == q:
                assert not np.any((n % q == 0) & (p > q)), (limit, q)


def test_prime_list_matches_naive():
    naive = [n for n in range(2, 3001) if _naive_spf(n) == n]
    tbl = build_table(3000)
    assert tbl.primes.dtype == np.int64
    assert tbl.primes.tolist() == naive


def _spf_primes(limit):
    """The primes up to limit read off the smallest-prime-factor sieve: spf[n] == n."""
    spf = _kernel.spf_array(limit)
    n = np.arange(limit + 1)
    return n[(n >= 2) & (spf == n)]


def test_odd_only_sieve_matches_spf_sieve():
    # the table's odd-only bool sieve against the primes of spf_array, at
    # every limit to 3000 (each side of 3^2 .. 53^2) and two past 10^6
    for limit in list(range(2, 3001)) + [10 ** 6, 2 * 10 ** 6 + 3]:
        primes = build_table(limit).primes
        assert primes.dtype == np.int64, limit
        assert np.array_equal(primes, _spf_primes(limit)), limit


def test_sieve_edges_match_trial_division():
    # every small limit, and each side of every square of a prime <= 200,
    # where a sieving prime starts to mark
    small = [n for n in range(2, 201) if _naive_spf(n) == n]
    top = 199 ** 2 + 1
    ref = np.zeros(top + 1, dtype=np.int32)
    for n in range(2, top + 1):
        ref[n] = n
        for p in small:
            if p * p > n:
                break
            if n % p == 0:
                ref[n] = p
                break
    limits = set(range(2, 1001)) | {p * p + d for p in small for d in (-1, 0, 1)}
    for limit in sorted(limits):
        spf = _kernel.spf_array(limit)
        assert spf.dtype == np.int32 and np.array_equal(spf, ref[:limit + 1]), limit
        want = np.flatnonzero(ref[:limit + 1] == np.arange(limit + 1))
        assert np.array_equal(build_table(limit).primes, want[want >= 2]), limit


def test_build_table_sieves_once(monkeypatch):
    calls = []

    def counted(limit):
        calls.append(limit)
        return sieve(limit)

    sieve = _kernel._odd_primes
    monkeypatch.setattr(_kernel, "_odd_primes", counted)
    build_table(10 ** 5)
    assert calls == [10 ** 5]


def test_table_primes_are_read_only():
    tbl = build_table(100)
    with pytest.raises(ValueError):
        tbl.primes[0] = 3
    assert tbl.primes[0] == 2


def _mask_cut_grid(tbl, x):
    """prime_power_grid with each exponent's primes cut by a mask of the whole list."""
    xf = float(x)
    out = []
    k = 1
    while 2.0 ** k <= xf:
        approx = xf ** (1.0 / k)
        cand = tbl.primes[tbl.primes <= approx + 2.0]
        if cand.size:
            pk = cand ** k
            keep = pk <= xf
            if np.any(keep):
                out.append((cand[keep], pk[keep], k))
        k += 1
    return out


def test_prime_power_grid_equals_mask_cut(table4):
    ps = table4.primes.tolist()
    xs = {float(table4.limit)}
    for p in ps[:30] + ps[-30:]:
        k = 1
        while p ** k <= table4.limit:
            for v in (p ** k, (p - 2) ** k):  # at a prime power, and where approx + 2 meets p
                xs.update((v, v - 0.5, v + 0.5, math.nextafter(v, -math.inf), math.nextafter(v, math.inf)))
            k += 1
        xs.update((p - 2.0, p - 1.5, p + 1.5, p + 2.0))  # within 2 of a prime
    for x in sorted(v for v in xs if v <= table4.limit):
        got, want = prime_power_grid(table4, x), _mask_cut_grid(table4, x)
        assert [k for _, _, k in got] == [k for _, _, k in want], x
        for (p, pk, _), (wp, wpk, _) in zip(got, want):
            assert p.dtype == wp.dtype and pk.dtype == wpk.dtype, x
            assert np.array_equal(p, wp) and np.array_equal(pk, wpk), x


def test_build_table_budget():
    with pytest.raises(DomainError):
        build_table(1)
    with pytest.raises(ResourceBudgetError):
        build_table(MAX_SIEVE_LIMIT + 1)


def test_mangoldt_spot_values(table4):
    # Lambda(n) = log p on the prime-power grid the sums read, 0 off it
    lam = {}
    for p_arr, pk, _k in prime_power_grid(table4, table4.limit):
        lam.update(zip(pk.tolist(), np.log(p_arr.astype(np.float64)).tolist()))
    assert lam[8] == pytest.approx(math.log(2.0), rel=1e-15)
    assert lam[9] == pytest.approx(math.log(3.0), rel=1e-15)
    assert lam[97] == pytest.approx(math.log(97.0), rel=1e-15)
    assert 12 not in lam and 1 not in lam
    assert set(lam) == {n for n in range(1, table4.limit + 1) if is_prime_power(n)}
    # a prime beyond the table is off its grid, yet the predicate needs no table
    assert 10007 not in lam
    assert is_prime_power(10007) and factorize(10007) == [(10007, 1)]


def test_is_prime_power_flags():
    flags = {n: is_prime_power(n) for n in range(-3, 101)}
    truth = set()
    for p in range(2, 101):
        if _naive_spf(p) != p:
            continue
        pk = p
        while pk <= 100:
            truth.add(pk)
            pk *= p
    assert {n for n, f in flags.items() if f} == truth
    # no table bounds the argument: primes, prime powers and composites far out
    assert is_prime_power(10007) and is_prime_power(199999991)
    assert is_prime_power(14107 ** 2) and is_prime_power(2 ** 27)
    assert not is_prime_power(10007 * 10009) and not is_prime_power(199999992)


def test_prime_power_grid_structure(table4):
    blocks = list(prime_power_grid(table4, 100.0))
    ks = [k for _, _, k in blocks]
    assert ks == sorted(ks) and ks[0] == 1
    total = sum(len(pk) for _, pk, _ in blocks)
    assert total == 35  # 25 primes + 10 proper powers below 100
    p1, pk1, _ = blocks[0]
    assert np.array_equal(p1, pk1)
    assert len(p1) == 25
    # the flat form keeps the grid order, with p^k and k as integers
    lp, pk, k = flat_prime_powers(blocks)
    assert (lp.dtype, pk.dtype, k.dtype) == (np.float64, np.int64, np.int64)
    assert pk.tolist() == [v for _, pks, _ in blocks for v in pks.tolist()]
    assert k.tolist() == [kk for ps, _, kk in blocks for _ in ps]
    assert np.array_equal(lp, np.log([float(p) for ps, _, _ in blocks for p in ps]))
    assert [a.dtype for a in flat_prime_powers([])] == [np.float64, np.int64, np.int64]


def test_psi_total_frozen(table6):
    assert psi_total(table6, 100.0) == pytest.approx(94.0453112293574, rel=1e-14)
    assert psi_total(table6, 1000.0) == pytest.approx(996.6809122471752, rel=1e-14)
    assert psi_total(table6, 1e4) == pytest.approx(10013.396693263116, rel=1e-14)
    assert psi_total(table6, 1e6) == pytest.approx(999586.597495633, rel=1e-14)


def test_alternating_sum_frozen(table6):
    assert alternating_prime_power_sum(table6, 100.0) == pytest.approx(
        -1.4608015299488177, rel=1e-13
    )
    assert alternating_prime_power_sum(table6, 1000.0) == pytest.approx(
        -1.8836336927345507, rel=1e-13
    )


def test_smoothed_linear_variants_frozen(table6):
    pair = smoothed_sum_linear(table6, 100.0)
    two_pi, log_two_pi = pair["two_pi"], pair["log_two_pi"]
    assert two_pi.lhs == log_two_pi.lhs == pytest.approx(3.0451713875819264, rel=1e-13)
    assert two_pi.window == pytest.approx(0.004619141793224213, rel=1e-13)
    assert two_pi.residual == pytest.approx(-0.045614819904761905, rel=1e-12)
    assert log_two_pi.residual == pytest.approx(-0.0011617374970596117, rel=1e-12)
    assert not two_pi.within_window()
    assert log_two_pi.within_window()


def test_smoothed_log_variants_frozen(table6):
    pair = smoothed_sum_log(table6, 1e4)
    minus, plus = pair["minus_gamma"], pair["plus_gamma"]
    assert plus.lhs == pytest.approx(1.8602126240941768, rel=1e-13)
    assert plus.window == pytest.approx(5.445151081162462e-06, rel=1e-12)
    assert plus.residual == pytest.approx(-2.4170891532726557e-07, rel=1e-9)
    assert plus.within_window()
    assert minus.residual == pytest.approx(1.1544310880941502, rel=1e-12)
    assert not minus.within_window()


def test_non_finite_x_is_refused_by_every_table_read(table4):
    # nan > limit is false, so the limit check alone lets a nan x through
    reads = (
        lambda x: check_table_x(x, table4.limit),
        lambda x: prime_power_grid(table4, x),
        lambda x: psi_total(table4, x),
        lambda x: smoothed_sum_log(table4, x),
        lambda x: alternating_prime_power_sum(table4, x),
    )
    for x in (math.nan, math.inf):
        for read in reads:
            with pytest.raises(DomainError, match="need a finite x, got %r" % (x,)):
                read(x)


def test_weighted_sum_result_validation():
    with pytest.raises(DomainError):
        WeightedSumResult(x=100.0, lhs=1.0, main=1.0, window=-1e-9, residual=0.0)


def test_tail_reexport_is_same_function():
    assert edgebounds.primes.trivial_zero_tail is edgebounds.special.trivial_zero_tail
