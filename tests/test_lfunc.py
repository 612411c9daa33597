"""Instance model: local parameters, conductors, coefficient oracles."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgebounds import (
    DomainError,
    LFunctionInstance,
    SatakeLocal,
    analytic_conductor,
    dirichlet_instance,
    enumerate_characters,
    hecke_instance,
    t_aspect_conductor,
)
from edgebounds.audits import _window_weights


def test_satake_singleton_coefficients():
    loc = SatakeLocal(prime=2, alphas=(1.0,))
    assert all(loc.coefficient(k) == pytest.approx(1.0) for k in range(1, 8))
    loc = SatakeLocal(prime=3, alphas=(-1.0,))
    assert loc.coefficient(2) == pytest.approx(1.0)
    assert loc.coefficient(3) == pytest.approx(-1.0)


def test_satake_conjugate_pair_is_cosine():
    theta = 1.234
    loc = SatakeLocal(prime=5, alphas=(cmath.exp(1j * theta), cmath.exp(-1j * theta)))
    for k in range(1, 10):
        got = loc.coefficient(k)
        assert got == pytest.approx(2.0 * math.cos(k * theta), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=4), st.integers(1, 12))
def test_satake_unit_circle_coefficients_bounded(thetas, k):
    alphas = tuple(cmath.exp(1j * t) for t in thetas)
    loc = SatakeLocal(prime=7, alphas=alphas)
    assert abs(loc.coefficient(k)) <= len(alphas) + 1e-9


def test_satake_rejects_large_alpha():
    with pytest.raises(DomainError):
        SatakeLocal(prime=2, alphas=(1.5,))


def test_instance_validation():
    with pytest.raises(DomainError):
        LFunctionInstance(d=2, q=1, local_params=(0.0,))
    with pytest.raises(DomainError):
        LFunctionInstance(d=1, q=1, local_params=(-0.5,))
    with pytest.raises(DomainError):
        LFunctionInstance(d=0, q=1, local_params=())


def test_zero_param_count_exact_equality():
    inst = LFunctionInstance(d=3, q=1, local_params=(0.0, 1e-300, 2.0))
    assert inst.zero_param_count() == 1
    assert inst.nonzero_params() == (1e-300 + 0j, 2.0 + 0j)


def test_analytic_conductor_frozen_values():
    chi4 = [c for c in enumerate_characters(4) if c.primitive][0]
    chi3 = [c for c in enumerate_characters(3) if c.primitive][0]
    assert analytic_conductor(dirichlet_instance(chi4)) == pytest.approx(
        1.2732395447351628, rel=1e-14
    )
    assert analytic_conductor(dirichlet_instance(chi3)) == pytest.approx(
        0.954929658551372, rel=1e-14
    )
    assert analytic_conductor(hecke_instance(12, 1)) == pytest.approx(
        1.2348519256409916, rel=1e-14
    )
    assert analytic_conductor(hecke_instance(2, 11)) == pytest.approx(
        1.0448747063116084, rel=1e-14
    )


def test_hecke_instance_shape():
    inst = hecke_instance(1, 23)
    assert inst.d == 2 and inst.q == 23
    assert inst.local_params == (0.0 + 0j, 1.0 + 0j)
    assert inst.zero_param_count() == 1
    assert hecke_instance(12, 1).local_params == (5.5 + 0j, 6.5 + 0j)


def test_t_aspect_conductor_frozen_and_growth():
    unit = LFunctionInstance(d=1, q=1, local_params=(0.0,), label="unit")
    got = t_aspect_conductor(unit, 2.0)
    assert got == pytest.approx(0.3558812717085886, rel=1e-14)
    assert got == pytest.approx(math.sqrt(5.0) / (2.0 * math.pi), rel=1e-13)
    # degree-2 conductor grows like t^2 with the 1/(4 pi^2) constant
    inst = hecke_instance(12, 1)
    t = 1e8
    assert t_aspect_conductor(inst, t) / t**2 == pytest.approx(
        1.0 / (4.0 * math.pi**2), rel=1e-6
    )
    ts = np.linspace(0.0, 50.0, 40)
    vals = [t_aspect_conductor(inst, float(t)) for t in ts]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_dirichlet_instance_oracle_matches_character_powers():
    chars = {c.index: c for c in enumerate_characters(8)}
    with pytest.raises(DomainError):
        dirichlet_instance(chars[0])  # principal
    with pytest.raises(DomainError):
        dirichlet_instance(chars[2])  # induced from modulus 4

    inst = dirichlet_instance(chars[1])
    chi = chars[1]
    assert inst.label == "dirichlet:8:1"
    assert inst.d == 1 and inst.q == 8
    rng = np.random.default_rng(11)
    for p in (3, 5, 7, 11, 13, 97):
        for k in rng.integers(1, 7, size=3):
            got = inst.coefficient(p, int(k))
            assert got == pytest.approx(chi.value(p) ** int(k), abs=1e-12)
    assert inst.coefficient(2, 1) == 0.0  # ramified prime
    assert abs(inst.coefficient(3, 50)) <= 1.0 + 1e-12  # oracle far beyond any table


def test_coefficient_bound_enforced():
    bad = LFunctionInstance(
        d=1, q=1, local_params=(0.0,), coeff_oracle=lambda p, k: 5.0, label="bad"
    )
    with pytest.raises(DomainError):
        bad.coefficient(2, 1)
    with pytest.raises(DomainError):
        bad.coefficients(np.array([2, 3]), np.array([4, 9]), 2)
    short = LFunctionInstance(
        d=1, q=1, local_params=(0.0,), coeff_oracle=lambda p, k: 1.0, oracle_support=100.0
    )
    assert short.coefficients(np.array([2, 7]), np.array([4, 49]), 2).tolist() == [1, 1]
    with pytest.raises(DomainError):
        short.coefficients(np.array([7, 11]), np.array([49, 121]), 2)


def test_coefficient_bound_names_the_prime_power_on_an_exponent_array(table4):
    p_arr, pk_arr, k = _window_weights(table4, 1000.0)[:3]
    assert k.dtype == np.int64 and k.shape == p_arr.shape
    bad = LFunctionInstance(
        d=1,
        q=1,
        local_params=(0.0,),
        coeff_oracle=lambda p, k: 5.0 if (p, k) == (3, 2) else 1.0,
        label="bad-at-9",
    )
    with pytest.raises(DomainError, match=r"at \(3, 2\)"):
        bad.coefficients(p_arr, pk_arr, k)
    # 4 = 2^2 is the first power with residue 0 mod 4; every p^1 misses it
    bad_table = LFunctionInstance(
        d=1,
        q=4,
        local_params=(0.0,),
        coeff_oracle=lambda p, k: 1.0,
        label="bad-at-4",
        coeff_table=np.array([5.0, 1.0, 1.0, 1.0], dtype=np.complex128),
    )
    with pytest.raises(DomainError, match=r"at \(2, 2\)"):
        bad_table.coefficients(p_arr, pk_arr, k)
    # an int k and the aligned array agree
    ones = LFunctionInstance(d=1, q=1, local_params=(0.0,), coeff_oracle=lambda p, k: k - 1)
    sel = k == 2
    assert ones.coefficients(p_arr[sel], pk_arr[sel], 2).tolist() == [1] * int(sel.sum())
    assert ones.coefficients(p_arr[sel], pk_arr[sel], k[sel]).tolist() == [1] * int(sel.sum())


def test_instance_json_shape():
    inst = dirichlet_instance([c for c in enumerate_characters(4) if c.primitive][0])
    doc = inst.to_json_dict()
    assert set(doc) == {"label", "d", "q", "kappas", "oracle"}
    assert doc["kappas"] == [{"re": 1.0, "im": 0.0}]
    assert doc["oracle"] != "none"
