"""Instance model: local parameters, conductors, the coefficient table."""

import math

import numpy as np
import pytest

from edgebounds import (
    DomainError,
    LFunctionInstance,
    WindowGrid,
    a_terms_audit,
    analytic_conductor,
    dirichlet_instance,
    enumerate_characters,
    hecke_instance,
)


def test_non_finite_local_parameters_are_refused():
    # a nan part fails every comparison and inf passes real >= 0, so the
    # check must refuse a non-finite part outright
    for kap in (math.nan, math.inf, complex(1.0, math.inf), complex(0.5, math.nan)):
        with pytest.raises(DomainError, match="finite with nonnegative real part"):
            LFunctionInstance(d=1, q=5, local_params=(kap,))
        with pytest.raises(DomainError, match="finite with nonnegative real part"):
            a_terms_audit("lower", 1, 0, (kap,), 1e4)


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


def _shifted(inst, t):
    """The instance of L(s + it, f): each local parameter kappa_j + it."""
    return LFunctionInstance(inst.d, inst.q, tuple(k + 1j * t for k in inst.local_params))


def _conductor_at_t(inst, t):
    return analytic_conductor(_shifted(inst, t))


def test_t_aspect_conductor_frozen_and_growth():
    # all-zero local parameters, where C(t) = C(0) |1 + it|^d is exact
    q = 10**6
    wide = LFunctionInstance(d=1, q=q, local_params=(0.0,), label="wide")
    got = _conductor_at_t(wide, 2.0) / q
    assert got == pytest.approx(0.3558812717085886, rel=1e-14)
    assert got == pytest.approx(math.sqrt(5.0) / (2.0 * math.pi), rel=1e-13)
    # so the shift of log C is (d/2) log(1 + t^2)
    for d in (1, 2, 3):
        base = LFunctionInstance(d=d, q=1, local_params=(0.0,) * d)
        log_c0 = math.log(analytic_conductor(base))
        for t in np.geomspace(0.5, 1e8, 40):
            shift = math.log(_conductor_at_t(base, float(t))) - log_c0
            assert shift == pytest.approx(0.5 * d * math.log1p(t * t), abs=1e-14), (d, t)
    # degree-2 conductor grows like t^2 with the 1/(4 pi^2) constant
    t = 1e8
    assert _conductor_at_t(LFunctionInstance(d=2, q=1, local_params=(0.0, 0.0)), t) / t**2 == (
        pytest.approx(1.0 / (4.0 * math.pi**2), rel=1e-6)
    )
    ts = np.linspace(0.0, 50.0, 40)
    vals = [_conductor_at_t(hecke_instance(12, q), float(t)) for t in ts]
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
    assert abs(inst.coefficient(3, 50)) <= 1.0 + 1e-12  # p^k far beyond any prime table
    # the odd character mod 4 has kappa = 1
    chi4 = [c for c in enumerate_characters(4) if c.primitive][0]
    assert dirichlet_instance(chi4).local_params == (1 + 0j,)


def test_coefficient_bound_enforced():
    for table in (np.full(3, 5.0 + 0j), np.array([1.0, math.nan, 0.0], dtype=np.complex128)):
        with pytest.raises(DomainError, match=r"\|a\| <= d"):
            LFunctionInstance(d=1, q=3, local_params=(0.0,), label="bad", coeff_table=table)
    # the bound is d, so a degree-2 table may reach 2 but not beyond
    ok = LFunctionInstance(
        d=2, q=2, local_params=(0.0, 1.0), coeff_table=np.array([2.0 + 0j, -2.0 + 0j])
    )
    assert ok.coefficients(np.array([4, 9, 25]) % 2).tolist() == [2, -2, -2]
    assert ok.coefficient(3, 2) == -2.0
    with pytest.raises(DomainError):
        LFunctionInstance(
            d=2, q=2, local_params=(0.0, 1.0), coeff_table=np.array([2.0 + 0j, 2.5 + 0j])
        )


def test_coefficient_bound_names_the_residue_at_construction():
    with pytest.raises(DomainError, match=r"at residue 2 mod 4"):
        LFunctionInstance(
            d=1,
            q=4,
            local_params=(0.0,),
            label="bad-at-2",
            coeff_table=np.array([1.0, 1.0, 5.0, 1.0j], dtype=np.complex128),
        )


@pytest.mark.parametrize(
    "table",
    [
        np.ones(3, dtype=np.complex128),  # length q - 1
        np.ones(5, dtype=np.complex128),  # length q + 1
        np.ones((2, 4), dtype=np.complex128),  # 2-D
        np.ones((4, 1), dtype=np.complex128),  # 2-D, q entries
        np.ones(4, dtype=np.float64),  # real
    ],
)
def test_coefficient_table_shape_and_dtype_rejected(table):
    with pytest.raises(DomainError, match="1-D complex array of length q = 4"):
        LFunctionInstance(d=1, q=4, local_params=(0.0,), coeff_table=table)


def test_coefficient_table_is_stored_read_only():
    given = np.array([0.0, 1.0, -1.0j, 1.0j], dtype=np.complex128)
    inst = LFunctionInstance(d=1, q=4, local_params=(0.0,), coeff_table=given)
    assert not inst.coeff_table.flags.writeable
    with pytest.raises(ValueError):
        inst.coeff_table[1] = 5.0
    # the caller's array is not frozen, and writing to it does not reach the instance
    given[1] = 5.0
    assert inst.coeff_table[1] == 1.0
    assert inst.coefficient(5, 3) == 1.0


def test_shape_only_instance_has_no_coefficients():
    inst = hecke_instance(12, 1)
    assert inst.coeff_table is None
    res = WindowGrid(1000.0, 10**4).residues(inst.q)
    with pytest.raises(DomainError, match="no coefficient table"):
        inst.coefficients(res)
    with pytest.raises(DomainError, match="no coefficient table"):
        inst.coefficient(2, 1)
