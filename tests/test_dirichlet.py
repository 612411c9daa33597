"""Character enumeration, structure invariants, and the two L(1) methods."""

import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest

from edgebounds import (
    DomainError,
    enumerate_characters,
    l1_value,
    l1_value_series,
    survey,
)
from edgebounds import dirichlet
from edgebounds.bounds import upper_bound
from edgebounds.lfunc import analytic_conductor, dirichlet_instance
from edgebounds.special import digamma_rational


def _structure(q):
    return [(c.index, c.conductor, c.parity) for c in enumerate_characters(q)]


def test_character_structure_frozen():
    assert _structure(8) == [(0, 1, 0), (1, 8, 0), (2, 4, 1), (3, 8, 1)]
    assert _structure(5) == [(0, 1, 0), (1, 5, 1), (2, 5, 0), (3, 5, 1)]
    assert _structure(12) == [(0, 1, 0), (1, 3, 1), (2, 4, 1), (3, 12, 0)]
    chars16 = list(enumerate_characters(16))
    assert len(chars16) == 8
    assert sum(c.primitive for c in chars16) == 4


def test_enumeration_counts_euler_phi():
    def phi(q):
        return sum(1 for n in range(1, q + 1) if math.gcd(n, q) == 1)

    for q in range(3, 61):
        chars = list(enumerate_characters(q))
        assert len(chars) == phi(q)
        assert sum(c.is_principal for c in chars) == 1
        assert [c.index for c in chars] == list(range(len(chars)))


def test_character_multiplicativity_and_parity():
    rng = np.random.default_rng(505)
    for q in (5, 8, 9, 12, 16, 21, 40, 45):
        for chi in enumerate_characters(q):
            assert chi.value(q - 1) == pytest.approx((-1.0) ** chi.parity, abs=1e-12)
            for _ in range(6):
                a, b = int(rng.integers(1, 5 * q)), int(rng.integers(1, 5 * q))
                want = chi.value(a) * chi.value(b)
                assert chi.value(a * b) == pytest.approx(want, abs=1e-11)
            assert chi.value(q) == 0.0


def test_character_orthogonality_and_conjugate():
    for q in (5, 7, 8, 12):
        for chi in enumerate_characters(q):
            total = chi.value_table().sum()
            if chi.is_principal:
                assert total.real > 0.0
            else:
                assert abs(total) <= 1e-9
            bar = chi.conjugate()
            assert np.allclose(bar.value_table(), np.conj(chi.value_table()))
            assert bar.conductor == chi.conductor and bar.parity == chi.parity


def test_real_characters_detected():
    chars5 = {c.index: c for c in enumerate_characters(5)}
    assert chars5[2].is_real() and not chars5[1].is_real()
    assert chars5[1].conjugate().index == 3


def test_primitive_iff_conductor_equals_modulus():
    for q in range(3, 41):
        for chi in enumerate_characters(q):
            assert chi.primitive == (chi.conductor == q)
            assert q % chi.conductor == 0


def test_l1_frozen_closed_forms():
    chi4 = [c for c in enumerate_characters(4) if c.primitive][0]
    chi3 = [c for c in enumerate_characters(3) if c.primitive][0]
    assert abs(l1_value(chi4) - math.pi / 4.0) <= 1e-14
    assert abs(l1_value(chi3) - math.pi / (3.0 * math.sqrt(3.0))) <= 1e-14
    chars5 = {c.index: c for c in enumerate_characters(5)}
    # quadratic character mod 5: classical 2*log(golden ratio)/sqrt(5)
    want = 2.0 * math.log((1.0 + math.sqrt(5.0)) / 2.0) / math.sqrt(5.0)
    assert abs(l1_value(chars5[2]) - want) <= 1e-14
    z = l1_value(chars5[1])
    assert z == pytest.approx(0.86480626597721 + 0.20415306613838524j, abs=1e-13)
    assert l1_value(chars5[3]) == pytest.approx(z.conjugate(), abs=1e-13)


def test_l1_series_agrees_with_digamma_method():
    worst = 0.0
    for q in range(3, 61):
        for chi in enumerate_characters(q):
            if chi.is_principal or not chi.primitive:
                continue
            diff = abs(l1_value(chi) - l1_value_series(chi))
            worst = max(worst, diff)
    assert worst <= 1e-10


def test_primitive_enumeration_builds_only_kept_tables(monkeypatch):
    built = []
    make = dirichlet._characters

    def counting(g, keys, cond_parities):
        built.extend(keys)
        return make(g, keys, cond_parities)

    monkeypatch.setattr(dirichlet, "_characters", counting)
    for q in (8, 12, 45, 60, 97):
        every = [c for c in enumerate_characters(q) if c.primitive]
        del built[:]
        kept = enumerate_characters(q, primitive_only=True)
        assert len(built) == len(kept)
        for a, b in zip(kept, every):
            assert (a.exponents, a.conductor, a.parity, a.index) == (
                b.exponents, b.conductor, b.parity, b.index
            )
            assert a.value_table().tobytes() == b.value_table().tobytes()


@pytest.mark.parametrize("q", [1, 2, 3, 4, 8, 16, 32, 45, 60, 97, 128, 200])
def test_primitive_character_equals_batched_enumeration(q):
    # 2-power moduli from 8 up take the two generators (-1, 5)
    for c in enumerate_characters(q, primitive_only=True):
        one = dirichlet.primitive_character(q, c.index)
        assert (one.exponents, one.conductor, one.parity, one.index) == (
            c.exponents, c.conductor, c.parity, c.index
        )
        assert one.value_table().tobytes() == c.value_table().tobytes()


def test_shared_value_matrix_is_read_only():
    chi = enumerate_characters(5)[1]
    before = chi.value(1)
    with pytest.raises(ValueError):
        chi._values[1] = 0
    table = chi.value_table()
    table[1] = 0
    assert chi.value(1) == before != 0


def _harmonic_rows_bincount(q, blocks):
    n = np.arange(1, blocks * q + 1, dtype=np.float64)
    res = np.arange(1, blocks * q + 1, dtype=np.int64) % q
    return np.bincount(res, weights=1.0 / n, minlength=q)


def _series_blocks(q):
    return -(-max(10 ** 6, q * q) // q)


def test_harmonic_rows_equal_bincount():
    # q = 1013 has q^2 > 1e6, so N = q^2
    for q in (3, 7, 200, 1013):
        blocks = _series_blocks(q)
        got = dirichlet._harmonic_rows.__wrapped__(q, blocks)
        assert got.tobytes() == _harmonic_rows_bincount(q, blocks).tobytes(), q


def test_harmonic_rows_working_memory_is_bounded():
    # one 1e6-term pass used to peak near 23 MB; one float64 array of all
    # 1e6 terms alone would take 7.6 MB
    tracemalloc.start()
    try:
        dirichlet._harmonic_rows.__wrapped__(3, 333334)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def _l1_value_per_term(chi):
    q = chi.modulus
    psi = [digamma_rational(a, q).value for a in range(1, q)]
    vt = chi._values
    re = math.fsum(vt[a].real * psi[a - 1] for a in range(1, q))
    im = math.fsum(vt[a].imag * psi[a - 1] for a in range(1, q))
    return complex(-re / q, -im / q)


def _l1_value_series_per_term(chi, rows):
    q = chi.modulus
    blocks = _series_blocks(q)
    vt = chi._values
    partial = complex(np.dot(vt, rows))
    tail = [dirichlet._psi_asymptotic(blocks + a / q) for a in range(1, q)]
    tail_re = math.fsum(vt[a].real * tail[a - 1] for a in range(1, q))
    tail_im = math.fsum(vt[a].imag * tail[a - 1] for a in range(1, q))
    return partial - complex(tail_re / q, tail_im / q)


def test_l1_oracles_equal_per_term_sums():
    cases = [(q, enumerate_characters(q, primitive_only=True)) for q in range(3, 61)]
    cases.append((1013, [enumerate_characters(1013)[i] for i in (1, 2, 506, 1011)]))
    for q, chars in cases:
        rows = _harmonic_rows_bincount(q, _series_blocks(q))
        for chi in chars:
            if chi.is_principal:
                continue
            assert l1_value(chi) == _l1_value_per_term(chi), (q, chi.index)
            got = l1_value_series(chi)
            assert got == _l1_value_series_per_term(chi, rows), (q, chi.index)


def test_survey_frozen_rows():
    recs = survey(9)
    assert len(recs) == 16
    assert [(r.q, r.char_index) for r in recs[:4]] == [(3, 1), (4, 1), (5, 1), (5, 2)]
    by_key = {(r.q, r.char_index): r for r in recs}
    r5 = by_key[(5, 1)]
    assert r5.abs_L1 == pytest.approx(0.8885765876316734, rel=1e-13)
    assert r5.conductor == 5 and r5.parity == 1
    assert r5.bound_upper is None and r5.ratio is None and not r5.bound_valid
    r9 = by_key[(9, 1)]
    assert r9.C_chi == pytest.approx(2.864788975654116, rel=1e-14)
    assert r9.bound_upper == pytest.approx(-5.384243052573376, rel=1e-12)
    assert r9.ratio == pytest.approx(-0.22458116477082388, rel=1e-12)
    assert not r9.bound_valid  # advisory: conductor far below the proven range


def _survey_per_character(q_max):
    """The survey with the conductor and envelope computed for every chi."""
    records = []
    for q in range(3, q_max + 1):
        for chi in enumerate_characters(q, primitive_only=True):
            if chi.is_principal:
                continue
            val = l1_value(chi)
            c_chi = analytic_conductor(dirichlet_instance(chi))
            bu, bv, ratio = None, False, None
            if math.log(c_chi) > 1.0:
                rep = upper_bound(1, math.log(c_chi))
                bu, bv, ratio = rep.upper, rep.valid, abs(val) / rep.upper
            records.append(
                dirichlet.SurveyRecord(
                    q=q, char_index=chi.index, conductor=chi.conductor, parity=chi.parity,
                    L1=val, abs_L1=abs(val), C_chi=c_chi, bound_upper=bu, bound_valid=bv,
                    ratio=ratio,
                )
            )
    return records


def test_survey_equals_per_character_reference():
    got = [repr(r.to_json_dict()) for r in survey(60)]
    assert got == [repr(r.to_json_dict()) for r in _survey_per_character(60)]


def test_survey_record_json_shape():
    rec = survey(5)[-1]
    doc = rec.to_json_dict()
    assert doc["q"] == 5 and doc["char_index"] == 3
    assert {"re_L1", "im_L1", "abs_L1", "C_chi", "bound_upper", "bound_valid", "ratio"} <= set(doc)
    assert doc["bound_upper"] is None
    json.dumps(doc)  # JSON-safe without special handling


def test_survey_writes_csv_and_json(tmp_path):
    out = tmp_path / "survey"
    recs = survey(8, out=str(out))
    csv_text = (out.with_suffix(".csv")).read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == (
        "q,char_index,conductor,parity,re_L1,im_L1,abs_L1,C_chi,bound_upper,bound_valid,ratio"
    )
    assert len(lines) == 1 + len(recs)
    # null bound cells are empty, booleans lowercase
    assert lines[1].endswith(",,false,")
    doc = json.loads((out.with_suffix(".json")).read_text())
    assert len(doc) == len(recs)


def test_enumerate_rejects_tiny_modulus():
    with pytest.raises(DomainError):
        list(enumerate_characters(0))
