"""Character enumeration, structure invariants, and the two L(1) methods."""

import cmath
import hashlib
import io
import json
import math
import sys
import threading
import tracemalloc
from contextlib import redirect_stdout

import mpmath
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
from edgebounds.cli import run
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


def _conjugate(chi):
    """The character of the same modulus whose values are conj(chi)."""
    want = np.conj(chi.value_table())
    (bar,) = [c for c in enumerate_characters(chi.modulus) if np.allclose(c.value_table(), want)]
    return bar


def _is_real(chi):
    # e(1/2) = exp(i pi) carries a 1.2e-16 imaginary part, so not == 0
    return bool(np.all(np.abs(chi.value_table().imag) <= 1e-12))


def test_character_orthogonality_and_conjugate():
    for q in (5, 7, 8, 12):
        for chi in enumerate_characters(q):
            total = chi.value_table().sum()
            if chi.is_principal:
                assert total.real > 0.0
            else:
                assert abs(total) <= 1e-9
            bar = _conjugate(chi)
            assert bar.conductor == chi.conductor and bar.parity == chi.parity


def test_real_characters_detected():
    chars5 = {c.index: c for c in enumerate_characters(5)}
    assert _is_real(chars5[2]) and not _is_real(chars5[1])
    assert _conjugate(chars5[1]).index == 3


def test_conductor_and_parity_from_the_definitions():
    # conductor: least d | q with chi(a) = 1 for every unit a = 1 mod d;
    # parity: chi(-1) = (-1)^parity
    for q in range(1, 121):
        units = [a for a in range(q) if math.gcd(a, q) == 1] or [0]
        divisors = [d for d in range(1, q + 1) if q % d == 0]
        kernels = [[a for a in units if a % d == 1 % d] for d in divisors]
        for chi in enumerate_characters(q):
            vt = chi.value_table()
            cond = next(
                d for d, ker in zip(divisors, kernels) if np.allclose(vt[ker], 1.0, atol=1e-9)
            )
            assert chi.conductor == cond, (q, chi.index)
            minus_one = chi.value(q - 1)
            assert abs(minus_one - (-1.0) ** chi.parity) <= 1e-9, (q, chi.index)


# sha256 over q = 1..400 of every character's exponents, conductor, parity,
# index, primitivity and value-table bytes
_CHARACTERS_400_SHA256 = "cea3841256fcef8000401944aa1fbf4b6308442353acbbef4ab710082ca32718"


def test_characters_up_to_400_pinned():
    h = hashlib.sha256()
    for q in range(1, 401):
        for chi in enumerate_characters(q):
            h.update(repr((q, chi.exponents, chi.conductor, chi.parity, chi.index,
                           chi.primitive)).encode())
            h.update(chi.value_table().tobytes())
    assert h.hexdigest() == _CHARACTERS_400_SHA256


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

    def counting(g, keys):
        built.extend(keys)
        return make(g, keys)

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


def _l1_value_per_term(chi):
    q = chi.modulus
    psi = digamma_rational(q).tolist()
    vt = chi._values
    re = math.fsum(vt[a].real * psi[a - 1] for a in range(1, q))
    im = math.fsum(vt[a].imag * psi[a - 1] for a in range(1, q))
    return complex(-re / q, -im / q)


def _bits(z):
    # float.hex, not ==: == cannot see a signed zero flip
    return z.real.hex(), z.imag.hex()


def _q1013_characters():
    return [dirichlet.primitive_character(1013, i) for i in (1, 2, 506, 1011)]


def _block_digamma(chi):
    """The digamma-row value of chi's row in its block; l1_value refuses the principal one."""
    return chi._block.digamma_l1()[chi._row]


def test_l1_oracles_equal_per_term_sums():
    # characters from each builder: every row of enumerate_characters(q) (one
    # block with principal and imprimitive rows), primitive_only, and the
    # one-row blocks of primitive_character
    cases = [
        (q, enumerate_characters(q), enumerate_characters(q, primitive_only=True))
        for q in [*range(3, 61), 97, 128, 200]
    ]
    cases.append((1013, [], _q1013_characters()))
    for q, every, kept in cases:
        ref = {chi.index: _bits(_l1_value_per_term(chi)) for chi in every}
        for chi in every:
            got = _block_digamma(chi) if chi.is_principal else l1_value(chi)
            assert _bits(got) == ref[chi.index], (q, chi.index)
        for chi in kept:
            want = ref.get(chi.index) or _bits(_l1_value_per_term(chi))
            assert _bits(l1_value(chi)) == want, (q, chi.index)
            assert _bits(l1_value(dirichlet.primitive_character(q, chi.index))) == want


def _primitive(q):
    return [c for c in enumerate_characters(q, primitive_only=True) if not c.is_principal]


def test_l1_series_closed_forms():
    (chi3,) = _primitive(3)
    (chi4,) = _primitive(4)
    chi5 = {c.index: c for c in _primitive(5)}[2]  # the quadratic character
    assert abs(l1_value_series(chi3) - math.pi / (3.0 * math.sqrt(3.0))) <= 1e-14
    assert abs(l1_value_series(chi4) - math.pi / 4.0) <= 1e-14
    want = 2.0 * math.log((1.0 + math.sqrt(5.0)) / 2.0) / math.sqrt(5.0)
    assert abs(l1_value_series(chi5) - want) <= 1e-14


@pytest.mark.parametrize("q, h", [(7, 1), (11, 1), (23, 3), (199, 9)])
def test_l1_series_class_numbers(q, h):
    # q = 3 mod 4 prime: h(-q) = sqrt(q)/pi L(1, (./q))
    (legendre,) = [c for c in _primitive(q) if _is_real(c)]
    assert abs(math.sqrt(q) / math.pi * l1_value_series(legendre) - h) <= 1e-12


def _root_number(chi):
    """W = tau(chi)/(i^a sqrt q), with the Gauss sum tau(chi) = sum chi(m) e(m/q), for one chi."""
    q = chi.modulus
    tau = complex(np.dot(chi._values, np.exp(2j * np.pi * np.arange(q) / q)))
    return tau / ((1j if chi.parity else 1.0) * math.sqrt(q))


def _theta_l1(chi, weights):
    """sum chi(n) g_n + W conj(sum chi(n) h_n) over the n of weights, for one chi."""
    idx, g, h = weights
    v = chi._values[idx]
    return complex(np.dot(v, g)) + _root_number(chi) * complex(np.dot(v, h)).conjugate()


def test_root_numbers_have_modulus_one():
    # read from the block's Gauss sums, one pass per modulus
    roots = [
        chi._block.theta_l1()[1][chi._row] for q in range(3, 201) for chi in _primitive(q)
    ]
    assert len(roots) == 7516
    assert max(abs(abs(w) - 1.0) for w in roots) <= 1e-13


def test_block_theta_values_equal_per_character_reference():
    worst = 0.0
    for q in range(3, 201):
        for chi in _primitive(q):
            want = _theta_l1(chi, dirichlet._theta_weights(q, chi.parity))
            worst = max(worst, abs(l1_value_series(chi) - want))
            assert abs(chi._block.theta_l1()[1][chi._row] - _root_number(chi)) <= 4e-15
    assert worst <= 4e-15


def test_l1_series_agrees_with_l1_value_to_1e13():
    worst = max(
        abs(l1_value(chi) - l1_value_series(chi)) for q in range(3, 201) for chi in _primitive(q)
    )
    assert worst <= 1e-13


def test_l1_series_matches_mpmath_digamma_sum_at_q1013():
    q = 1013
    with mpmath.workdps(30):
        psi = [mpmath.digamma(mpmath.mpf(a) / q) for a in range(1, q)]
        for chi in _q1013_characters():
            vt = chi.value_table()
            want = -sum(
                (mpmath.mpc(complex(vt[a])) * psi[a - 1] for a in range(1, q)), mpmath.mpc(0)
            ) / q
            assert abs(mpmath.mpc(l1_value_series(chi)) - want) <= 1e-14, chi.index


def _theta_weights_by_definition(q, parity, ns):
    """(n mod q, g_n, h_n) for the n in ns, from G_a and H_a of l1_value_series."""
    g, h = [], []
    for n in ns:
        x = mpmath.pi * n * n / q
        if parity:
            big_g, big_h = mpmath.exp(-x), mpmath.sqrt(mpmath.pi) * mpmath.erfc(mpmath.sqrt(x))
        else:
            big_g, big_h = mpmath.erfc(mpmath.sqrt(x)), mpmath.e1(x) / mpmath.sqrt(mpmath.pi)
        g.append(float(big_g / n))
        h.append(float(mpmath.sqrt(mpmath.pi / q) * big_h))
    return np.array(ns, dtype=np.int64) % q, np.array(g), np.array(h)


@pytest.mark.parametrize("q", [3, 200, 4001])
def test_theta_tail_bound_holds(q):
    if q == 4001:  # a few characters of each parity, not all 4,000 tables
        chars = [dirichlet.primitive_character(q, i) for i in (1, 2, 3, 4, 1999, 2000, 3998, 3999)]
    else:
        chars = _primitive(q)
    for parity in sorted({c.parity for c in chars}):
        idx, g, h = dirichlet._theta_weights(q, parity)
        n_terms = idx.size
        bound = dirichlet._theta_tail_bound(q, parity, n_terms)
        assert bound <= 2.0 ** -60 < dirichlet._theta_tail_bound(q, parity, n_terms - 1)
        # the first and last kept terms are those of the definition
        _, g_def, h_def = _theta_weights_by_definition(q, parity, [1, n_terms])
        assert g[[0, -1]] == pytest.approx(g_def, rel=1e-13)
        assert h[[0, -1]] == pytest.approx(h_def, rel=1e-13)
        # |chi| <= 1 and |W| = 1: each dropped term is at most g_n + h_n
        far = _theta_weights_by_definition(q, parity, range(n_terms + 1, n_terms + 201))
        assert math.fsum(far[1]) + math.fsum(far[2]) <= bound
        # what terms N + 1 .. N + 10 would add to L(1, chi)
        extra = tuple(w[:10] for w in far)
        for chi in chars:
            if chi.parity == parity:
                assert abs(_theta_l1(chi, extra)) <= bound, chi.index


def test_l1_series_rejects_principal_and_imprimitive():
    with pytest.raises(DomainError, match="principal"):
        l1_value_series(enumerate_characters(5)[0])
    with pytest.raises(DomainError, match="principal"):
        l1_value(enumerate_characters(5)[0])  # the digamma-row oracle too
    imprimitive = [c for c in enumerate_characters(12) if not c.primitive and not c.is_principal]
    assert imprimitive
    for chi in imprimitive:
        with pytest.raises(DomainError, match="imprimitive"):
            l1_value_series(chi)


@pytest.mark.parametrize("q", [12, 45, 64])
def test_mixed_block_refuses_rows_and_keeps_the_rest(q):
    chars = enumerate_characters(q)  # one block of principal, imprimitive and primitive rows
    assert len({id(c._block) for c in chars}) == 1
    principal, *rest = chars
    assert principal.is_principal and not any(c.is_principal for c in rest)
    imprimitive = [c for c in rest if not c.primitive]
    primitive = [c for c in rest if c.primitive]
    assert imprimitive and primitive
    # a refused row first: the passes it does not start still serve the others
    for oracle in (l1_value, l1_value_series):
        with pytest.raises(DomainError, match="principal"):
            oracle(principal)
    for chi in imprimitive:
        with pytest.raises(DomainError, match="imprimitive"):
            l1_value_series(chi)
        assert _bits(l1_value(chi)) == _bits(_l1_value_per_term(chi))
    l1, roots = principal._block.theta_l1()
    for chi in imprimitive + [principal]:
        assert cmath.isnan(l1[chi._row]) and cmath.isnan(roots[chi._row])
    for chi in primitive:
        assert abs(abs(roots[chi._row]) - 1.0) <= 1e-13
        assert abs(l1_value_series(chi) - l1_value(chi)) <= 1e-13
    for oracle in (l1_value, l1_value_series):  # still refused once the block has its values
        with pytest.raises(DomainError, match="principal"):
            oracle(principal)


def test_survey_needs_a_modulus():
    with pytest.raises(DomainError, match="q_max >= 3"):
        survey(2)


def test_survey_frozen_rows():
    rows = survey(9)
    assert len(rows) == 16
    assert [(r["q"], r["char_index"]) for r in rows[:4]] == [(3, 1), (4, 1), (5, 1), (5, 2)]
    by_key = {(r["q"], r["char_index"]): r for r in rows}
    r5 = by_key[(5, 1)]
    assert r5["abs_L1"] == pytest.approx(0.8885765876316734, rel=1e-13)
    assert r5["conductor"] == 5 and r5["parity"] == 1
    assert r5["bound_upper"] is None and r5["ratio"] is None and not r5["bound_valid"]
    r9 = by_key[(9, 1)]
    assert r9["C_chi"] == pytest.approx(2.864788975654116, rel=1e-14)
    assert r9["bound_upper"] == pytest.approx(-5.384243052573376, rel=1e-12)
    assert r9["ratio"] == pytest.approx(-0.22458116477082388, rel=1e-12)
    assert not r9["bound_valid"]  # advisory: conductor far below the proven range


def _survey_per_character(q_max):
    """The survey rows with the conductor and envelope computed for every chi."""
    rows = []
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
            rows.append(
                {
                    "q": q, "char_index": chi.index, "conductor": chi.conductor,
                    "parity": chi.parity, "re_L1": val.real, "im_L1": val.imag,
                    "abs_L1": abs(val), "C_chi": c_chi, "bound_upper": bu, "bound_valid": bv,
                    "ratio": ratio,
                }
            )
    return rows


def test_survey_equals_per_character_reference():
    got = [repr(r) for r in survey(60)]
    assert got == [repr(r) for r in _survey_per_character(60)]


def test_survey_values_equal_l1_value_bit_for_bit():
    got = {(r["q"], r["char_index"]): (r["re_L1"].hex(), r["im_L1"].hex()) for r in survey(200)}
    want = {
        (q, chi.index): _bits(l1_value(chi))
        for q in range(3, 201)
        for chi in enumerate_characters(q, primitive_only=True)
        if not chi.is_principal
    }
    assert len(got) == 7516
    assert got == want


def test_survey_record_json_shape():
    doc = survey(5)[-1]
    assert doc["q"] == 5 and doc["char_index"] == 3
    assert {"re_L1", "im_L1", "abs_L1", "C_chi", "bound_upper", "bound_valid", "ratio"} <= set(doc)
    assert doc["bound_upper"] is None
    json.dumps(doc)  # JSON-safe without special handling


def test_survey_writes_csv_and_json(tmp_path):
    # the CLI's --out is the one survey writer
    rows = survey(8)
    for fmt in ("csv", "json"):
        argv = ["dirichlet", "survey", "--qmax", "8", "--format", fmt]
        with redirect_stdout(io.StringIO()):
            assert run(argv + ["--out", str(tmp_path / ("survey." + fmt))]) == 0
    csv_text = (tmp_path / "survey.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0] == (
        "q,char_index,conductor,parity,re_L1,im_L1,abs_L1,C_chi,bound_upper,bound_valid,ratio"
    )
    assert len(lines) == 1 + len(rows)
    # null bound cells are empty, booleans lowercase
    assert lines[1].endswith(",,false,")
    doc = json.loads((tmp_path / "survey.json").read_text())
    assert doc["records"] == json.loads(json.dumps(rows))


def test_one_block_shared_by_threads_gives_one_set_of_values():
    # a block's passes run on first use, unlocked: threads that share its
    # characters may each run one, and each stores the same complete values
    want = {c.index: (_bits(l1_value(c)), l1_value_series(c)) for c in _primitive(97)}
    chars = _primitive(97)
    got = [None] * 4

    def work(i):  # thread i starts at row i
        got[i] = {c.index: (_bits(l1_value(c)), l1_value_series(c)) for c in chars[i:] + chars[:i]}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 4


def test_value_matrix_and_l1_passes_keep_temporaries_bounded():
    # the phases, the root gather and both oracles' passes go a chunk of at
    # most _L1_BLOCK_CELLS cells (1 MB of complex values) at a time, so past
    # the (k x q) value matrix itself only a few chunks are ever held; whole-
    # matrix phases and gathers would hold 1.5 matrices more (23 MB at q = 1009)
    q, chunk = 1009, 16 * dirichlet._L1_BLOCK_CELLS
    tracemalloc.start()
    try:
        chars = enumerate_characters(q)
        built = tracemalloc.get_traced_memory()[1]
        l1_value(chars[1])
        l1_value_series(chars[1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix = chars[0]._block.values.nbytes
    assert matrix == len(chars) * q * 16 > 15 * chunk
    assert built - matrix < 3 * chunk
    assert peak - matrix < 6 * chunk


def test_enumerate_rejects_tiny_modulus():
    with pytest.raises(DomainError):
        list(enumerate_characters(0))
