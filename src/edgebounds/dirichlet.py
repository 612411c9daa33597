"""Degree-1 laboratory: character arithmetic and exact edge values.

Characters mod q are indexed by exponent vectors over a fixed generator
choice for the unit group: least primitive root for each odd prime-power
factor, 3 for the factor 4, and the pair (-1, 5) for 2^e with e >= 3.
Values are taken as exact integer phases over a common root of unity, so
enumeration order, conductors, and parities are platform-independent.

L(1, chi) is evaluated two independent ways: a closed finite sum over
digamma values at rationals, and an Abel-truncated series with an exact
asymptotic tail. The survey compares |L(1, chi)| against the conditional
upper envelope and persists CSV/JSON side by side.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bounds import upper_bound
from .errors import DomainError
from .lfunc import analytic_conductor, dirichlet_instance
from .primes import factorize
from .special import digamma_rational

__all__ = [
    "DirichletCharacter",
    "SurveyRecord",
    "enumerate_characters",
    "l1_value",
    "l1_value_series",
    "survey",
]


def _least_primitive_root(pe: int, phi: int) -> int:
    factors = [p for p, _e in factorize(phi)]
    g = 2
    while True:
        if math.gcd(g, pe) == 1 and all(pow(g, phi // f, pe) != 1 for f in factors):
            return g
        g += 1


@dataclass(frozen=True)
class _Component:
    prime: int
    exp: int
    modulus: int
    gens: Tuple[int, ...]
    orders: Tuple[int, ...]


class _UnitGroup:
    """CRT-decomposed unit group mod q with discrete-log tables."""

    def __init__(self, q: int) -> None:
        self.q = q
        comps: List[_Component] = []
        for p, e in factorize(q):
            pe = p ** e
            if p == 2:
                if e == 1:
                    comps.append(_Component(2, 1, 2, (), ()))
                elif e == 2:
                    comps.append(_Component(2, 2, 4, (3,), (2,)))
                else:
                    comps.append(
                        _Component(2, e, pe, (pe - 1, 5), (2, 1 << (e - 2)))
                    )
            else:
                phi = pe // p * (p - 1)
                comps.append(
                    _Component(p, e, pe, (_least_primitive_root(pe, phi),), (phi,))
                )
        self.components = tuple(comps)
        self.orders: Tuple[int, ...] = tuple(o for c in comps for o in c.orders)
        self.order_product = 1
        for o in self.orders:
            self.order_product *= o
        self.root_order = math.lcm(1, *self.orders)
        self.phase_weights = tuple(self.root_order // o for o in self.orders)

        # per-component residue -> exponent-tuple tables by enumeration
        comp_dlog: List[Dict[int, Tuple[int, ...]]] = []
        for c in comps:
            table: Dict[int, Tuple[int, ...]] = {}
            if not c.gens:
                table[1 % c.modulus] = ()
            elif len(c.gens) == 1:
                g, o = c.gens[0], c.orders[0]
                r = 1
                for j in range(o):
                    table[r] = (j,)
                    r = r * g % c.modulus
            else:
                g1, g2 = c.gens
                o1, o2 = c.orders
                for i in range(o1):
                    r1 = pow(g1, i, c.modulus)
                    r = r1
                    for j in range(o2):
                        table[r] = (i, j)
                        r = r * g2 % c.modulus
            comp_dlog.append(table)

        units = [a for a in range(q) if math.gcd(a, q) == 1] if q > 1 else [0]
        self.units = np.array(units, dtype=np.int64)
        rows = []
        for a in units:
            row: List[int] = []
            for c, table in zip(comps, comp_dlog):
                row.extend(table[a % c.modulus])
            rows.append(row)
        self.dlog = np.array(rows, dtype=np.int64).reshape(len(units), len(self.orders))


@lru_cache(maxsize=None)
def _group(q: int) -> _UnitGroup:
    return _UnitGroup(q)


def _component_conductor(c: _Component, exps: Tuple[int, ...]) -> int:
    if c.prime != 2:
        (k,) = exps
        (o,) = c.orders
        k %= o
        if k == 0:
            return 1
        m = o // math.gcd(o, k)
        s = 0
        while m % c.prime == 0:
            m //= c.prime
            s += 1
        return c.prime ** (s + 1)
    if c.exp == 1:
        return 1
    if c.exp == 2:
        (k,) = exps
        return 4 if k % 2 == 1 else 1
    s, t = exps
    t %= c.orders[1]
    if t != 0:
        return 1 << (c.exp - ((t & -t).bit_length() - 1))
    return 4 if s % 2 == 1 else 1


def _component_parity(c: _Component, exps: Tuple[int, ...]) -> int:
    if c.prime != 2:
        return exps[0] % 2
    if c.exp == 1:
        return 0
    return exps[0] % 2


@dataclass(frozen=True)
class DirichletCharacter:
    """One character mod q, pinned by its generator-exponent vector."""

    modulus: int
    exponents: Tuple[int, ...]
    conductor: int
    parity: int
    primitive: bool
    index: int
    _values: np.ndarray = field(repr=False, compare=False)

    @property
    def is_principal(self) -> bool:
        return all(c == 0 for c in self.exponents)

    def value(self, n: int) -> complex:
        return complex(self._values[n % self.modulus])

    def value_table(self) -> np.ndarray:
        return self._values.copy()

    def conjugate(self) -> "DirichletCharacter":
        g = _group(self.modulus)
        exps = tuple((-c) % o for c, o in zip(self.exponents, g.orders))
        return _characters(g, [exps], [_conductor_parity(g, exps)])[0]

    def is_real(self) -> bool:
        g = _group(self.modulus)
        return all(2 * c % o == 0 for c, o in zip(self.exponents, g.orders))


def _conductor_parity(g: _UnitGroup, exps: Tuple[int, ...]) -> Tuple[int, int]:
    cond = 1
    parity = 0
    pos = 0
    for comp in g.components:
        k = len(comp.orders)
        ce = exps[pos:pos + k]
        cond *= _component_conductor(comp, ce)
        parity ^= _component_parity(comp, ce)
        pos += k
    return cond, parity


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _characters(
    g: _UnitGroup,
    keys: List[Tuple[int, ...]],
    cond_parities: List[Tuple[int, int]],
) -> List[DirichletCharacter]:
    """The characters with exponent vectors keys, one value-matrix row each.

    All phases come from one integer product dlog @ coeff^T, reduced mod
    the common root order, and each value is looked up in the table of
    exp(2 pi i k / root_order); the matrix is frozen, so the rows are too.
    """
    q = g.q
    coeff = np.array(keys, dtype=np.int64).reshape(len(keys), len(g.orders))
    coeff *= np.array(g.phase_weights, dtype=np.int64)
    phases = (g.dlog @ coeff.T) % g.root_order
    roots = np.exp(2j * np.pi * np.arange(g.root_order) / g.root_order)
    values = np.zeros((len(keys), q if q > 1 else 1), dtype=np.complex128)
    values[:, g.units] = roots[phases.T]
    _frozen(values)
    out: List[DirichletCharacter] = []
    for exps, (cond, parity), row in zip(keys, cond_parities, values):
        index = 0
        for c, o in zip(exps, g.orders):
            index = index * o + c
        out.append(
            DirichletCharacter(
                modulus=q,
                exponents=tuple(exps),
                conductor=cond,
                parity=parity,
                primitive=(cond == q),
                index=index,
                _values=row,
            )
        )
    return out


def enumerate_characters(
    q: int, primitive_only: bool = False
) -> List[DirichletCharacter]:
    """All phi(q) characters mod q in exponent-lexicographic order.

    With primitive_only, the conductor is read off the exponent vector and
    only the kept characters get a value table.
    """
    if q < 1:
        raise DomainError("modulus must be >= 1")
    g = _group(q)
    keys: List[Tuple[int, ...]] = []
    cond_parities: List[Tuple[int, int]] = []
    # C order, last exponent fastest
    for key in itertools.product(*(range(o) for o in g.orders)):
        cond_parity = _conductor_parity(g, key)
        if not primitive_only or cond_parity[0] == q:
            keys.append(key)
            cond_parities.append(cond_parity)
    return _characters(g, keys, cond_parities)


def primitive_character(q: int, index: int) -> Optional[DirichletCharacter]:
    """Character number index of enumerate_characters; None if imprimitive or out of range.

    Only that one value table is built.
    """
    if q < 1:
        raise DomainError("modulus must be >= 1")
    g = _group(q)
    if not 0 <= index < g.order_product:
        return None
    # C order: the last exponent runs fastest, as enumerate_characters counts
    key = tuple(int(c) for c in np.unravel_index(index, g.orders))
    cond_parity = _conductor_parity(g, key)
    return _characters(g, [key], [cond_parity])[0] if cond_parity[0] == q else None


@lru_cache(maxsize=None)
def _psi_row(q: int) -> np.ndarray:
    """psi(a/q) for a = 1..q-1, frozen."""
    return digamma_rational(np.arange(1, q), q).value


def l1_value(chi: DirichletCharacter) -> complex:
    """Edge value via the finite digamma sum -(1/q) sum chi(a) psi(a/q)."""
    if chi.is_principal:
        raise DomainError("principal character excluded (pole)")
    q = chi.modulus
    psi = _psi_row(q)
    vt = chi._values[1:q]
    re = math.fsum((vt.real * psi).tolist())
    im = math.fsum((vt.imag * psi).tolist())
    return complex(-re / q, -im / q)


def _psi_asymptotic(w: float) -> float:
    # plain Stirling tail, adequate for w >= 1000 at the 1e-8 budget
    iw = 1.0 / w
    iw2 = iw * iw
    return (
        math.log(w)
        - 0.5 * iw
        - iw2 * (1.0 / 12.0 - iw2 * (1.0 / 120.0 - iw2 / 252.0))
    )


_HARMONIC_BLOCK = 1 << 16  # terms 1/n held at once by _harmonic_rows


@lru_cache(maxsize=8)
def _harmonic_rows(q: int, blocks: int) -> np.ndarray:
    """Sums of 1/n over n <= blocks*q in each residue class mod q.

    Entry r sums n = r mod q in increasing n, as np.bincount would over
    the whole range. The terms are made a block of rows at a time; the
    running row is added to the block's first row and the block is folded
    by np.add.reduce over axis 0. On a C-contiguous (rows, q) block that
    reduce walks the columns innermost and adds the rows one after
    another, so every column is still summed in increasing n (no pairwise
    regrouping) without writing the running prefix that accumulate would.
    """
    rows = max(1, _HARMONIC_BLOCK // q)
    acc = np.zeros(q, dtype=np.float64)
    for lo in range(0, blocks, rows):
        hi = min(blocks, lo + rows)
        block = np.arange(lo * q + 1, hi * q + 1, dtype=np.float64)
        np.divide(1.0, block, out=block)
        block = block.reshape(hi - lo, q)
        block[0] += acc
        acc = np.add.reduce(block, axis=0)
    # column j holds n = j + 1 mod q
    return _frozen(np.roll(acc, 1))


@lru_cache(maxsize=8)
def _tail_row(q: int, blocks: int) -> np.ndarray:
    """psi(blocks + a/q) for a = 1..q-1, by the Stirling tail."""
    return _frozen(np.array([_psi_asymptotic(blocks + a / q) for a in range(1, q)]))


def l1_value_series(chi: DirichletCharacter) -> complex:
    """Independent oracle: truncated series plus exact digamma tail.

    Sums chi(n)/n for n <= N = q*ceil(max(1e6, q^2)/q); the remainder is
    exactly -(1/q) sum_a chi(a) psi(N/q + a/q) because sum_a chi(a) = 0.
    """
    if chi.is_principal:
        raise DomainError("principal character excluded (pole)")
    q = chi.modulus
    blocks = -(-max(10 ** 6, q * q) // q)
    rows = _harmonic_rows(q, blocks)
    vt = chi._values
    partial = complex(np.dot(vt, rows))
    tail = _tail_row(q, blocks)
    tail_re = math.fsum((vt[1:q].real * tail).tolist())
    tail_im = math.fsum((vt[1:q].imag * tail).tolist())
    return partial - complex(tail_re / q, tail_im / q)


@dataclass(frozen=True)
class SurveyRecord:
    """One surveyed character with its envelope comparison."""

    q: int
    char_index: int
    conductor: int
    parity: int
    L1: complex
    abs_L1: float
    C_chi: float
    bound_upper: Optional[float]
    bound_valid: bool
    ratio: Optional[float]

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "char_index": self.char_index,
            "conductor": self.conductor,
            "parity": self.parity,
            "re_L1": self.L1.real,
            "im_L1": self.L1.imag,
            "abs_L1": self.abs_L1,
            "C_chi": self.C_chi,
            "bound_upper": self.bound_upper,
            "bound_valid": self.bound_valid,
            "ratio": self.ratio,
        }


_CSV_HEADER = "q,char_index,conductor,parity,re_L1,im_L1,abs_L1,C_chi,bound_upper,bound_valid,ratio"


def _csv_cell(v: object) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def survey_csv(rows: List[dict]) -> str:
    """CSV document of survey rows (SurveyRecord.to_json_dict), header first.

    Nulls become empty cells, booleans lowercase, floats their repr.
    """
    lines = [_CSV_HEADER]
    for row in rows:
        lines.append(",".join(_csv_cell(row[k]) for k in _CSV_HEADER.split(",")))
    return "\n".join(lines) + "\n"


def survey(q_max: int, out: Optional[str] = None) -> List[SurveyRecord]:
    """Envelope comparison over primitive non-principal chi, 3 <= q <= q_max.

    A primitive chi mod q has conductor q, so its analytic conductor and
    envelope depend only on q and the parity: each is computed once per
    (q, parity).
    """
    if q_max < 3:
        raise DomainError("survey needs q_max >= 3")
    records: List[SurveyRecord] = []
    for q in range(3, q_max + 1):
        envelopes: Dict[int, Tuple[float, Optional[float], bool]] = {}
        for chi in enumerate_characters(q, primitive_only=True):
            if chi.is_principal:
                continue
            if chi.parity not in envelopes:
                c_chi = analytic_conductor(dirichlet_instance(chi))
                if math.log(c_chi) > 1.0:
                    rep = upper_bound(1, math.log(c_chi))
                    envelopes[chi.parity] = (c_chi, rep.upper, rep.valid)
                else:
                    envelopes[chi.parity] = (c_chi, None, False)
            c_chi, bu, bv = envelopes[chi.parity]
            val = l1_value(chi)
            abs_l1 = abs(val)
            ratio = None if bu is None else abs_l1 / bu
            records.append(
                SurveyRecord(
                    q=q,
                    char_index=chi.index,
                    conductor=chi.conductor,
                    parity=chi.parity,
                    L1=val,
                    abs_L1=abs_l1,
                    C_chi=c_chi,
                    bound_upper=bu,
                    bound_valid=bv,
                    ratio=ratio,
                )
            )
    records.sort(key=lambda r: (r.q, r.char_index))
    if out is not None:
        rows = [r.to_json_dict() for r in records]
        with open(out + ".csv", "w", encoding="utf-8") as fh:
            fh.write(survey_csv(rows))
        from ._jsonio import dumps_report

        with open(out + ".json", "w", encoding="utf-8") as fh:
            fh.write(dumps_report(rows))
    return records
