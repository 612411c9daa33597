"""Degree-1 laboratory: character arithmetic and exact edge values.

Characters mod q are indexed by exponent vectors over a fixed generator
choice for the unit group: least primitive root for each odd prime-power
factor, 3 for the factor 4, and the pair (-1, 5) for 2^e with e >= 3.
Discrete logs come from one int64 table per CRT component, indexed by
residue, and one rule gives each component character's conductor and
parity. Values are taken as exact integer phases over a common root of
unity, so enumeration order, conductors, and parities are
platform-independent.

L(1, chi) is evaluated two independent ways: a closed finite sum over
digamma values at rationals, and, for primitive chi, the rapidly
convergent series from the theta functional equation, with a proven tail
bound and the root number from the Gauss sum. The characters built
together (all of one enumerate_characters call, or the one of
primitive_character) share one _Block: their frozen value matrix, whose
rows they view. Either oracle, asked for one character, evaluates every
row of its block in one pass over that matrix, a chunk of rows at a time,
and the block keeps the values as long as any of its characters lives.
The survey compares |L(1, chi)| against the conditional upper envelope.
"""

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ._kernel import exact_sum
from .bounds import upper_bound
from .constants import PI
from .errors import DomainError, ResourceBudgetError
from .lfunc import analytic_conductor, dirichlet_instance
from .primes import factorize
from .special import digamma_rational, exp1

__all__ = [
    "DirichletCharacter",
    "enumerate_characters",
    "l1_row",
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


def _dlog_table(c: _Component) -> np.ndarray:
    """Exponents over c.gens of each unit mod c.modulus, one int64 row per residue.

    Rows of non-units are never read, so they are left unset.
    """
    table = np.empty((c.modulus, len(c.gens)), dtype=np.int64)
    res = np.ones(1, dtype=np.int64)
    for g, o in zip(c.gens, c.orders):
        powers = [1]
        for _ in range(o - 1):
            powers.append(powers[-1] * g % c.modulus)
        res = np.multiply.outer(res, powers) % c.modulus
    table[res.ravel()] = np.indices(c.orders).reshape(len(c.orders), res.size).T
    return table


class _UnitGroup:
    """CRT-decomposed unit group mod q with its discrete-log matrix."""

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
        self.order_product = math.prod(self.orders)
        self.root_order = math.lcm(1, *self.orders)
        self.phase_weights = tuple(self.root_order // o for o in self.orders)
        # gcd(0, 1) = 1, so the one residue mod 1 is a unit
        self.units = np.flatnonzero(np.gcd(np.arange(q), q) == 1)
        cols = [_dlog_table(c)[self.units % c.modulus] for c in comps]
        self.dlog = np.concatenate([np.empty((self.units.size, 0), dtype=np.int64)] + cols, axis=1)


def check_modulus(q: int) -> None:
    """Refuse q < 1, and a q whose one value row is past MAX_VALUE_CELLS."""
    if q < 1:
        raise DomainError("modulus must be >= 1")
    if q > MAX_VALUE_CELLS:
        raise ResourceBudgetError("modulus %d exceeds the %d-cell budget" % (q, MAX_VALUE_CELLS))


@lru_cache(maxsize=None)
def _group(q: int) -> _UnitGroup:
    check_modulus(q)  # refused before any array
    return _UnitGroup(q)


_Key = Tuple[Tuple[int, ...], int, int]  # (exponents, conductor, parity)


def _component_key(c: _Component, exps: Tuple[int, ...]) -> _Key:
    """The key of the character of one CRT component with exponents exps.

    Its parity is the first exponent mod 2 (the first generator is odd:
    a primitive root, 3 or -1), or 0 when the component has no generator.
    The units = 1 mod p^d (d >= 2 for p = 2) are the subgroup of order
    p^(e-d) of the last generator's cyclic group, where the character is
    trivial exactly when p^(e-d) divides the last exponent k; so a nonzero
    k gives conductor p^(e - v_p(k)). With k = 0 the conductor is 4 for an
    odd character mod 2^e (it factors through mod 4) and 1 for any other.
    """
    parity = exps[0] % 2 if exps else 0
    k = exps[-1] if exps else 0
    if not k:
        return exps, 4 if parity else 1, parity
    v = 0
    while k % c.prime == 0:
        k //= c.prime
        v += 1
    return exps, c.prime ** (c.exp - v), parity


def _key(parts: Iterable[_Key]) -> _Key:
    """A character's key from its components' keys.

    The exponents concatenate, the conductors multiply and the parities
    add mod 2.
    """
    exps: Tuple[int, ...] = ()
    cond, parity = 1, 0
    for e, ce, pe in parts:
        exps, cond, parity = exps + e, cond * ce, parity ^ pe
    return exps, cond, parity


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
    _block: "_Block" = field(repr=False, compare=False)
    _row: int = field(repr=False, compare=False)

    @property
    def is_principal(self) -> bool:
        return not any(self.exponents)

    def value(self, n: int) -> complex:
        return complex(self._values[n % self.modulus])

    def value_table(self) -> np.ndarray:
        return self._values.copy()


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


# cells of the (characters x q) value matrix one modulus may build: 160 MB
# of complex values
MAX_VALUE_CELLS = 10 ** 7

# cells of the value matrix one chunk of rows spans while the matrix is
# filled and while a _Block evaluates L(1): 1 MB of complex values, the whole
# matrix of every modulus of a survey to q = 200
_L1_BLOCK_CELLS = 1 << 16


def _check_value_cells(rows: int, q: int) -> None:
    if rows * q > MAX_VALUE_CELLS:
        msg = "a %d x %d character value matrix exceeds the %d-cell budget"
        raise ResourceBudgetError(msg % (rows, q, MAX_VALUE_CELLS))


def check_sweep(q_max: int) -> None:
    """Refuse q = 3..q_max at the first primitive value matrix past MAX_VALUE_CELLS (q = 3167)."""
    for q in range(3, q_max + 1):
        # primitive characters mod p^e: p - 2 for e = 1, else p^(e-2) (p-1)^2
        count = math.prod(p - 2 if e == 1 else p ** (e - 2) * (p - 1) ** 2 for p, e in factorize(q))
        _check_value_cells(count, q)


def _characters(g: _UnitGroup, keys: List[_Key]) -> List[DirichletCharacter]:
    """The characters with the given keys, one row each of one shared _Block.

    The phases of a chunk of at most _L1_BLOCK_CELLS cells are one integer
    product coeff @ dlog^T, reduced mod the common root order, and each
    value is looked up in the table of exp(2 pi i k / root_order), written
    into the preallocated matrix; the matrix is frozen, so the rows are
    too. The index is the C-order position of the exponents. A matrix
    beyond MAX_VALUE_CELLS is refused before any array is made.
    """
    q = g.q
    _check_value_cells(len(keys), q)
    exps = np.array([k for k, _c, _p in keys], dtype=np.int64).reshape(len(keys), len(g.orders))
    # with no generators (q <= 2, at most one key) the index comes back 0-d
    index = np.ravel_multi_index(exps.T, g.orders).reshape(-1).tolist()
    coeff = exps * np.array(g.phase_weights, dtype=np.int64)
    roots = np.exp(2j * np.pi * np.arange(g.root_order) / g.root_order)
    values = np.zeros((len(keys), q), dtype=np.complex128)
    step = max(1, _L1_BLOCK_CELLS // q)
    for lo in range(0, len(keys), step):
        phases = coeff[lo:lo + step] @ g.dlog.T
        phases %= g.root_order
        values[lo:lo + step, g.units] = roots[phases]
    block = _Block(_frozen(values), keys)
    return [
        DirichletCharacter(
            modulus=q,
            exponents=e,
            conductor=cond,
            parity=parity,
            primitive=(cond == q),
            index=i,
            _values=values[row],
            _block=block,
            _row=row,
        )
        for row, ((e, cond, parity), i) in enumerate(zip(keys, index))
    ]


def enumerate_characters(
    q: int, primitive_only: bool = False
) -> List[DirichletCharacter]:
    """All phi(q) characters mod q in exponent-lexicographic order.

    A character is the product of one character per CRT component: its
    conductor is the product of theirs and its parity the sum mod 2, so it
    is primitive exactly when every component is. The keys are the product
    of the per-component lists, the later component varying fastest: the
    same C order (last exponent fastest) as the product of all exponent
    ranges. With primitive_only each list holds only its primitive
    entries, so no imprimitive key is visited and only the kept characters
    get a value table.
    """
    g = _group(q)
    lists = []
    for c in g.components:
        comp = [_component_key(c, e) for e in itertools.product(*map(range, c.orders))]
        lists.append([k for k in comp if k[1] == c.modulus] if primitive_only else comp)
    return _characters(g, [_key(parts) for parts in itertools.product(*lists)])


def primitive_character(q: int, index: int) -> Optional[DirichletCharacter]:
    """Character number index of enumerate_characters; None if imprimitive or out of range.

    Only that one value table is built.
    """
    g = _group(q)
    if not 0 <= index < g.order_product:
        return None
    # C order: the last exponent runs fastest, as enumerate_characters counts
    exps = tuple(int(c) for c in np.unravel_index(index, g.orders))
    starts = itertools.accumulate((len(c.orders) for c in g.components), initial=0)
    key = _key(
        _component_key(c, exps[a:a + len(c.orders)]) for c, a in zip(g.components, starts)
    )
    return _characters(g, [key])[0] if key[1] == q else None


@lru_cache(maxsize=None)
def _psi_row(q: int) -> np.ndarray:
    """psi(a/q) for a = 1..q-1, frozen."""
    return digamma_rational(q)


_THETA_TAIL = 2.0 ** -60  # bound on the terms l1_value_series drops


def _theta_tail_bound(q: int, parity: int, n_terms: int) -> float:
    """Bound on both tails n > n_terms of the theta series (l1_value_series)."""
    m = n_terms + 1
    # x_n grows by at least delta per step from n = m on: a geometric tail
    decay = math.exp(-PI * m * m / q) / -math.expm1(-PI * (2 * m + 1) / q)
    if parity:
        return 2.0 * decay / m
    return 2.0 * math.sqrt(q) * decay / (PI * m * m)


@lru_cache(maxsize=None)
def _theta_weights(q: int, parity: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n mod q, g_n = G_a(x_n)/n and h_n = sqrt(pi/q) H_a(x_n) for n = 1..N, frozen.

    G_a and H_a are those of l1_value_series, with a the parity. N is the
    least count whose tail bound is at most 2^-60.
    """
    n_terms = 1
    while _theta_tail_bound(q, parity, n_terms) > _THETA_TAIL:
        n_terms += 1
    n = np.arange(1, n_terms + 1, dtype=np.int64)
    x = [PI * k * k / q for k in n.tolist()]
    if parity:
        g = [math.exp(-t) for t in x]
        h = [PI * math.erfc(math.sqrt(t)) for t in x]
    else:
        g = [math.erfc(math.sqrt(t)) for t in x]
        h = [exp1(t) for t in x]
    return _frozen(n % q), _frozen(np.array(g) / n), _frozen(np.array(h) / math.sqrt(q))


class _Block:
    """Characters mod q built together: their frozen (k x q) value matrix,
    each row's key (exponents, conductor, parity), and, once asked, the
    L(1) of every row.

    Each oracle makes one pass over all rows the first time any row's value
    is asked for, a chunk of rows (at most _L1_BLOCK_CELLS value cells) at a
    time, and keeps the values for the block's life. A pass takes no lock:
    threads sharing the block may each run it, and each stores the same
    complete result in one assignment. Every sum is an elementwise product
    reduced along the row: no 2-D @ or np.dot, whose BLAS threads would
    compete with the caller's.
    """

    def __init__(self, values: np.ndarray, keys: List[_Key]) -> None:
        self.values = values
        self.keys = keys
        self._digamma: Optional[List[complex]] = None
        self._theta: Optional[Tuple[List[complex], np.ndarray]] = None

    def digamma_l1(self) -> List[complex]:
        """-(1/q) sum chi(a) psi(a/q) of every row, each with math.fsum's bits.

        The real and imaginary products of a chunk of k rows are stacked
        into one (2k, q - 1) array and summed by one row-wise exact_sum,
        which returns math.fsum's bits. Each value is built from its two
        floats, so no complex arithmetic can touch a signed zero. The
        principal row's value is computed too, and never returned by
        l1_value.
        """
        if self._digamma is None:
            k, q = self.values.shape
            psi = _psi_row(q)
            step = max(1, _L1_BLOCK_CELLS // (q - 1))
            out: List[complex] = []
            for lo in range(0, k, step):
                v = self.values[lo:lo + step, 1:]
                n = v.shape[0]
                terms = np.concatenate((v.real, v.imag))
                terms *= psi
                sums = exact_sum(terms).tolist()
                out += [complex(-r / q, -i / q) for r, i in zip(sums[:n], sums[n:])]
            self._digamma = out
        return self._digamma

    def theta_l1(self) -> Tuple[List[complex], np.ndarray]:
        """The theta series' L(1) and the root number W of every row; nan on an imprimitive row.

        For each parity a, the primitive rows of a chunk are gathered once
        at the n mod q of _theta_weights(q, a), and their Gauss sums
        tau = sum chi(m) e(m/q) taken in the same pass; then
        W = tau/(i^a sqrt q) and L(1) = sum chi(n) g_n + W conj(sum chi(n) h_n).
        """
        if self._theta is None:
            k, q = self.values.shape
            l1 = np.full(k, np.nan, dtype=np.complex128)
            root = np.full(k, np.nan, dtype=np.complex128)
            phases = np.exp(2j * np.pi * np.arange(q) / q)  # e(m/q) for m < q
            for parity in (0, 1):
                rows = [r for r, (_e, c, p) in enumerate(self.keys) if c == q and p == parity]
                if not rows:
                    continue
                idx, g, h = _theta_weights(q, parity)
                denom = (1j if parity else 1.0) * math.sqrt(q)
                step = max(1, _L1_BLOCK_CELLS // max(q, idx.size))
                for lo in range(0, len(rows), step):
                    part = rows[lo:lo + step]
                    v = self.values[part]
                    w = np.add.reduce(v * phases, 1) / denom
                    at_n = v[:, idx]
                    root[part] = w
                    l1[part] = np.add.reduce(at_n * g, 1) + w * np.add.reduce(at_n * h, 1).conj()
            self._theta = (l1.tolist(), _frozen(root))
        return self._theta


def l1_value(chi: DirichletCharacter) -> complex:
    """Edge value via the finite digamma sum -(1/q) sum chi(a) psi(a/q).

    Its bits are those of math.fsum over each part's q - 1 terms; the value
    comes from the pass over chi's whole block (_Block.digamma_l1).
    """
    if chi.is_principal:
        raise DomainError("principal character excluded (pole)")
    return chi._block.digamma_l1()[chi._row]


def l1_value_series(chi: DirichletCharacter) -> complex:
    """Independent oracle: the series from the theta functional equation.

    For chi primitive mod q with parity a, x_n = pi n^2/q and root number
    W = tau(chi)/(i^a sqrt q), tau(chi) = sum_m chi(m) e(m/q) (Davenport,
    Multiplicative Number Theory, ch. 9):

        L(1, chi) = sum chi(n)/n G_a(x_n)
                    + W sqrt(pi/q) sum conj(chi(n)) H_a(x_n),

    G_1 = e^-x, H_1 = sqrt(pi) erfc(sqrt x), G_0 = erfc(sqrt x) and
    H_0 = E1(x)/sqrt(pi). The sums stop at the least N whose tail bound is
    at most 2^-60. With |chi| <= 1, |W| = 1, erfc(sqrt x) <= e^-x/sqrt(pi x)
    and E1(x) <= e^-x/x, each of the two tails n > N is at most
    sum_{n>N} f(n) e^-x_n, with f(n) = 1/n for a = 1 and
    f(n) = sqrt(q)/(pi n^2) for a = 0. Past m = N + 1, x_n grows by at least
    delta = pi (2m + 1)/q per step and f decreases, so both tails together
    are at most 2 f(m) e^-x_m/(1 - e^-delta). Only primitive, non-principal
    chi have this functional equation; any other raises DomainError. The
    value comes from the pass over chi's whole block (_Block.theta_l1).
    """
    if chi.is_principal:
        raise DomainError("principal character excluded (pole)")
    if not chi.primitive:
        raise DomainError("character mod %d is imprimitive" % (chi.modulus,))
    return chi._block.theta_l1()[0][chi._row]


def l1_row(chi: DirichletCharacter, val: complex) -> dict:
    """The row `dirichlet l1` prints for L(1, chi) = val; a survey row's first seven columns."""
    return {
        "q": chi.modulus,
        "char_index": chi.index,
        "conductor": chi.conductor,
        "parity": chi.parity,
        "re_L1": val.real,
        "im_L1": val.imag,
        "abs_L1": abs(val),
    }


def _csv_cell(v: object) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def survey_csv(rows: List[dict]) -> str:
    """CSV document of survey rows, headed by the keys of the first.

    Nulls become empty cells, booleans lowercase, floats their repr.
    """
    lines = [",".join(rows[0])]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row.values()))
    return "\n".join(lines) + "\n"


def survey(q_max: int) -> List[dict]:
    """Envelope comparison over primitive non-principal chi, 3 <= q <= q_max.

    A primitive chi mod q has conductor q, so for q >= 2 it is never the
    principal character (conductor 1), and its analytic conductor and
    envelope depend only on q and the parity: each is computed once per
    (q, parity). The L(1, chi) of one q come from one pass (l1_value).
    Each row is l1_row extended by C_chi, bound_upper, bound_valid and ratio.
    """
    if q_max < 3:
        raise DomainError("survey needs q_max >= 3")
    check_sweep(q_max)
    rows: List[dict] = []
    for q in range(3, q_max + 1):
        chars = enumerate_characters(q, primitive_only=True)
        if not chars:
            continue
        envelopes: Dict[int, Tuple[float, Optional[float], bool]] = {}
        for chi in chars:
            val = l1_value(chi)
            if chi.parity not in envelopes:
                c_chi = analytic_conductor(dirichlet_instance(chi))
                if math.log(c_chi) > 1.0:
                    rep = upper_bound(1, math.log(c_chi))
                    envelopes[chi.parity] = (c_chi, rep.upper, rep.valid)
                else:
                    envelopes[chi.parity] = (c_chi, None, False)
            c_chi, bu, bv = envelopes[chi.parity]
            row = l1_row(chi, val)
            ratio = None if bu is None else row["abs_L1"] / bu
            row.update(C_chi=c_chi, bound_upper=bu, bound_valid=bv, ratio=ratio)
            rows.append(row)
    return rows
