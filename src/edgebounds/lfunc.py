"""Degree-d L-function instances and their analytic conductors.

An instance carries the degree, the arithmetic conductor, the d spectral
parameters (finite, with nonnegative real part), and optionally one source
of coefficients: a residue table with a(p^k) = table[p^k % q]. The
Ramanujan-Petersson bound |a| <= d is checked once, on the q table
entries, when the instance is built; the coefficients of a whole
prime-power grid are then one array lookup. Two factories cover the
concrete cases used by the laboratory: primitive Dirichlet characters
(degree 1) and shape-only holomorphic cusp forms (degree 2, no table).
"""

import cmath
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .constants import PI
from .errors import DomainError


@dataclass(frozen=True)
class LFunctionInstance:
    """Immutable degree-d instance.

    coeff_table holds a(p^k) = coeff_table[p^k % q] as q complex entries,
    each with |a| <= d; it is checked once here and stored read-only. None
    makes a shape-only instance, which has no coefficients.
    """

    d: int
    q: int
    local_params: Tuple[complex, ...]
    label: str = ""
    coeff_table: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.d < 1:
            raise DomainError("degree must be >= 1")
        if self.q < 1:
            raise DomainError("conductor must be >= 1")
        params = tuple(complex(k) for k in self.local_params)
        if len(params) != self.d:
            raise DomainError(
                "expected %d spectral parameters, got %d" % (self.d, len(params))
            )
        # refuses a nan or infinite part too, which k.real < 0 let through
        if not all(cmath.isfinite(k) and k.real >= 0.0 for k in params):
            raise DomainError("spectral parameters need to be finite with nonnegative real part")
        object.__setattr__(self, "local_params", params)
        if self.coeff_table is None:
            return
        tab = np.asarray(self.coeff_table)
        if tab.shape != (self.q,) or tab.dtype.kind != "c":
            raise DomainError(
                "coefficient table must be a 1-D complex array of length q = %d" % (self.q,)
            )
        # written negated so that a nan entry fails too
        bad = np.flatnonzero(~(np.abs(tab) <= self.d + 1e-9))
        if bad.size:
            raise DomainError(
                "coefficient bound |a| <= d violated at residue %d mod %d" % (bad[0], self.q)
            )
        tab = tab.astype(np.complex128)  # a private copy, so no caller can write to it
        tab.flags.writeable = False
        object.__setattr__(self, "coeff_table", tab)

    def zero_param_count(self) -> int:
        """Number of spectral parameters exactly equal to 0."""
        return sum(1 for k in self.local_params if k == 0)

    def nonzero_params(self) -> Tuple[complex, ...]:
        return tuple(k for k in self.local_params if k != 0)

    def coefficients(self, res: np.ndarray) -> np.ndarray:
        """a(p^k) over an int array of residues p^k % q, each in [0, q).

        The residues of one modulus serve every instance with that q.
        """
        if self.coeff_table is None:
            raise DomainError("instance %r has no coefficient table" % (self.label,))
        return self.coeff_table[res]

    def coefficient(self, p: int, k: int) -> complex:
        """a(p^k) for one prime power, read from the same table."""
        return complex(self.coefficients(np.array(pow(p, k, self.q))))


def analytic_conductor(inst: LFunctionInstance) -> float:
    """q / pi^d times the product of |(1 + kappa_j) / 2|."""
    prod = 1.0
    for k in inst.local_params:
        prod *= abs((1.0 + k) / 2.0)
    return inst.q / PI ** inst.d * prod


def dirichlet_instance(chi) -> LFunctionInstance:
    """Degree-1 instance of a primitive non-principal Dirichlet character."""
    if chi.is_principal:
        raise DomainError("principal character has no entire L-function here")
    if not chi.primitive:
        raise DomainError("character mod %d is imprimitive" % (chi.modulus,))
    q = chi.modulus
    return LFunctionInstance(
        d=1,
        q=q,
        local_params=(complex(chi.parity),),
        label="dirichlet:%d:%d" % (q, chi.index),
        coeff_table=chi.value_table(),
    )


def hecke_instance(k: int, q: int) -> LFunctionInstance:
    """Shape-only degree-2 instance, spectral parameters (k-1)/2 and (k+1)/2, no table."""
    if k < 1:
        raise DomainError("weight must be >= 1")
    if q < 1:
        raise DomainError("level must be >= 1")
    return LFunctionInstance(
        d=2,
        q=q,
        local_params=((k - 1) / 2.0 + 0j, (k + 1) / 2.0 + 0j),
        label="cuspform:w%d:q%d" % (k, q),
    )
