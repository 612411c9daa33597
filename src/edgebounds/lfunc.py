"""Degree-d L-function instances and their analytic conductors.

An instance carries the degree, the arithmetic conductor, the d spectral
parameters (all with nonnegative real part), and optionally a coefficient
oracle (p, k) -> a(p^k) with |a| <= d. When a(p^k) depends on p^k mod q
only, a residue table turns the coefficients of a whole prime-power grid
into one array lookup. Two factories cover the concrete cases used by the
laboratory: primitive Dirichlet characters (degree 1) and holomorphic
cusp-form shapes (degree 2).
"""

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .constants import PI
from .errors import DomainError

Number = Union[float, complex]
CoeffOracle = Callable[[int, int], complex]


@dataclass(frozen=True)
class SatakeLocal:
    """Local roots at one prime; coefficients satisfy a(p^k) = sum alpha^k."""

    prime: int
    alphas: Tuple[complex, ...]

    def __post_init__(self) -> None:
        if self.prime < 2:
            raise DomainError("prime must be >= 2")
        if any(abs(a) > 1.0 + 1e-12 for a in self.alphas):
            raise DomainError("local roots must satisfy |alpha| <= 1")

    def coefficient(self, k: int) -> complex:
        if k < 1:
            raise DomainError("exponent must be >= 1")
        return sum(a ** k for a in self.alphas)


@dataclass(frozen=True)
class LFunctionInstance:
    """Immutable degree-d instance."""

    d: int
    q: int
    local_params: Tuple[complex, ...]
    coeff_oracle: Optional[CoeffOracle] = None
    label: str = ""
    oracle_support: float = math.inf
    # a(p^k) = coeff_table[p^k % q]; must agree with coeff_oracle
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
        if any(k.real < 0.0 for k in params):
            raise DomainError("spectral parameters need nonnegative real part")
        object.__setattr__(self, "local_params", params)

    def zero_param_count(self) -> int:
        """Number of spectral parameters exactly equal to 0."""
        return sum(1 for k in self.local_params if k == 0)

    def nonzero_params(self) -> Tuple[complex, ...]:
        return tuple(k for k in self.local_params if k != 0)

    def coefficient(self, p: int, k: int) -> complex:
        if self.coeff_oracle is None:
            raise DomainError("instance %r has no coefficient oracle" % (self.label,))
        if p ** k > self.oracle_support:
            raise DomainError("coefficient oracle support ends at %r" % (self.oracle_support,))
        a = complex(self.coeff_oracle(p, k))
        if abs(a) > self.d + 1e-9:
            raise DomainError("coefficient bound |a| <= d violated at (%d, %d)" % (p, k))
        return a

    def coefficients(
        self, p_arr: np.ndarray, pk_arr: np.ndarray, k: Union[int, np.ndarray]
    ) -> np.ndarray:
        """a(p^k) over arrays of primes p and powers p^k.

        k is one exponent or an int array aligned with p_arr. A residue
        table is indexed once; a plain oracle is called per prime. Support
        and the |a| <= d bound are checked on the whole array.
        """
        if self.coeff_oracle is None:
            raise DomainError("instance %r has no coefficient oracle" % (self.label,))
        if np.any(pk_arr > self.oracle_support):
            raise DomainError("coefficient oracle support ends at %r" % (self.oracle_support,))
        k_arr = np.broadcast_to(k, np.shape(p_arr))
        if self.coeff_table is not None:
            a = self.coeff_table[pk_arr % self.q]
        else:
            a = np.array(
                [complex(self.coeff_oracle(int(p), int(e))) for p, e in zip(p_arr, k_arr)],
                dtype=np.complex128,
            )
        bad = np.flatnonzero(np.abs(a) > self.d + 1e-9)
        if bad.size:
            raise DomainError(
                "coefficient bound |a| <= d violated at (%d, %d)"
                % (p_arr[bad[0]], k_arr[bad[0]])
            )
        return a

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "d": self.d,
            "q": self.q,
            "kappas": [{"re": k.real, "im": k.imag} for k in self.local_params],
            "oracle": self.label if self.coeff_oracle is not None else "none",
        }


def analytic_conductor(inst: LFunctionInstance, s: Number = 1.0) -> float:
    """q / pi^d times the product of |(s + kappa_j) / 2|."""
    prod = 1.0
    for k in inst.local_params:
        prod *= abs((s + k) / 2.0)
    return inst.q / PI ** inst.d * prod


def t_aspect_conductor(inst: LFunctionInstance, t: float) -> float:
    """Conductor along the vertical line, q / pi^d prod |(1 + it + kappa_j)/2|."""
    return analytic_conductor(inst, 1.0 + 1j * float(t))


def dirichlet_instance(chi) -> LFunctionInstance:
    """Degree-1 instance of a primitive non-principal Dirichlet character."""
    if chi.is_principal:
        raise DomainError("principal character has no entire L-function here")
    if not chi.primitive:
        raise DomainError("character mod %d is imprimitive" % (chi.modulus,))
    q = chi.modulus

    def oracle(p: int, k: int) -> complex:
        return chi.value(pow(p, k, q))

    return LFunctionInstance(
        d=1,
        q=q,
        local_params=(complex(chi.parity),),
        coeff_oracle=oracle,
        label="dirichlet:%d:%d" % (q, chi.index),
        coeff_table=chi.value_table(),
    )


def hecke_instance(k: int, q: int) -> LFunctionInstance:
    """Degree-2 instance with spectral parameters (k-1)/2 and (k+1)/2."""
    if k < 1:
        raise DomainError("weight must be >= 1")
    if q < 1:
        raise DomainError("level must be >= 1")
    return LFunctionInstance(
        d=2,
        q=q,
        local_params=((k - 1) / 2.0 + 0j, (k + 1) / 2.0 + 0j),
        coeff_oracle=None,
        label="cuspform:w%d:q%d" % (k, q),
    )
