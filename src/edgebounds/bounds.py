"""Conditional edge-of-strip value bounds for degree-d instances.

Evaluates the explicit three-term upper envelope for |L(1)| and the
four-term envelope for its reciprocal, both valid once the conductor
satisfies logC >= 23 d, together with the classical one-term reference
they sharpen. Values below the threshold are still computed but carry
valid=False.
"""

import math
from dataclasses import dataclass
from typing import Dict, Tuple

from .constants import TWELVE_E_GAMMA_OVER_PI2, TWO_E_GAMMA
from .errors import DomainError

__all__ = [
    "BoundConstants",
    "BoundReport",
    "constants",
    "upper_bound",
    "littlewood_reference",
]


@dataclass(frozen=True)
class BoundConstants:
    """Degree-dependent envelope constants."""

    d: int
    K: float
    J1: float
    J2: float

    def __post_init__(self) -> None:
        if self.d < 1:
            raise DomainError("degree must be >= 1")
        if not (self.K >= 2.31 and self.J1 >= 2.0 and self.J2 >= 9.0):
            raise DomainError("constants below their floor values")


@dataclass(frozen=True)
class BoundReport:
    """Both envelope values at one (d, logC), with per-term breakdown."""

    d: int
    logC: float
    L: float
    x: float
    valid: bool
    upper: float
    lower_reciprocal: float
    terms: Dict[str, object]
    littlewood: Dict[str, float]

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "logC": self.logC,
            "L": self.L,
            "x": self.x,
            "valid": self.valid,
            "upper": self.upper,
            "lower_reciprocal": self.lower_reciprocal,
            "terms": self.terms,
            "littlewood": dict(self.littlewood),
        }


def constants(d: int) -> BoundConstants:
    """Closed-form K, J1, J2; expm1 keeps small-d relative error near 1 ulp."""
    if d < 1:
        raise DomainError("degree must be >= 1")
    try:
        e31 = math.expm1(0.31 * d) - 0.31 * d
        e69 = math.expm1(0.69 * d) - 0.69 * d
    except OverflowError:
        raise DomainError("degree %d overflows the constants K, J1, J2" % (d,)) from None
    return BoundConstants(
        d=d,
        K=2.31 + 22.59 / d * e31,
        J1=2.0 + 4.18 / d * e69,
        J2=9.0 + 16.74 / d * e69,
    )


def _ipow(y: float, n: int) -> float:
    # d=1 makes the trailing term a genuine negative power of Y; the
    # only non-finite case is Y = 0 exactly, far below the valid range.
    if n < 0 and y == 0.0:
        return math.inf
    try:
        return y ** n
    except OverflowError:
        raise DomainError(
            "%r ** %d overflows a double; the degree is too large" % (y, n)
        ) from None


def upper_bound(d: int, logC: float) -> BoundReport:
    """Full report at (d, logC): both envelopes, their terms and the Littlewood pair.

    upper = (2 e^gamma)^d [Y^d + (d/2) Y^(d-1) + (d K / 4) Y^(d-2)], Y = loglogC - log 2d;
    lower_reciprocal takes J1 for K, (12 e^gamma/pi^2)^d as scale, plus d^2 J2 Y^d / logC.
    """
    if d < 1:
        raise DomainError("degree must be >= 1")
    logC = float(logC)
    if not 1.0 < logC < math.inf:
        raise DomainError("need finite logC > 1 for log log C, got %r" % (logC,))
    c = constants(d)
    L = math.log(logC)
    Y = L - math.log(2 * d)
    x = logC * logC / (4.0 * d * d)
    valid = logC >= 23.0 * d

    up_scale = _ipow(TWO_E_GAMMA, d)
    up_leading = _ipow(Y, d)
    up_half = 0.5 * d * _ipow(Y, d - 1)
    up_k = 0.25 * d * c.K * _ipow(Y, d - 2)
    upper = up_scale * (up_leading + up_half + up_k)

    lo_scale = _ipow(TWELVE_E_GAMMA_OVER_PI2, d)
    lo_leading = up_leading
    lo_half = up_half
    lo_j1 = 0.25 * d * c.J1 * _ipow(Y, d - 2)
    lo_j2 = d * d * c.J2 * _ipow(Y, d) / logC
    lower_reciprocal = lo_scale * (lo_leading + lo_half + lo_j1 + lo_j2)

    lw_up, lw_lo = littlewood_reference(d, logC)
    terms: Dict[str, object] = {
        "Y": Y,
        "upper": {
            "scale": up_scale,
            "leading": up_leading,
            "half_d_term": up_half,
            "k_term": up_k,
        },
        "lower": {
            "scale": lo_scale,
            "leading": lo_leading,
            "half_d_term": lo_half,
            "j1_term": lo_j1,
            "j2_term": lo_j2,
        },
    }
    return BoundReport(
        d=d,
        logC=logC,
        L=L,
        x=x,
        valid=valid,
        upper=upper,
        lower_reciprocal=lower_reciprocal,
        terms=terms,
        littlewood={"upper": lw_up, "lower": lw_lo},
    )


def littlewood_reference(d: int, logC: float) -> Tuple[float, float]:
    """Classical one-term reference pair ((2 e^g L)^d, (12 e^g L / pi^2)^d)."""
    if not 1.0 < logC < math.inf:
        raise DomainError("need finite logC > 1 for log log C, got %r" % (logC,))
    L = math.log(logC)
    return (_ipow(TWO_E_GAMMA * L, d), _ipow(TWELVE_E_GAMMA_OVER_PI2 * L, d))
