"""Conditional bounds for degree-d L-function edge values, with audits.

Public surface: the instance model (lfunc), envelope evaluation (bounds),
prime-power sums (primes), special functions (special), the degree-1
laboratory (dirichlet), inequality/identity/window audits (audits), and
the CLI (cli). The smallest-prime-factor sieve behind every prime table is
one NumPy routine, so ``kernel_backend()`` always reports ``"python"``.
"""

from .audits import (
    AuditRecord,
    Interval,
    a_terms_audit,
    explicit_formula_window,
    extremum_h,
    extremum_logratio,
    identity_residual_techlem1,
    run_audit,
    verify_chandee_grid,
    verify_p2_positivity,
    verify_techlem2_grid,
    verify_trig_inequality,
)
from .bounds import (
    BoundConstants,
    BoundReport,
    constants,
    littlewood_reference,
    upper_bound,
)
from .dirichlet import (
    DirichletCharacter,
    enumerate_characters,
    l1_value,
    l1_value_series,
    survey,
)
from .errors import DomainError, EdgeboundsError, ResourceBudgetError
from .lfunc import (
    LFunctionInstance,
    analytic_conductor,
    dirichlet_instance,
    hecke_instance,
)
from .primes import (
    PrimeTable,
    WeightedSumResult,
    alternating_prime_power_sum,
    build_table,
    is_prime_power,
    prime_power_grid,
    psi_total,
    smoothed_sum_linear,
    smoothed_sum_log,
)
from .special import (
    SeriesValue,
    chandee_margin,
    digamma,
    digamma_rational,
    kappa_series_closed,
    kappa_series_direct,
    techlem2_bound_ratio,
    trivial_zero_tail,
)

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the sieve implementation; the NumPy sieve is the only one."""
    return "python"


__all__ = [
    "AuditRecord",
    "BoundConstants",
    "BoundReport",
    "DirichletCharacter",
    "DomainError",
    "EdgeboundsError",
    "Interval",
    "LFunctionInstance",
    "PrimeTable",
    "ResourceBudgetError",
    "SeriesValue",
    "WeightedSumResult",
    "a_terms_audit",
    "alternating_prime_power_sum",
    "analytic_conductor",
    "build_table",
    "chandee_margin",
    "constants",
    "digamma",
    "digamma_rational",
    "dirichlet_instance",
    "enumerate_characters",
    "explicit_formula_window",
    "extremum_h",
    "extremum_logratio",
    "hecke_instance",
    "identity_residual_techlem1",
    "is_prime_power",
    "kappa_series_closed",
    "kappa_series_direct",
    "kernel_backend",
    "l1_value",
    "l1_value_series",
    "littlewood_reference",
    "prime_power_grid",
    "psi_total",
    "run_audit",
    "smoothed_sum_linear",
    "smoothed_sum_log",
    "survey",
    "techlem2_bound_ratio",
    "trivial_zero_tail",
    "upper_bound",
    "verify_chandee_grid",
    "verify_p2_positivity",
    "verify_techlem2_grid",
    "verify_trig_inequality",
    "__version__",
]
