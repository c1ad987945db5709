"""hyperseq: exact harmonic-family sequences, operator calculus, and a
machine-audited registry of the identities relating them.

The registry's names (``run_suite``, ``verify``, ``Identity``, ...) load
on first access, so importing the package for the sequences alone does
not build it."""

from .analytic import (
    CertifiedReal,
    delta_hyperbolic_closed_form,
    digamma,
    euler_gamma,
    hyperharmonic_real,
    log_gamma,
    sum_series,
)
from .errors import (
    ComputationIntegrityError,
    ConfigError,
    ConvergenceError,
    DomainError,
)
from .exactnum import (
    ExactRational,
    binomial_general,
    binomial_int,
    factorial,
    falling_factorial,
    format_rational,
    make_rational,
    parse_rational,
    rising_factorial,
)
from .opcalc import (
    PowerSeries,
    binomial_transform,
    derivative_at_zero_linear_factors,
    derivative_at_zero_reciprocal,
    dx_reciprocal_rising,
    forward_difference,
    gf_alpha,
    gf_beta,
    gf_harmonic,
    gf_hyperharmonic,
    hypergeometric_terminating,
    inverse_binomial_transform,
    leaping_binomial,
)
from .sequences import (
    HyperharmonicMethod,
    alpha,
    beta,
    fibonacci,
    gen_harmonic,
    harmonic,
    hyperharmonic,
    hyperharmonic_half_integer_alt,
    hyperharmonic_neg,
    hyperharmonic_rational_order,
)

__version__ = "0.1.0"

#: Names served from :mod:`hyperseq.identities` on first use, so that
#: ``import hyperseq`` does not build the identity registry.
_IDENTITIES_EXPORTS = frozenset(
    {
        "AuditReport",
        "Identity",
        "SequenceValue",
        "get_identity",
        "list_identities",
        "run_suite",
        "verify",
    }
)


def __getattr__(name):
    if name in _IDENTITIES_EXPORTS:
        from . import identities

        return getattr(identities, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _IDENTITIES_EXPORTS)
