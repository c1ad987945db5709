"""hyperseq: exact harmonic-family sequences, operator calculus, and a
machine-audited registry of the identities relating them.

The names of ``analytic``, ``opcalc`` and the registry (``run_suite``,
``verify``, ``Identity``, ...) load on first access, so importing the
package for the sequences alone, as every CLI command does, compiles
none of those modules."""

import importlib

from .errors import (
    ComputationIntegrityError,
    ConfigError,
    ConvergenceError,
    DomainError,
)
from .exactnum import (
    binomial_general,
    binomial_int,
    factorial,
    falling_factorial,
    format_rational,
    parse_rational,
    rising_factorial,
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

#: Names served from their module on first use: ``{name: module}``.
_LAZY_EXPORTS = {
    name: module
    for module, names in {
        "analytic": (
            "CertifiedReal",
            "delta_hyperbolic_closed_form",
            "digamma",
            "hyperharmonic_real",
            "log_gamma",
            "sum_series",
        ),
        "identities": (
            "AuditReport",
            "Identity",
            "SequenceValue",
            "get_identity",
            "list_identities",
            "run_suite",
            "verify",
        ),
        "opcalc": (
            "PowerSeries",
            "binomial_transform",
            "dx_reciprocal_rising",
            "forward_difference",
            "gf_alpha",
            "gf_beta",
            "gf_harmonic",
            "gf_hyperharmonic",
            "inverse_binomial_transform",
            "leaping_binomial",
        ),
    }.items()
    for name in names
}


def __getattr__(name):
    module = _LAZY_EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
