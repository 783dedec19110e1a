"""Exact log series solutions of codimension-one A-hypergeometric systems.

The pipeline: build a configuration from integer points (lattice), compute
its candidate exponents (exponents), evaluate the rational coefficient
constants (coefficients), assemble truncated log series solutions (series),
certify them against the defining operators (verify) and classify the
monodromy combinatorics (classify).  Everything is exact rational
arithmetic; there is no floating point anywhere.
"""

from .classify import (
    Classification,
    SingularityType,
    classify,
    is_mum,
    is_mum_holomorphic,
    singularity_type,
)
from .coefficients import (
    coefficient_M,
    elementary_symmetric,
    f_coefficients,
    pochhammer,
)
from .exponents import (
    Exponent,
    IntervalSet,
    PrimeExponents,
    SupportVerdict,
    exponent_set_prime,
    fake_exponents,
    integer_lift,
    m_support,
    match_exponent,
    negative_support,
    normalize_to_e_prime,
    support_verdict,
)
from .lattice import (
    FacetFunctional,
    LatticeConfig,
    Nonresonance,
    Parameter,
    PointConfig,
    build_config,
    facet_functional,
    is_nonresonant,
    parameter,
    volume_crosscheck,
)
from .series import (
    BundleReport,
    LogSeries,
    SolutionBundle,
    log_solution,
    phi_series,
    scalar_relation_check,
    solution_bundle,
)
from .verify import (
    Certificate,
    OperatorReport,
    apply_box,
    apply_euler,
    apply_euler_row,
    certify,
)

__version__ = "0.1.0"

__all__ = [
    "BundleReport",
    "Certificate",
    "Classification",
    "Exponent",
    "FacetFunctional",
    "IntervalSet",
    "LatticeConfig",
    "LogSeries",
    "Nonresonance",
    "OperatorReport",
    "Parameter",
    "PointConfig",
    "PrimeExponents",
    "SingularityType",
    "SolutionBundle",
    "SupportVerdict",
    "apply_box",
    "apply_euler",
    "apply_euler_row",
    "build_config",
    "certify",
    "classify",
    "coefficient_M",
    "elementary_symmetric",
    "exponent_set_prime",
    "f_coefficients",
    "facet_functional",
    "fake_exponents",
    "integer_lift",
    "is_mum",
    "is_mum_holomorphic",
    "is_nonresonant",
    "log_solution",
    "m_support",
    "match_exponent",
    "negative_support",
    "normalize_to_e_prime",
    "parameter",
    "phi_series",
    "pochhammer",
    "scalar_relation_check",
    "singularity_type",
    "solution_bundle",
    "support_verdict",
    "volume_crosscheck",
]
