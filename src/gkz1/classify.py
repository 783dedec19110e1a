"""Singularity type and maximal-unipotent-monodromy classification.

The monodromy questions are combinatorial here: with a regular singular
point and a nonresonant parameter, maximal unipotency is equivalent to the
normalized exponent set being a singleton, which in turn is equivalent to a
pair of lattice conditions on the parameter and the relation.  Both routes
are computed and must agree; holomorphy of the log coefficients adds the
requirement that the unique exponent vanishes on the positive side.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    InternalInvariantError,
    IrregularSingularity,
    NotNonresonant,
)
from .exponents import exponent_set_prime
from .lattice import LatticeConfig, is_nonresonant, parameter


class SingularityType(Enum):
    REGULAR = "regular"
    IRREGULAR = "irregular"


def singularity_type(config: LatticeConfig) -> SingularityType:
    """Regular iff the positive relation entries carry the full volume."""
    if config.positive_sum == config.volume:
        return SingularityType.REGULAR
    return SingularityType.IRREGULAR


@dataclass(frozen=True)
class Classification:
    """Classification verdicts; None means outside the supported regime."""

    regular: bool
    nonresonant: bool
    mum: bool | None
    mum_holomorphic: bool | None
    witness: dict


def _parameter_class_integral_on_positive(config, beta) -> bool:
    """Does beta admit a representation with integers on the positive side?

    Solutions of the column system form a line c + t*relation; the question
    is whether some rational t makes every positive-side coordinate an
    integer, an intersection of arithmetic progressions in t.
    """
    return beta.line.integral_steps(config.positive) is not None


def _parameter_in_negative_span(config, beta) -> bool:
    """Is beta a combination of the negative columns alone?

    Exactly when some point c + t*relation of its line is zero at every
    positive coordinate, that is, when -c[mu]/relation[mu] is one and the
    same t for every positive mu.
    """
    c, rel = beta.line.point, config.relation
    return len({-c[mu] / rel[mu] for mu in config.positive}) == 1


def _classification(config: LatticeConfig, beta) -> Classification:
    primes = exponent_set_prime(config, beta)
    singleton = len(primes.exponents) == 1
    condition_a = _parameter_class_integral_on_positive(config, beta)
    condition_b = all(config.relation[mu] == 1 for mu in config.positive)
    if singleton != (condition_a and condition_b):
        raise InternalInvariantError(
            "singleton exponent set disagrees with the lattice conditions"
        )
    exponent = primes.exponents[0] if singleton else None
    positive_entries_zero = singleton and all(
        exponent.vector[mu] == 0 for mu in config.positive
    )
    holomorphic_a = _parameter_in_negative_span(config, beta)
    holomorphic = singleton and positive_entries_zero
    if holomorphic != (holomorphic_a and condition_b):
        raise InternalInvariantError(
            "holomorphic-MUM test disagrees with the span condition"
        )
    witness = {
        "singleton": singleton,
        "integer_class_on_positive": condition_a,
        "unit_positive_entries": condition_b,
        "negative_span": holomorphic_a,
        "exponent": [str(x) for x in exponent.vector] if exponent else None,
    }
    return Classification(
        regular=True,
        nonresonant=True,
        mum=singleton,
        mum_holomorphic=holomorphic,
        witness=witness,
    )


def _require_regime(config: LatticeConfig, beta):
    beta = parameter(config, beta)
    if singularity_type(config) is not SingularityType.REGULAR:
        raise IrregularSingularity("x0 = 0 is an irregular singularity")
    resonance = is_nonresonant(config, beta)
    if not resonance:
        raise NotNonresonant(resonance.witness)
    return beta


def is_mum(config: LatticeConfig, beta) -> Classification:
    """Maximal unipotent monodromy tests; needs Regular and nonresonant.

    One classification answers both questions: `mum`, and `mum_holomorphic`
    (MUM with only nonnegative shifts in the log coefficients), so
    is_mum_holomorphic is this same function.
    """
    return _classification(config, _require_regime(config, beta))


is_mum_holomorphic = is_mum


def classify(config: LatticeConfig, beta) -> Classification:
    """Non-raising classification; MUM fields are None outside the regime."""
    beta = parameter(config, beta)
    regular = singularity_type(config) is SingularityType.REGULAR
    resonance = is_nonresonant(config, beta)
    if not (regular and resonance):
        witness = {}
        if not resonance:
            witness["resonance_witness"] = resonance.witness
        return Classification(
            regular=regular,
            nonresonant=bool(resonance),
            mum=None,
            mum_holomorphic=None,
            witness=witness,
        )
    return _classification(config, beta)
