"""Singularity type and maximal-unipotent-monodromy classification.

The monodromy questions are combinatorial here: with a regular singular
point and a nonresonant parameter, maximal unipotency is equivalent to the
normalized exponent set being a singleton, which in turn is equivalent to a
pair of lattice conditions on the parameter and the relation.  The
conditions are decided on the parameter's relation line; only when both
hold is the exponent set built, with at most k exponents as every positive
relation entry is then 1, and it must be a singleton.  Holomorphy of the
log coefficients adds the requirement that the unique exponent vanishes on
the positive side.
"""

from __future__ import annotations

from enum import Enum

from ._record import Record
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


class Classification(Record):
    """Classification verdicts; None means outside the supported regime."""

    def __init__(self, regular, nonresonant, mum, mum_holomorphic, witness):
        self.__dict__.update(
            regular=regular, nonresonant=nonresonant, mum=mum,
            mum_holomorphic=mum_holomorphic, witness=witness,
        )


def _parameter_in_negative_span(config, beta) -> bool:
    """Is beta a combination of the negative columns alone?

    Exactly when some point c + t*relation of its line is zero at every
    positive coordinate, that is, when -c[mu]/relation[mu] is one and the
    same t for every positive mu: in the line's integers,
    offsets[mu]*relation[nu] = offsets[nu]*relation[mu] for all of them.
    """
    line = beta.line
    a, rel = line.offsets, line.relation
    first, *others = config.positive
    return all(a[mu] * rel[first] == a[first] * rel[mu] for mu in others)


def _classification(config: LatticeConfig, beta) -> Classification:
    # (a): some point c + t*relation of beta's line is an integer at every
    # positive coordinate, one congruence per coordinate on the line's keys
    condition_a = beta.line.integral_steps(config.positive) is not None
    condition_b = all(config.relation[mu] == 1 for mu in config.positive)
    singleton = condition_a and condition_b
    exponent = None
    if singleton:
        primes = exponent_set_prime(config, beta)
        if len(primes.exponents) != 1:
            raise InternalInvariantError(
                "the lattice conditions hold but the exponent set is no singleton"
            )
        exponent = primes.exponents[0]
    holomorphic_a = _parameter_in_negative_span(config, beta)
    holomorphic = singleton and all(exponent.vector[mu] == 0 for mu in config.positive)
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


def is_mum(config: LatticeConfig, beta) -> Classification:
    """Maximal unipotent monodromy tests; needs Regular and nonresonant.

    One classification answers both questions: `mum`, and `mum_holomorphic`
    (MUM with only nonnegative shifts in the log coefficients), so
    is_mum_holomorphic is this same function.
    """
    result = classify(config, beta)
    if not result.regular:
        raise IrregularSingularity("x0 = 0 is an irregular singularity")
    if not result.nonresonant:
        raise NotNonresonant(result.witness["resonance_witness"])
    return result


is_mum_holomorphic = is_mum


def classify(config: LatticeConfig, beta) -> Classification:
    """Non-raising classification; MUM fields are None outside the regime."""
    beta = parameter(config, beta)
    regular = singularity_type(config) is SingularityType.REGULAR
    resonance = is_nonresonant(config, beta)
    if not (regular and resonance):
        witness = {} if resonance else {"resonance_witness": resonance.witness}
        return Classification(
            regular=regular,
            nonresonant=bool(resonance),
            mum=None,
            mum_holomorphic=None,
            witness=witness,
        )
    return _classification(config, beta)
