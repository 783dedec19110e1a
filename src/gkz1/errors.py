"""Exception hierarchy shared by the whole package.

Every error derives from InputError (exit 2), HypothesisError (exit 3) or
InternalInvariantError (exit 1); each of the three carries the CLI's exit
code and the label of its one stderr line, so the CLI maps no class by hand.
"""


class GkzError(Exception):
    """Base class for all library errors."""


class InputError(GkzError):
    """Invalid input; raised itself for a bad file, number or shape."""
    exit_code, label = 2, "input error"


class HypothesisError(GkzError):
    """Valid data outside the regime a construction supports."""
    exit_code, label = 3, "hypothesis violation"


class InternalInvariantError(GkzError):
    """A mathematically guaranteed identity failed: implementation bug."""
    exit_code, label = 1, "internal invariant failure"


# -- configuration construction -------------------------------------------

class KernelRankNotOne(InputError):
    """The integer kernel of the point matrix does not have rank one."""


class DependentSubset(InputError):
    """Some subset of n-1 columns is linearly dependent."""

    def __init__(self, omitted: int):
        self.omitted = omitted
        super().__init__(
            f"columns excluding index {omitted} are linearly dependent"
        )


class BetaNotInSpan(InputError):
    """The parameter vector is not a rational combination of the columns."""


class NotInLattice(InputError):
    """A shift vector u is not an integer combination of the columns."""


# -- series requests ---------------------------------------------------------
# Also ValueErrors, which the series functions raised for them before.

class LiftMismatch(InputError, ValueError):
    """An explicit integer lift has the wrong length or does not produce u."""


class NegativeDegree(InputError, ValueError):
    """A requested log degree r is negative."""


class EmptyWindow(InputError, ValueError):
    """A window (lo, hi) with lo > hi."""


# -- hypothesis violations --------------------------------------------------

class NotNonresonant(HypothesisError):
    """An operation requiring a nonresonant parameter got a resonant one."""

    def __init__(self, witness=None):
        self.witness = witness
        msg = "parameter is resonant"
        if witness is not None:
            i, j, value = witness
            msg += f" (facet pair ({i},{j}) evaluates to integer {value})"
        super().__init__(msg)


class IrregularSingularity(HypothesisError):
    """x0 = 0 is an irregular singularity; the classification is undefined."""


class NotMinimalSupport(HypothesisError):
    """The exponent fails minimal negative support for the required index set."""

    def __init__(self, indices, lift):
        self.indices = frozenset(indices)
        self.lift = tuple(lift)
        super().__init__(
            f"no minimal negative support on I={sorted(self.indices)}"
        )


class HypothesisViolated(HypothesisError):
    """A log-solution hypothesis fails for at least one index set."""

    def __init__(self, failing_sets):
        self.failing_sets = tuple(frozenset(s) for s in failing_sets)
        shown = ", ".join(str(sorted(s)) for s in self.failing_sets)
        super().__init__(f"minimal-support hypothesis fails for I in: {shown}")


class RNotLessThanMultiplicity(HypothesisError):
    """Requested log degree r is not below the exponent multiplicity."""


# -- coefficient domain ------------------------------------------------------

class ExcludedCase(InternalInvariantError):
    """M_{l,s}(v) requested in the regime where the closed form is invalid.

    Reaching this always indicates a precondition bug in the caller.
    """

    def __init__(self, l: int, s: int, v):
        super().__init__(f"M_({l},{s})({v}) has no closed form here")


# -- internal invariant failures ---------------------------------------------

class CountMismatch(InternalInvariantError):
    """The multiplicity tally does not match the relation-coefficient sum."""

