"""Exception types shared across the package."""


class FlatIsoError(Exception):
    """Base class for all package errors."""


class NumericError(FlatIsoError):
    """A numeric pipeline failed on valid input (CLI exit code 3)."""


class InputError(FlatIsoError, ValueError):
    """The input is malformed or out of scope (CLI exit code 2)."""


# --- ring layer ---------------------------------------------------------

class DivisionNotExact(FlatIsoError):
    """Requested quotient does not exist in the ring (or its localization)."""


class DenominatorNotUnit(InputError):
    """A parsed denominator is not rational * z^a * rel_z^b."""


class DegreeOverflow(FlatIsoError):
    """A monomial's total degree exceeds ring.MAX_DEGREE (the packed key field width)."""


class RootNotConverged(NumericError):
    """Newton iteration for the algebraic generator failed to converge."""


class RootCollision(NumericError):
    """Two tracked roots came closer than the separation threshold."""


# --- parser / documents --------------------------------------------------

class ParseError(InputError):
    """Syntax error with byte position, expected token class and found lexeme."""

    def __init__(self, position, expected, found):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(f"at {position}: expected {expected}, found {found!r}")


class SchemaError(InputError):
    """Document violates the potential-vector-field schema."""


# --- flat structure / divisors -------------------------------------------

class NotMonic(FlatIsoError):
    """det(-T) is not monic in the last variable, or the divisor of a long
    division is not monic in its main variable."""


class RowNotLogarithmic(FlatIsoError):
    def __init__(self, row):
        self.row = row
        super().__init__(f"row {row} is not a logarithmic vector field")


class NoRescalingFound(FlatIsoError):
    """No diagonal rescaling symmetrizes the gradient matrix."""


# --- numeric pipelines ----------------------------------------------------

class EigenvalueCollision(RootCollision):
    """Two roots of T0 came closer than the separation threshold."""


class RankViolation(NumericError):
    pass


class EntryIdenticallyZero(FlatIsoError):
    pass


class DegenerateLinearEntry(NumericError):
    pass


class InsufficientSamples(InputError):
    """Too few path points or grid samples for the five-point stencil."""


class StepUnderflow(NumericError):
    pass


class PoleOnPath(NumericError):
    """A pole lies on the path: of the connection on an integration loop,
    or of PVI at a sample of the solution."""


class BlowUp(NumericError):
    pass


class TrackingLost(NumericError):
    pass


class DegenerateTheta(FlatIsoError):
    pass


class PoleAtY(FlatIsoError):
    pass


class InverseMismatch(NumericError):
    pass


class ConditionDViolation(NumericError):
    def __init__(self, condition, detail=""):
        self.condition = condition
        super().__init__(f"condition {condition} violated{': ' + detail if detail else ''}")


class ResonantLambda(NumericError):
    """Two Okubo eigenvalues of residue snapshots nearly an integer apart,
    or a middle-convolution parameter on the spectrum {Gamma_inf} or at 0."""


class UnknownId(InputError):
    def __init__(self, entry_id):
        self.entry_id = entry_id
        super().__init__(f"unknown catalog id {entry_id!r}")
