"""Exception types shared across the package."""


class FlatIsoError(Exception):
    """Base class for all package errors."""


# --- ring layer ---------------------------------------------------------

class DivisionNotExact(FlatIsoError):
    """Requested quotient does not exist in the ring (or its localization)."""


class DenominatorNotUnit(FlatIsoError):
    """A parsed denominator is not rational * z^a * rel_z^b."""


class DegreeOverflow(FlatIsoError):
    """A monomial's total degree exceeds ring.MAX_DEGREE (the packed key field width)."""


class RootNotConverged(FlatIsoError):
    """Newton iteration for the algebraic generator failed to converge."""


class RootCollision(FlatIsoError):
    """Two tracked roots came closer than the separation threshold."""


# --- parser / documents --------------------------------------------------

class ParseError(FlatIsoError):
    """Syntax error with byte position, expected token class and found lexeme."""

    def __init__(self, position, expected, found):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(f"at {position}: expected {expected}, found {found!r}")


class SchemaError(FlatIsoError):
    """Document violates the potential-vector-field schema."""


# --- flat structure / divisors -------------------------------------------

class NotMonic(FlatIsoError):
    """det(-T) is not monic in the last variable."""


class RowNotLogarithmic(FlatIsoError):
    def __init__(self, row):
        self.row = row
        super().__init__(f"row {row} is not a logarithmic vector field")


class NoRescalingFound(FlatIsoError):
    """No diagonal rescaling symmetrizes the gradient matrix."""


class DegenerateJacobian(FlatIsoError):
    def __init__(self, point):
        self.point = point
        super().__init__(f"flat-coordinate jacobian vanishes at {point}")


# --- numeric pipelines ----------------------------------------------------

class EigenvalueCollision(FlatIsoError):
    pass


class RankViolation(FlatIsoError):
    pass


class EntryIdenticallyZero(FlatIsoError):
    pass


class DegenerateLinearEntry(FlatIsoError):
    pass


class InsufficientSamples(FlatIsoError):
    pass


class StepUnderflow(FlatIsoError):
    pass


class BlowUp(FlatIsoError):
    pass


class TrackingLost(FlatIsoError):
    pass


class DegenerateTheta(FlatIsoError):
    pass


class PoleAtY(FlatIsoError):
    pass


class FactorizationFailed(FlatIsoError):
    pass


class InverseMismatch(FlatIsoError):
    pass


class ConditionDViolation(FlatIsoError):
    def __init__(self, condition, detail=""):
        self.condition = condition
        super().__init__(f"condition {condition} violated{': ' + detail if detail else ''}")


class ResonantLambda(FlatIsoError):
    pass


class PivotColumnNotFound(FlatIsoError):
    pass


class UnknownId(FlatIsoError):
    def __init__(self, entry_id):
        self.entry_id = entry_id
        super().__init__(f"unknown catalog id {entry_id!r}")
