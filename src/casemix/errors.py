"""Exception and warning types shared across the package."""


class CasemixError(Exception):
    """Base class for all package errors."""


# --- data ingestion ---

class MissingColumn(CasemixError):
    pass


class NonBinaryValue(CasemixError):
    pass


class NonNumericCovariate(CasemixError):
    pass


class EmptyDataset(CasemixError):
    pass


class SingleArmStudy(CasemixError):
    pass


class UnknownStudy(CasemixError):
    pass


# --- model fitting ---

class NoConvergence(CasemixError):
    """Newton iterations exhausted without meeting the step tolerance.

    Carries the last iterate so callers can inspect how far the fit got.
    """

    def __init__(self, message, last_fit=None):
        super().__init__(message)
        self.last_fit = last_fit


class RankDeficient(CasemixError):
    def __init__(self, message, dropped=()):
        super().__init__(message)
        self.dropped = tuple(dropped)


class AllSameResponse(CasemixError):
    pass


class UnknownReference(CasemixError):
    pass


class DimensionMismatch(CasemixError):
    pass


# --- standardization ---

class InvalidFormula(CasemixError, ValueError):
    """A formula that cannot serve its model's role: a membership model that
    references treat."""


class DivisionByZero(CasemixError):
    """A stabilized-weight denominator has no mass: positivity failure."""


class UndefinedMeasure(CasemixError):
    """Effect measure not computable from the given probabilities (e.g. p0=0)."""


# --- variance ---

class SingularBread(CasemixError):
    def __init__(self, message, condition_number=None):
        super().__init__(message)
        self.condition_number = condition_number


class TooManyFailedReplicates(CasemixError):
    pass


# --- pooling and testing ---

class NoEstimableInputs(CasemixError):
    pass


class SingularContrastCovariance(CasemixError):
    def __init__(self, message, condition_number=None):
        super().__init__(message)
        self.condition_number = condition_number


# --- warnings ---

class SeparationWarning(UserWarning):
    """Fitted logistic model shows (quasi-)complete separation."""


class PositivityWarning(UserWarning):
    """Extreme transport weights observed (possible positivity violation)."""
