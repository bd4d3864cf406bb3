"""Exception hierarchy shared across the toolkit."""


class SheafSepError(Exception):
    """Base class for all errors raised by this package."""


class SizeBoundError(SheafSepError):
    """A construction exceeded its configured size bound."""


class UnknownObjectError(SheafSepError):
    """Reference to an object that is not part of the category."""


class CompositionError(SheafSepError):
    """Composite of a non-composable pair was requested."""


class TensorUndefinedError(SheafSepError):
    """Tensor requested on a pair outside the partial monoidal structure."""


class MonoidalStructureError(SheafSepError):
    """Operation needs a monoidal structure the base does not carry."""


class CoverageKindError(SheafSepError):
    """Coverage kind incompatible with the given category."""


class ResourceKindError(SheafSepError):
    """Resource sheaf kind incompatible with the given site."""


class BudgetExceededError(SheafSepError):
    """Exhaustive enumeration exceeded the configured budget."""

    def __init__(self, message, *, cover=None, size=None):
        super().__init__(message)
        self.cover = cover
        self.size = size


class NotASheafError(SheafSepError):
    """Operation required a sheaf; forwarded failure report attached."""

    def __init__(self, message, *, report=None):
        super().__init__(message)
        self.report = report


class StageMismatchError(SheafSepError):
    """Predicates or elements live at incompatible stages/resources."""


class FormulaSyntaxError(SheafSepError):
    """Formula text failed to parse; `position` is a 0-based offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifierError(SheafSepError):
    """Formula references a location/value/variable the model lacks."""


class AtomTypeError(SheafSepError):
    """Atom kind incompatible with the model's resource."""


class NotMeasurableError(SheafSepError):
    """Random variable is not measurable; carries the witness block."""

    def __init__(self, message, *, block=None):
        super().__init__(message)
        self.block = block


class PslBoundError(SheafSepError):
    """Sample-space size exceeds the configured probabilistic bound."""


class ModelSchemaError(SheafSepError):
    """Model file failed schema validation; `path` names the bad field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
