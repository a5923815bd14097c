"""Exception hierarchy shared by every ergolab module."""


class ErgolabError(Exception):
    """Base class for all errors raised by this package."""


class DomainMismatch(ErgolabError):
    """Operands live in incompatible exact domains (e.g. different surd bases)."""


class CapExceeded(ErgolabError):
    """A lazy computation would need more precision than the configured cap.

    Signals that the experiment must be rerun with a larger cap, never that
    the answer is approximate.
    """


class ExceptionalPoint(ErgolabError):
    """The point belongs to the measure-zero set on which the map is undefined."""


class PrecisionError(ErgolabError):
    """An exact construction would exceed the configured size bounds."""


class NotIrrational(ErgolabError):
    """A continued-fraction routine was handed a rational number."""


class HeightError(ErgolabError):
    """A tower is too short for the requested derived sets."""


class AlignmentError(ErgolabError):
    """A set is not a union of equal-length binary-prefix intervals."""


class FrontierError(ErgolabError):
    """A label was requested beyond the portion of the table built so far."""


class CoverageError(ErgolabError):
    """A query point falls outside every cell of a partition."""


class SingularFit(ErgolabError):
    """A least-squares fit whose predictors are all exactly zero."""


class InvariantViolation(ErgolabError):
    """A property an experiment proves for every trial failed at run time."""


class ConfigError(ErgolabError):
    """An experiment configuration is malformed or incomplete."""
