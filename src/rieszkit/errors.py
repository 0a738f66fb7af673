"""Exception types shared across the toolkit, and the audit items that raise them."""

from .records import record


class RieszkitError(Exception):
    """Base class for all toolkit errors."""


class SingularPoint(RieszkitError):
    """A weight was evaluated at a pole or zero of its analytic form."""


class ConfigError(RieszkitError):
    """A run configuration failed schema validation."""

    def __init__(self, path: str, message: str):
        self.path, self.message = path, message
        super().__init__(f"{path}: {message}")

    def __reduce__(self):  # a process pool passes errors back pickled
        return type(self), (self.path, self.message)


class OutOfGrid(ConfigError):
    """A tabulated weight was evaluated outside its grid (``weight.grid``)."""


class NotIntegrable(RieszkitError):
    """The requested power of a weight is not locally integrable."""


class QuadratureDiverged(RieszkitError):
    """Successive quadrature refinements failed to settle within tolerance."""


class DegenerateProfile(RieszkitError):
    """Moment projection annihilated a candidate atom profile."""


class MisclassifiedSample(RieszkitError):
    """A sample point expected in the outer region lies in an expanded ball."""


class HypothesisFailed(RieszkitError):
    """A check was run on inputs violating one of its audited hypotheses."""

    def __init__(self, item: str, detail: str = ""):
        self.item = item
        self.detail = detail
        msg = f"hypothesis failed: {item}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


@record
class AuditItem:
    """One audited hypothesis of a check and whether it held."""

    name: str
    value: float | str
    passed: bool
    detail: str = ""


def require_hypotheses(audits):
    """Raise HypothesisFailed for the first audit item that failed; its
    detail is the item's ``detail``, or else ``value <value>``."""
    for a in audits:
        if not a.passed:
            raise HypothesisFailed(a.name, a.detail or f"value {a.value}")
