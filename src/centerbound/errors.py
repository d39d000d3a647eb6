"""Exception types shared across the package.

Every failure mode that the library promises to report loudly has its own
class here, so callers can distinguish "your input violates a hypothesis"
(NotAbelian, NotNormal, ...) from "the computation would exceed a configured
cap" (CapExceeded).  Caps never silently subsample.
"""


class CenterboundError(Exception):
    """Base class for all errors raised by this package."""


class DegreeMismatch(CenterboundError):
    """Two permutations (or a permutation and a group) disagree on degree."""


class CapExceeded(CenterboundError):
    """A computation would exceed a configured cap.

    Attributes carry what was capped, the cap, and the offending value so
    reports can show exactly which limit fired.  kind is the cap's key when
    the refusal comes from ``group.admit``, the one cap check, and None
    otherwise; the memo remembers only the former.
    """

    kind: str | None = None

    def __init__(self, what: str, limit: int, value):
        self.what = what
        self.limit = limit
        self.value = value
        super().__init__(f"{what}: {value} exceeds cap {limit}")


class NotNormal(CenterboundError):
    """A subgroup required to be normal is not."""


class NotAbelian(CenterboundError):
    """A group required to be abelian is not."""


class NotPGroup(CenterboundError):
    """A group required to be a p-group is not."""


class NotGenerating(CenterboundError):
    """A purported generating set does not generate the group."""


class NotInDerived(CenterboundError):
    """An element required to lie in the derived subgroup does not."""


class BadAnchors(CenterboundError):
    """Anchor elements do not generate the group together with its center."""


class BadFamily(CenterboundError):
    """A subgroup family required to have trivial intersection does not."""


class UnknownFamily(CenterboundError):
    """Group family name not recognised by the builder."""


class ArgOutOfRange(CenterboundError):
    """Family argument outside the documented range."""


class ParseError(CenterboundError):
    """Malformed permutation or group file.

    Carries a 1-based line number when parsing multi-line input.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DegreeViolation(ParseError):
    """A cycle mentions a point larger than the declared degree."""
