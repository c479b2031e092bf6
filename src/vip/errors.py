"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`VipError` so callers (and
the CLI) can catch one base and map subclasses to exit codes.
"""


class VipError(Exception):
    pass


class DimensionError(VipError):
    """Operands have incompatible or malformed shapes."""


class ParameterError(VipError):
    """A value is outside its documented domain (negative variance, bad grid, ...)."""


class ContractError(VipError):
    """An API was used in a way its contract forbids (wrong mode, stale handle, ...)."""


class NumericalError(VipError):
    """A computation produced non-finite or otherwise unusable numbers.

    ``leaf_ids`` holds the requires-grad tape leaves a failing tape op
    depended on; it is empty for errors raised outside the tape.
    """

    leaf_ids: tuple[int, ...] = ()


class NotPositiveDefiniteError(NumericalError):
    """Cholesky pivot failure. ``pivot`` is the 0-based index that went non-positive."""

    def __init__(self, pivot: int, value: float):
        self.pivot = pivot
        self.value = value
        super().__init__(
            f"matrix is not positive definite: pivot {pivot} has value {value:.6g}"
        )


class ParseError(VipError):
    """Malformed text input. ``row``/``col`` are 1-based when known."""

    def __init__(self, message: str, row: int = 0, col: int = 0):
        self.row = row
        self.col = col
        loc = ""
        if row:
            loc = f" at row {row}" + (f", column {col}" if col else "")
        super().__init__(message + loc)


class ModelFileError(VipError):
    """A model file is structurally invalid or has an unsupported version."""
