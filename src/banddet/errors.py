"""Exception types shared across the package, and the one order rule:
every routine that takes an order refuses one below 1 through
:func:`_require_order`, and every matrix passes :func:`_require_square`."""

__all__ = [
    "MixedRingError",
    "InexactDivisionError",
    "DivisibilityError",
    "SizeLimitError",
    "ParityError",
    "InvalidPermutationError",
]


class MixedRingError(TypeError):
    """Binary operation applied to elements of different rings."""


class InexactDivisionError(ArithmeticError):
    """An exact integer division left a remainder: unreachable for valid
    inputs, so raising it means a parameter or transcription bug."""


DivisibilityError = InexactDivisionError  # the closed forms' name for the same fault


class SizeLimitError(RuntimeError):
    """Order exceeds a cost guard for an exponential-time routine."""


class ParityError(ArithmeticError):
    """per + det turned out odd, or a parity census is inconsistent."""


class InvalidPermutationError(ValueError):
    """Sequence is not a permutation of 1..n in one-line notation."""


def _require_order(n: int, what: str = "order n") -> None:
    """Raise ValueError("<what> must be positive") when n < 1."""
    if n < 1:
        raise ValueError(f"{what} must be positive")


def _require_square(rows) -> None:
    """Refuse a matrix with no rows, or a row not as long as there are rows."""
    _require_order(len(rows))
    if set(map(len, rows)) != {len(rows)}:
        raise ValueError("matrix must be square")
