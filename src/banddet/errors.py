"""Exception types shared across the package."""


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
