"""Exception types shared across the package."""


class HfStrataError(Exception):
    """Base class for all package-specific errors."""


class StructureError(HfStrataError):
    """Objects from incompatible rings/fields were combined."""


class InhomogeneousError(HfStrataError):
    """A polynomial expected to be homogeneous mixes two degrees."""

    def __init__(self, deg_a, deg_b):
        self.degrees = (deg_a, deg_b)
        super().__init__(f"inhomogeneous polynomial: degrees {deg_a} vs {deg_b}")


class DegenerateInputError(HfStrataError):
    """Zero polynomial / unit ideal where a proper nonzero object is required."""


class ParameterError(HfStrataError):
    """A numeric parameter is out of its admissible range."""

    def __init__(self, message, required=None):
        self.required = required
        super().__init__(message)


class GenericityError(HfStrataError):
    """Randomized search exhausted its trial budget."""

    def __init__(self, trials):
        self.trials = trials
        super().__init__(f"no regular sequence found in {trials} trials")


class ParseError(HfStrataError):
    """Ideal file rejected; carries 1-based line and column."""

    def __init__(self, line, col, message):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


class ExponentOverflowError(HfStrataError):
    """An exponent reached 2^15, the limit of the engine's packed terms."""


class ResourceLimitError(HfStrataError):
    """An input needs more than the package will build, such as a list of
    monomials past `ring.MONOMIAL_LIMIT`: refused before any is built."""
