"""Exception types shared across the package.

The CLI maps these onto exit codes: schema/usage problems exit with 2,
exceeded caps and budgets with 3; any other exception is an internal
error and exits with 4.
"""


class SchemaError(ValueError):
    """An input file or value does not match its documented schema."""


class FormulaError(SchemaError):
    """A formula could not be parsed or compiled; ``position`` is the
    character offset in the text, or None for a formula built in Python."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class SignatureMismatch(SchemaError):
    """A constraint or relation refers to an unknown symbol or wrong arity."""


class CapExceeded(RuntimeError):
    """A configured size or budget cap was exceeded."""


class EqualityNotEquivalence(SchemaError):
    """The equality formula of an interpretation is not an equivalence
    relation on its domain."""


class EqualityNotCongruence(SchemaError):
    """The equality formula of an interpretation is not a congruence for
    some relation formula."""


class VerificationFailed(RuntimeError):
    """A witness produced by the declared semilattice fold failed the
    homomorphism check; the declared operation does not preserve the
    template's relations."""
