"""Exception types shared across the library.

The CLI maps these onto exit codes: bad bundle data is exit 1, unparsable
text is exit 2, a failed internal certificate check is exit 3, and a
system over the size limit or a number too long to print (SystemTooLarge)
is exit 4.
"""


class ParseError(ValueError):
    """Input text does not match the bundle/matrix grammar."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class InvalidBundle(ValueError):
    """Transition matrix is not invertible away from 0 and infinity.

    Raised when the determinant is not of the form c*z^e with c != 0.
    """


class SystemTooLarge(ValueError):
    """A linear-algebra job would exceed the fixed size limit.

    The limit is ``lmatrix.MAX_SYSTEM_CELLS`` cells, applied to one Cech
    constraint system (rows x unknowns), to the Cech systems of one query
    together (the up to three of an h1, or all twists of a profile, each
    charged at least one cell), and to the cap of a w-adic series inverse
    (terms x k^2).  The check runs before the work starts, so a tiny input
    such as ``z^1000000`` is refused at once instead of running without
    bound.  A column reduction is charged as it runs instead (its k x k
    leading-coefficient matrix and the terms it writes, per step), and is
    stopped once the total is over the limit.  Also raised by the printers
    in ``text`` for a number with more digits than the interpreter converts
    to text, which the parser could not read back.
    """


class DimensionMismatch(ValueError):
    """Matrix shapes are incompatible for the requested operation."""


class InternalCheckError(AssertionError):
    """Base class for failed runtime certificates.

    These indicate an implementation bug or an undersized truncation
    window, never bad user input.
    """


class WindowUnstable(InternalCheckError):
    """Cohomology dimension changed when the truncation window grew."""


class SectionVanishes(InternalCheckError):
    """A section expected to vanish nowhere has a common zero."""
