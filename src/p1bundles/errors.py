"""Exception types shared across the library, and the CLI's exit codes.

Every error the library raises on purpose is a :class:`P1BundlesError`,
which carries the exit code and the stderr label the CLI reports it with.
This is the one table of that contract (code, class, stderr label); a
subclass exits as its base does:

* 0: success, including ``iso: false`` and ``verified: false`` answers.
* 1, InvalidBundle, "invalid bundle": det T is not c*z^e.
* 2, ParseError, "parse error": unparsable text, a file that cannot be
  read, or an output path that cannot be written.
* 2, RefusedArgument, "usage error": an argument out of range, such as a
  negative gauge degree or move count, an empty profile range, or matrix
  shapes that do not fit the operation (DimensionMismatch).  The CLI's
  own option parser also exits 2 on an option it does not know.
* 3, InternalCheckError, "internal check failed": a failed certificate,
  that is a failed guard on a proven truncation window (WindowUnstable),
  or a kernel solve with no verified basis within its prime budget
  (KernelBudgetExceeded).  Either is a library bug, never a verdict on the
  input.
* 4, SystemTooLarge, "too large": a job over the fixed size limit, or a
  number too long to print.  Any report holding a number over the
  printing limit is refused, in text and in JSON mode alike, with nothing
  printed and no ``-o`` file written.
* 141 (a BrokenPipeError): the reader closed stdout before the report
  was written, as in ``p1bundles profile ... | head -c 80``; nothing more
  is printed.

Each class keeps its builtin base (ValueError, AssertionError or
ArithmeticError), so library callers that catch those still work.  The
CLI catches only P1BundlesError: a builtin exception that escapes it is a
library bug, and shows as a traceback.
"""


class P1BundlesError(Exception):
    """Base class of every error the library raises on purpose; each
    concrete subclass sets its CLI exit code and stderr label."""

    exit_code: int
    label: str


class ParseError(P1BundlesError, ValueError):
    """Input text does not match the bundle/matrix grammar."""

    exit_code = 2
    label = "parse error"

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class RefusedArgument(P1BundlesError, ValueError):
    """An argument out of its documented range, such as a negative gauge
    degree."""

    exit_code = 2
    label = "usage error"


class InvalidBundle(P1BundlesError, ValueError):
    """Transition matrix is not invertible away from 0 and infinity.

    Raised when the determinant is not of the form c*z^e with c != 0.
    """

    exit_code = 1
    label = "invalid bundle"


class SystemTooLarge(P1BundlesError, ValueError):
    """A linear-algebra job would exceed the fixed size limit.

    The limit is ``lmatrix.MAX_SYSTEM_CELLS`` cells, applied to one Cech
    constraint system (rows x unknowns), to the Cech systems of one query
    together (all twists of a profile, each charged at least one cell),
    to a w-adic series inverse (its cap of sum_j s_j - min_j s_j terms,
    s_j the w-degree of column j, times k^2 entries), to a seeded gauge
    scramble (an upper bound on the terms its moves multiply), and to the
    Kronecker product of ``op tensor`` ((kA*kB)^2 entries plus the
    products of each term of A with each term of B).  The check runs
    before the work starts, so a tiny input such as ``z^1000000`` is
    refused at once instead of running without bound.  A column reduction
    is charged as it runs instead (2k per step, plus each coefficient of
    the two columns it writes, by its size in 64-bit words), and
    is stopped once the total is over the limit.  Also raised by the
    printers in ``text`` for a number with more digits than the interpreter
    converts to text, which the parser could not read back.
    """

    exit_code = 4
    label = "too large"


class DimensionMismatch(RefusedArgument):
    """Matrix shapes are incompatible for the requested operation."""


class InternalCheckError(P1BundlesError, AssertionError):
    """Base class for failed runtime certificates.

    These indicate an implementation bug, never bad user input.
    """

    exit_code = 3
    label = "internal check failed"


class WindowUnstable(InternalCheckError):
    """A Cech count changed between its proven degree window and one past
    it: the guard on the cofactor bound failed, which is a library bug."""


class KernelBudgetExceeded(InternalCheckError, ArithmeticError):
    """The modular kernel engine found no verified basis within its prime
    budget."""
