"""Exception types shared across the package, the one input-file reader and its line rule.

Everything raised on purpose derives from :class:`CvClusterError` so callers
can catch one base class.  Argument errors that a stock Python library would
signal with ``ValueError`` subclass both.  A rejected input raises an
:class:`InputError`, which reads ``source:line:col: reason``: the source is
the file, ``<combo>`` or ``<scenario>``, named where the text is read (an
edge list's :class:`InvalidGraphError` reads ``source:line: reason``).
"""


class CvClusterError(Exception):
    """Base class for all errors raised by cvcluster."""


class InvalidSizeError(CvClusterError, ValueError):
    """A register, state or graph was requested with a non-positive size."""


class ConsumedModeError(CvClusterError):
    """A gate, measurement or read touched a mode that was already measured."""


class SelfInteractionError(CvClusterError, ValueError):
    """A two-mode operation was given the same mode twice."""


class DomainError(CvClusterError, ValueError):
    """A numeric parameter fell outside its allowed range (e.g. transmittance)."""


class RecordOwnershipError(CvClusterError):
    """A measurement record from one register was used with another register."""


class InternalConsistencyError(CvClusterError):
    """A broken engine invariant; a script run sets ``source``, ``line`` and ``col`` to its statement."""

    source = line = col = None
    reason = property(str)


class SingularMeasurementError(CvClusterError):
    """A homodyne was attempted on a quadrature with (numerically) zero variance."""


class InvalidGraphError(CvClusterError, ValueError):
    """An edge list contained loops, duplicates or out-of-range vertices."""


class ProtocolPreconditionError(CvClusterError):
    """A protocol was handed a register/graph pair it does not apply to."""


class UnsupportedOperationError(CvClusterError):
    """An operation outside the engine's tracked algebra was requested."""


class InputError(CvClusterError):
    """Input rejected at a 1-based line and column of its ``source``."""

    def __init__(self, source: str, line: int, col: int, reason: str):
        self.source, self.line, self.col, self.reason = source, line, col, reason
        super().__init__(f"{source}:{line}:{col}: {reason}")


class InputEncodingError(InputError, ValueError):
    """An input file is not UTF-8."""


def split_lines(text: str) -> list[str]:
    """The lines of ``text``: a line ends at ``\\r\\n``, ``\\r`` or ``\\n`` and nowhere
    else, so a form feed, vertical tab, NEL or U+2028 inside a line is whitespace."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def read_text(path) -> str:
    """The UTF-8 text of an input file without one leading byte order mark
    (U+FEFF); a bad byte raises :class:`InputEncodingError` at its line and
    1-based column, counted as :func:`split_lines` counts them, after the mark."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as err:
        lines = split_lines(data[: err.start].decode("utf-8").removeprefix("\ufeff"))
        raise InputEncodingError(str(path), len(lines), len(lines[-1]) + 1, str(err)) from None
