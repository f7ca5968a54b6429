"""Exception hierarchy shared by all mtix modules.

Input-side failures (bad files, bad values) derive from MtixError and map to
CLI exit code 2; InvariantError signals an internal consistency failure and
maps to exit code 3. Text input that is not UTF-8 becomes a ParseError
(utf8_error), never a bare UnicodeDecodeError.
"""


class MtixError(Exception):
    """Base class for all mtix errors."""


class ParseError(MtixError):
    """A text input line could not be parsed."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ValidationError(MtixError, ValueError):
    """An input value violates a documented precondition."""


class CorruptionError(MtixError):
    """Encoded data decodes to an impossible value."""


class TruncationError(CorruptionError):
    """An encoded stream ended in the middle of a value."""


class FormatError(MtixError):
    """An index file has a bad magic number or unsupported version."""


class InvariantError(MtixError):
    """An internal invariant was violated; indicates a bug, not bad input."""


def check_int(name: str, value: object) -> None:
    """Raise ValidationError for a value that is not an int, or is a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an int, not {type(value).__name__}")


def utf8_error(data: bytes) -> ParseError:
    """The ParseError for input `data` that is not UTF-8: it names the line
    of the first bad byte, lines ending at \\n, \\r\\n or \\r as in universal
    newlines mode."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        return ParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8", line_no)
    return ParseError("input is not valid UTF-8")
