"""Error hierarchy shared across the package.

Kept deliberately small: loaders and validators raise DataError (bad
input files, broken invariants in user data), configuration handling
raises ConfigError, and InvariantError flags bugs in our own pipeline
state. The CLI maps these onto distinct exit codes. Every input file is
read through read_text or read_lines, so a file that cannot be read is a
DataError (a ConfigError for the config file) like any other bad input.
"""

from pathlib import Path
from typing import Iterator


class NewsbiasError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(NewsbiasError):
    """Invalid configuration or command usage."""


class DataError(NewsbiasError):
    """Malformed or inconsistent input data."""


class InvariantError(NewsbiasError):
    """An internal pipeline invariant was violated."""


def _unreadable(path: str | Path, what: str, error: type[NewsbiasError], exc: Exception) -> NewsbiasError:
    reason = "not valid UTF-8" if isinstance(exc, UnicodeDecodeError) else exc.strerror or exc
    return error(f"cannot read {what} {path}: {reason}")


def read_text(path: str | Path, what: str, error: type[NewsbiasError] = DataError) -> str:
    """The file's UTF-8 text; a file that is missing, a directory, unreadable
    or not UTF-8 raises error, naming what the file is and its path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, what, error, exc) from None


def read_lines(path: str | Path, what: str, error: type[NewsbiasError] = DataError) -> Iterator[str]:
    """The file's UTF-8 lines, read one at a time, each with its line end; a
    file that cannot be read, or is not UTF-8 anywhere along it, raises error
    as read_text does, when the read reaches it."""
    try:
        with Path(path).open(encoding="utf-8") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, what, error, exc) from None
