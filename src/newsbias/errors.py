"""Error hierarchy shared across the package.

Kept deliberately small: loaders and validators raise DataError (bad
input files, broken invariants in user data), configuration handling
raises ConfigError, and InvariantError flags bugs in our own pipeline
state. The CLI maps these onto distinct exit codes. Every input file is
read through read_text, read_lines or read_entries, so a file that cannot
be read is a DataError (a ConfigError for the config file) like any other
bad input.
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
    line ends at a line feed only, so a lone carriage return stays inside its
    line. A file that cannot be read, or is not UTF-8 anywhere along it,
    raises error as read_text does, when the read reaches it."""
    try:
        with Path(path).open(encoding="utf-8", newline="\n") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise _unreadable(path, what, error, exc) from None


def read_entries(path: str | Path, what: str) -> Iterator[tuple[str, str]]:
    """Each entry of a line-entry file (a word list or a lexicon) with where it
    stands, as ("NAME:LINE", entry): the line with its '#' comment and trailing
    whitespace cut, blank ones skipped. A line ends at a line feed only, which
    read_text makes of carriage returns. A file with no entry raises, naming it."""
    path = Path(path)
    name, empty = path.name, True
    for line_no, line in enumerate(read_text(path, what).split("\n"), start=1):
        entry = line.split("#", 1)[0].rstrip()
        if entry:  # stripped on the right, so it is blank only when empty
            empty = False
            yield f"{name}:{line_no}", entry
    if empty:
        raise DataError(f"{what} {path} holds no entry")
