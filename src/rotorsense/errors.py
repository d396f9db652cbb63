"""Exception hierarchy shared by the library and the CLI.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError (and parse failures) -> 3, numerical/degenerate failures -> 4.
"""

from contextlib import contextmanager


class RotorSenseError(Exception):
    """Base class for all library errors."""


class ConfigError(RotorSenseError):
    """Invalid configuration value, unknown key, or inconsistent setup."""


class DataError(RotorSenseError):
    """Malformed input data: parse failures, violated preconditions on data."""


class EstimationError(RotorSenseError):
    """Speed estimation could not run (e.g. empty batch)."""


class DegenerateInputError(EstimationError):
    """The objective is flat over the search bracket: no motion signal."""


class NumericalError(RotorSenseError):
    """A numerical operation produced an unusable result."""


@contextmanager
def open_text(path: str, error: type[RotorSenseError] = DataError):
    """Open a UTF-8 text file for reading; bytes that are not UTF-8 raise
    `error` naming the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from exc
