"""Exception classes and process exit codes: the whole error contract.

Every failure raised by this package is a ToolkitError, and each subclass
is one CLI exit code, so batch drivers can tell a configuration mistake
from bad input data without parsing stderr. Zero is reserved for success.
A library caller catches the class of the code it handles; the message
names the check that failed.

An operating-system failure on a path (missing, a directory, no
permission, a name too long) is a MissingInputError (exit 3) when the path
is an input and a UsageError (exit 2) when it is an output: every file
open or mkdir in the package sits inside ``reading(path)`` or
``writing(path)``, which apply that rule. ``ingest.read_ppm``, called once
per frame file, turns its OSError into ``unreadable(path, exc)`` itself,
the error that ``reading`` raises, without the context manager's cost.
"""

import contextlib


class ToolkitError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class UsageError(ToolkitError):
    """Bad flags, bad config values, unusable sweep ranges, unwritable output paths."""

    exit_code = 2


class MissingInputError(ToolkitError):
    """A required input path does not exist or cannot be opened as a file."""

    exit_code = 3


class DataFormatError(ToolkitError):
    """An input file exists but its contents violate the format contract."""

    exit_code = 4


class GeometryError(ToolkitError):
    """Region geometry incompatible with the requested analysis grid."""

    exit_code = 5


class RegionError(ToolkitError):
    """No usable skin pixels or weights left to combine."""

    exit_code = 6


class SignalError(ToolkitError):
    """Waveform or spectrum unusable for inference."""

    exit_code = 7


class ModelError(ToolkitError):
    """Biophysical model evaluated outside its domain."""

    exit_code = 8


class InvalidSceneError(ToolkitError):
    """Synthetic scene description fails validation."""

    exit_code = 9


def unreadable(path, exc: OSError) -> MissingInputError:
    """MissingInputError('{path}: cannot be read: ...'), for an input path's OSError."""
    return MissingInputError(f"{path}: cannot be read: {exc.strerror}")


@contextlib.contextmanager
def reading(path):
    """An OSError in the block becomes unreadable(path, exc)."""
    try:
        yield
    except OSError as exc:
        raise unreadable(path, exc) from exc


@contextlib.contextmanager
def writing(path):
    """An OSError in the block becomes UsageError('{path}: cannot be written: ...')."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"{path}: cannot be written: {exc.strerror}") from exc
