"""Exception hierarchy and process exit codes.

Every failure mode raised by this package derives from ToolkitError. Each
error *family* carries a distinct CLI exit code so batch drivers can tell a
configuration mistake from bad input data without parsing stderr. Zero is
reserved for success.
"""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class UsageError(ToolkitError):
    """Bad flags, bad config values, unusable sweep ranges, unwritable output paths."""

    exit_code = 2


class MissingInputError(ToolkitError):
    """A required input path does not exist or cannot be opened as a file."""

    exit_code = 3


class MissingManifestError(MissingInputError):
    pass


class DataFormatError(ToolkitError):
    """An input file exists but its contents violate the format contract."""

    exit_code = 4


class DimensionMismatchError(DataFormatError):
    pass


class NonPositiveFpsError(DataFormatError):
    pass


class CountMismatchError(DataFormatError):
    pass


class MalformedPolygonError(DataFormatError):
    pass


class OutOfBoundsError(DataFormatError):
    pass


class NonMonotoneTimeError(DataFormatError):
    pass


class EmptyFileError(DataFormatError):
    pass


class MalformedStreamError(DataFormatError):
    pass


class LengthMismatchError(DataFormatError):
    pass


class GeometryError(ToolkitError):
    """Region geometry incompatible with the requested analysis grid."""

    exit_code = 5


class GridTooFineError(GeometryError):
    pass


class RegionError(ToolkitError):
    """No usable skin pixels or weights left to combine."""

    exit_code = 6


class EmptyRegionError(RegionError):
    pass


class AllCellsDeadError(RegionError):
    pass


class DegenerateWeightsError(RegionError):
    pass


class SignalError(ToolkitError):
    """Waveform or spectrum unusable for inference."""

    exit_code = 7


class TraceTooShortError(SignalError):
    pass


class ZeroChannelMeanError(SignalError):
    pass


class SampleRateTooLowError(SignalError):
    pass


class SpectrumTooShortError(SignalError):
    pass


class NoPeaksError(SignalError):
    pass


class DegenerateSpectrumError(SignalError):
    pass


class NoWindowsError(SignalError):
    pass


class ModelError(ToolkitError):
    """Biophysical model evaluated outside its domain."""

    exit_code = 8


class WavelengthOutOfRangeError(ModelError):
    pass


class DegenerateReflectanceError(ModelError):
    pass


class ZeroDenominatorError(ModelError):
    pass


class InvalidSceneError(ToolkitError):
    """Synthetic scene description fails validation."""

    exit_code = 9
