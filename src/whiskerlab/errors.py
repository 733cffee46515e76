"""Exception types shared across the toolkit."""


class WhiskerlabError(Exception):
    """Base class for all whiskerlab errors."""


class ConfigError(WhiskerlabError, ValueError):
    """A configuration object or argument violates its invariants."""


class Validated:
    """Base of the frozen config dataclasses: ``validate()`` runs when one is
    built (``dataclasses.replace`` included), so an invalid one cannot exist."""

    def __post_init__(self) -> None:
        self.validate()


class CalibrationUnderrunError(WhiskerlabError):
    """The stream ended before enough frames were seen to calibrate."""


class DegenerateFitError(WhiskerlabError):
    """Regression input has no usable variation (e.g. a single distinct speed)."""


class DirectionIndeterminateError(WhiskerlabError):
    """Neither row nor column activations carry any ordering information."""


class DatasetBuildError(WhiskerlabError):
    """Dataset assembly failed (capture rate too low, attempts exhausted)."""


class DegenerateModelError(WhiskerlabError):
    """Training input cannot produce a usable model (e.g. a single class)."""


class DataFileError(WhiskerlabError):
    """An input file is missing, malformed, or fails its digest check."""
