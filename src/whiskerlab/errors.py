"""Exception types shared across the toolkit, the one rule for a legal value
(:func:`check`), and the base of the config dataclasses."""

import operator
import sys
from dataclasses import fields
from functools import cache, partial
from typing import ClassVar, Optional

import numpy as np


class WhiskerlabError(Exception):
    """Base class for all whiskerlab errors."""


class ConfigError(WhiskerlabError, ValueError):
    """A configuration object or argument violates its invariants."""


def check(name: str, value, kind, interval: Optional[str] = None):
    """value if it is legal, else a ConfigError naming ``name``: the one rule
    for config fields and every scalar read back from a package file.  In
    order: the type (int: not a bool; float: an int or a float, not a bool,
    kept as given; ``tuple[float, float]``: two of those; any other class:
    an instance), finite floats, and ``interval`` such as ``"[1, inf)"``
    (for each number of a pair)."""
    return _rule(kind, interval)(name, value)


def check_array(name: str, value, kind, interval: Optional[str] = None) -> np.ndarray:
    """A JSON number or nested list of them as an array of ``kind``, each by :func:`check`."""
    cells, rule = np.array(value, dtype=object), _rule(kind, interval)
    for cell in cells.flat:
        rule(name, cell)
    return cells.astype(kind)


class Validated:
    """Base of the frozen config dataclasses: building one (``dataclasses.replace``
    included) passes each field to :func:`check`, with its annotated type and
    the interval in the class's ``BOUNDS`` table, then runs ``validate()`` for
    what relates two fields or tests set membership."""

    BOUNDS: ClassVar[dict] = {}

    def __post_init__(self) -> None:
        for name, qualified, rule in _field_rules(type(self)):
            rule(qualified, getattr(self, name))
        self.validate()

    def validate(self) -> None:
        """The checks that relate two fields or test set membership; none here."""


def _interval(text: str):
    """A membership test for an interval written ``[lo, hi)`` and the like."""
    lo, hi = (float(end) for end in text[1:-1].split(","))
    above = partial(operator.le if text[0] == "[" else operator.lt, lo)
    below = partial(operator.ge if text[-1] == "]" else operator.gt, hi)
    return lambda x: above(x) and below(x)


@cache
def _rule(kind, interval: Optional[str]):
    """:func:`check` for one kind and interval, as a function of (name, value)."""
    if kind == tuple[float, float]:
        return partial(_pair, _rule(float, interval))
    classes = (int, float) if kind is float else kind
    number, inside = kind in (int, float), interval and _interval(interval)

    def rule(name, value):
        if not isinstance(value, classes) or number and isinstance(value, bool):
            problem = f"must be {kind.__name__}"
        elif kind is float and not abs(value) <= sys.float_info.max:  # NaN, ±inf, huge ints
            problem = "must be finite"
        elif inside and not inside(value):
            problem = f"must lie in {interval}"
        else:
            return value
        raise ConfigError(f"{name} {problem}, got {value!r}")
    return rule


def _pair(each, name, value):
    """value if it is a tuple of two numbers that ``each`` accepts."""
    if not (isinstance(value, tuple) and len(value) == 2):
        raise ConfigError(f"{name} must be a tuple of two numbers, got {value!r}")
    for number in value:
        each(name, number)
    return value


@cache
def _field_rules(cls) -> tuple:
    """(name, name in errors, rule) per field of a config class."""
    return tuple((f.name, f"{cls.__name__}.{f.name}", _rule(f.type, cls.BOUNDS.get(f.name)))
                 for f in fields(cls))


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
