"""Exception types shared across the toolkit, and the base of the config dataclasses."""

import operator
import sys
from dataclasses import fields, is_dataclass
from functools import cache, partial
from typing import ClassVar


class WhiskerlabError(Exception):
    """Base class for all whiskerlab errors."""


class ConfigError(WhiskerlabError, ValueError):
    """A configuration object or argument violates its invariants."""


class Validated:
    """Base of the frozen config dataclasses: building one (``dataclasses.replace``
    included) checks each field by the one rule for a legal value, then runs
    ``validate()`` for what relates two fields or tests set membership.

    The rule, in order: the annotated type (int: not a bool; float: an int or
    a float, not a bool, kept as given; ``tuple[float, float]``: two of those;
    a section: an instance of its class), finite floats, and the interval in
    the class's ``BOUNDS`` table, such as ``"[1, inf)"`` (for each element of
    a tuple)."""

    BOUNDS: ClassVar[dict] = {}

    def __post_init__(self) -> None:
        for name, accepts, wanted, floats, inside, interval in _field_rules(type(self)):
            value = getattr(self, name)
            values = value if type(value) is tuple else (value,)
            if not accepts(value):
                problem = f"must be {wanted}"
            elif floats and not all(map(_finite, values)):
                problem = "must be finite"
            elif inside and not all(map(inside, values)):
                problem = f"must lie in {interval}"
            else:
                continue
            raise ConfigError(f"{type(self).__name__}.{name} {problem}, got {value!r}")
        self.validate()

    def validate(self) -> None:
        """The checks that relate two fields or test set membership; none here."""


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(x) -> bool:  # NaN, the infinities and ints too large for a float fail
    return abs(x) <= sys.float_info.max


# Per field type: what accepts a value, and its name in the error.
_TYPES = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "int"),
    float: (_number, "float"),
    str: (lambda v: isinstance(v, str), "str"),
    tuple[float, float]: (lambda v: isinstance(v, tuple) and len(v) == 2 and all(map(_number, v)),
                          "a tuple of two numbers"),
}


def _interval(text: str):
    """A membership test for an interval written ``[lo, hi)`` and the like."""
    lo, hi = (float(end) for end in text[1:-1].split(","))
    above = partial(operator.le if text[0] == "[" else operator.lt, lo)
    below = partial(operator.ge if text[-1] == "]" else operator.gt, hi)
    return lambda x: above(x) and below(x)


@cache
def _field_rules(cls) -> tuple:
    """(name, accepts, type name, holds floats, bound test, bound text) per field."""
    rules = []
    for f in fields(cls):
        if is_dataclass(f.type):
            accepts, wanted = (lambda v, section=f.type: isinstance(v, section)), f.type.__name__
        else:
            accepts, wanted = _TYPES[f.type]
        interval = cls.BOUNDS.get(f.name)
        rules.append((f.name, accepts, wanted, f.type in (float, tuple[float, float]),
                      interval and _interval(interval), interval))
    return tuple(rules)


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
