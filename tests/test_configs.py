"""Every config dataclass checks its invariants once, when it is built, by one rule."""

import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

import whiskerlab
from whiskerlab.analysis import DurationConfig
from oracles import check_array_oracle
from whiskerlab.errors import ConfigError, Validated, _interval, check_array
from whiskerlab.events import DetectorConfig
from whiskerlab.harness.config import MAX_SLIDE_POSITIONS, ExperimentConfig, ModelParamsConfig
from whiskerlab.learn.boosting import BoostParams
from whiskerlab.learn.dataset import CollectionPlan, SampleLabel
from whiskerlab.learn.forest import ForestParams
from whiskerlab.learn.linear import LinearParams
from whiskerlab.sim import SlideConfig, TextureSpec, WhiskerArraySpec
from whiskerlab.taxel_grid import TaxelGridConfig

# A valid instance of each config class and one change that makes it invalid.
INVALID_CHANGES = [
    (TaxelGridConfig(), {"roi_side": 81}),
    (TextureSpec("sinc", 2), {"depth_mm": 5}),
    (SlideConfig(speed_mm_s=150.0), {"speed_mm_s": 0.0}),
    (WhiskerArraySpec(), {"substeps": 0}),
    (DetectorConfig(), {"window_frames": 0}),
    (DurationConfig(), {"valid_threshold": 0.0}),
    (CollectionPlan(), {"test_fraction": 1.0}),
    (SampleLabel(3, "sinc", 3.0, 150.0, 90), {"direction_deg": 45}),
    (ForestParams(), {"n_trees": 0}),
    (BoostParams(), {"max_depth": 0}),
    (LinearParams(), {"epochs": 0}),
    (ModelParamsConfig(), {"bagged_trees": BoostParams()}),
    (ExperimentConfig(), {"slide": SlideConfig(speed_mm_s=150.0, lead_in_frames=24)}),
]


@pytest.mark.parametrize("valid, change", INVALID_CHANGES,
                         ids=[type(valid).__name__ for valid, _ in INVALID_CHANGES])
def test_an_invalid_config_cannot_be_built(valid, change):
    kwargs = {f.name: getattr(valid, f.name) for f in dataclasses.fields(valid)}
    with pytest.raises(ConfigError):
        type(valid)(**{**kwargs, **change})
    with pytest.raises(ConfigError):
        dataclasses.replace(valid, **change)


each_class = pytest.mark.parametrize("valid", [valid for valid, _ in INVALID_CHANGES],
                                     ids=[type(valid).__name__ for valid, _ in INVALID_CHANGES])


def test_slide_positions_are_bounded_at_the_slowest_planned_speed():
    # 62 375 mm at 125 mm/s and 25 fps is 12 475 frames, 8 substeps each, and
    # 25 + 175 lead frames: the bound, exactly.
    plan = CollectionPlan(speed_range=(125.0, 500.0))
    slide = SlideConfig(speed_mm_s=150.0, fps=25.0, path_mm=62_375.0, lead_out_frames=175)
    assert MAX_SLIDE_POSITIONS == 100_000
    ExperimentConfig(slide=slide, collection=plan)
    for change in ({"path_mm": 62_376.0}, {"lead_in_frames": 26}, {"lead_out_frames": 176}):
        with pytest.raises(ConfigError, match=f"slide.{next(iter(change))}"):
            ExperimentConfig(slide=dataclasses.replace(slide, **change), collection=plan)
    with pytest.raises(ConfigError, match="slide.path_mm"):
        ExperimentConfig(slide=slide, collection=dataclasses.replace(plan, speed_range=(124.0, 500.0)))


def test_every_config_class_is_covered():
    assert set(Validated.__subclasses__()) == {type(valid) for valid, _ in INVALID_CHANGES}


# Values each field type refuses, whatever the field's bounds.
REFUSED = {
    int: [True, 1.5, 2.0, "1", None],
    float: [float("nan"), float("inf"), -float("inf"), 10**400, True, "1.0", None],
    str: [1, None, b"green"],
    tuple[float, float]: [(float("nan"), 150.0), (100.0, float("inf")), (100.0,), [100.0, 150.0],
                          (True, 150.0), ("100", 150.0)],
}
FIELD_CASES = [
    (valid, f.name, value)
    for valid, _ in INVALID_CHANGES
    for f in dataclasses.fields(valid)
    for value in REFUSED.get(f.type, [None, 0, TextureSpec("flat", 0)])  # a section
]


@pytest.mark.parametrize("valid, name, value", FIELD_CASES,
                         ids=[f"{type(valid).__name__}.{name}={value!r}"
                              for valid, name, value in FIELD_CASES])
def test_every_field_refuses_values_of_another_type_or_not_finite(valid, name, value):
    kwargs = {f.name: getattr(valid, f.name) for f in dataclasses.fields(valid)}
    with pytest.raises(ConfigError, match=name):
        type(valid)(**{**kwargs, name: value})
    with pytest.raises(ConfigError, match=name):
        dataclasses.replace(valid, **{name: value})


def test_values_are_checked_not_converted():
    cfg = dataclasses.replace(LinearParams(), reg=2, learning_rate=1)
    assert type(cfg.reg) is int and type(cfg.learning_rate) is int
    plan = CollectionPlan(speed_range=(100, 200.5))
    assert plan.speed_range == (100, 200.5) and type(plan.speed_range[0]) is int


# (kind, interval, cells, refusal): the first bad cell in row-major order is named.
ARRAY_REFUSALS = [
    (float, None, [0.5, True], r"x\[1\] must be float, got True"),
    (float, None, [[0.5, "1"], [2, 3]], r"x\[0, 1\] must be float, got '1'"),
    (float, None, [0.5, None], r"x\[1\] must be float, got None"),
    (float, None, [[1.0, 2.0], [3.0]], r"x\[0\] must be float, got \[1.0, 2.0\]"),  # ragged
    (float, None, [1.0, math.nan, math.inf], r"x\[1\] must be finite, got nan"),
    (float, None, [[2.0], [-math.inf]], r"x\[1, 0\] must be finite, got -inf"),
    (float, None, [1, 10**400], r"x\[1\] must be finite"),
    (int, None, [1, 2.0], r"x\[1\] must be int, got 2.0"),
    (int, None, [1, False], r"x\[1\] must be int, got False"),
    (int, "[0, inf)", [[1, 2], [-1, 3]], r"x\[1, 0\] must lie in \[0, inf\), got -1"),
    (float, "[0, 1]", [0.5, 1.5, "x"], r"x\[1\] must lie in \[0, 1\], got 1.5"),
]


@pytest.mark.parametrize("kind, interval, cells, refusal", ARRAY_REFUSALS)
def test_check_array_names_the_first_bad_cell(kind, interval, cells, refusal):
    with pytest.raises(ConfigError, match=refusal):
        check_array("x", cells, kind, interval)


def test_check_array_takes_legal_numbers_as_arrays():
    got = check_array("x", [[1, 2.5], [-3, 1e300]], float)
    assert got.dtype == np.float64 and got.tolist() == [[1.0, 2.5], [-3.0, 1e300]]
    got = check_array("x", [[0, 2]], int, "[0, inf)")
    assert got.dtype == np.int64 and got.tolist() == [[0, 2]]
    assert check_array("x", [], float).shape == (0,)


CELLS = [0, 1, -1, 2.5, -0.0, 1e308, 2**70, 10**400, True, False, "1", None, math.nan, math.inf,
         -math.inf, [1.0]]


@pytest.mark.parametrize("seed, kind, interval", [(0, float, None), (1, float, "[0, 1]"),
                                                  (2, int, None), (3, int, "[-1, 2)")])
def test_check_array_refuses_what_a_per_cell_check_refuses(seed, kind, interval):
    """On random lists and grids of legal and illegal cells, check_array
    accepts, refuses (by the same exception type) and converts as the former
    per-cell loop."""
    rng = np.random.default_rng(seed)
    seen = set()
    for _ in range(400):
        pool, width = CELLS[:8] if rng.random() < 0.5 else CELLS, int(rng.integers(0, 4))
        rows = [[pool[i] for i in rng.integers(0, len(pool), size=width + (rng.random() < 0.1))]
                for _ in range(int(rng.integers(1, 4)))]  # now and then a ragged row
        value = rows[0] if rng.random() < 0.5 else rows
        outcomes = []
        for fn in (check_array, check_array_oracle):
            try:
                outcomes.append(("ok", fn("x", value, kind, interval).tobytes()))
            except (ConfigError, OverflowError) as exc:
                outcomes.append((type(exc).__name__, None))
        assert outcomes[0] == outcomes[1], value
        seen.add(outcomes[0][0])
    assert {"ok", "ConfigError"} <= seen


@each_class
def test_bound_tables_name_numeric_fields(valid):
    """Each bound names a numeric field of its class, and the valid instance lies in it."""
    types = {f.name: f.type for f in dataclasses.fields(valid)}
    for name, text in type(valid).BOUNDS.items():
        assert types.get(name) in (int, float, tuple[float, float]), name
        value = getattr(valid, name)
        assert all(map(_interval(text), value if isinstance(value, tuple) else (value,))), name


@each_class
def test_each_bound_refuses_the_values_just_outside_it(valid):
    types = {f.name: f.type for f in dataclasses.fields(valid)}
    for name, text in type(valid).BOUNDS.items():
        step = 1 if types[name] is int else 1e-9
        lo, hi = (float(end) for end in text[1:-1].split(","))
        for x in (lo if text[0] == "(" else lo - step, hi if text[-1] == ")" else hi + step):
            if math.isinf(x):
                continue
            x = int(x) if types[name] is int else x
            with pytest.raises(ConfigError, match=f"{name} must lie in"):
                dataclasses.replace(valid, **{name: (x, x) if name == "speed_range" else x})


@pytest.mark.parametrize("text, inside, outside", [
    ("[1, inf)", [1, 2, 10**400], [0, 0.999]),
    ("(0, inf)", [1e-300, 5], [0, -1e-300]),
    ("(0, 1]", [1e-9, 1], [0, 1 + 1e-9]),
    ("(0, 1)", [0.5], [0, 1]),
])
def test_bound_intervals(text, inside, outside):
    contains = _interval(text)
    assert all(map(contains, inside)) and not any(map(contains, outside))


def validate_calls(source: str) -> list[int]:
    """Line numbers of ``.validate()`` calls outside ``Validated.__post_init__``."""
    tree = ast.parse(source)
    allowed = {
        id(node)
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) and cls.name == "Validated"
        for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
        for node in ast.walk(fn)
    }
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "validate" and id(node) not in allowed]


@pytest.mark.parametrize("source, calls", [
    ("cfg.validate()", True),
    ("self.grid.validate()", True),
    ("def f(cfg):\n    cfg.validate()", True),
    ("class Validated:\n    def __post_init__(self):\n        self.validate()", False),
    ("class Other:\n    def __post_init__(self):\n        self.validate()", True),
    ("class Validated:\n    def check(self):\n        self.validate()", True),
    ("def validate(self): pass", False),
    ("validate(cfg)", False),
])
def test_validate_call_detector(source, calls):
    assert bool(validate_calls(source)) == calls


def test_configs_are_validated_only_when_built():
    package = Path(whiskerlab.__file__).parent
    offenders = {
        str(path.relative_to(package)): lines
        for path in sorted(package.rglob("*.py"))
        if (lines := validate_calls(path.read_text()))
    }
    assert offenders == {}, f"a config checks itself when built; drop these calls: {offenders}"


def _reads_a_field(node) -> bool:
    """``self.x``, ``self.x.y`` or ``getattr(self, ...)``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr":
        node = node.args[0] if node.args else node
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


def _is_number_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def literal_bounds(source: str) -> list[int]:
    """Line numbers of comparisons of a field with a number inside a ``validate()`` body."""
    return [node.lineno
            for fn in ast.walk(ast.parse(source))
            if isinstance(fn, ast.FunctionDef) and fn.name == "validate"
            for node in ast.walk(fn) if isinstance(node, ast.Compare)
            if any(map(_reads_a_field, [node.left, *node.comparators]))
            and any(map(_is_number_literal, [node.left, *node.comparators]))]


@pytest.mark.parametrize("source, bound", [
    ("def validate(self):\n    if self.rows < 1: pass", True),
    ("def validate(self):\n    if not 0 < self.rate <= 1: pass", True),
    ("def validate(self):\n    if self.x > -1.5: pass", True),
    ("def validate(self):\n    if self.depth_mm == 0: pass", True),
    ("def validate(self):\n    if self.grid.rows >= 2: pass", True),
    ("def validate(self):\n    if getattr(self, name) > 0: pass", True),
    ("def validate(self):\n    ok = [self.a > 0 for _ in 'x']", True),
    ("def validate(self):\n    if self.lo > self.hi: pass", False),
    ("def validate(self):\n    if self.direction not in (0, 90): pass", False),
    ("def validate(self):\n    if self.mode == 'literal': pass", False),
    ("def validate(self):\n    if self.flag is True: pass", False),
    ("def validate(self):\n    if lo > 0: pass", False),
    ("def check(self):\n    if self.rows < 1: pass", False),
])
def test_literal_bound_detector(source, bound):
    assert bool(literal_bounds(source)) == bound


def test_single_field_bounds_live_in_the_bound_tables():
    package = Path(whiskerlab.__file__).parent
    offenders = {
        str(path.relative_to(package)): lines
        for path in sorted(package.rglob("*.py"))
        if (lines := literal_bounds(path.read_text()))
    }
    assert offenders == {}, f"move these bounds into their class's BOUNDS table: {offenders}"


TYPE_NAMES = {"bool", "int", "float"}


def _calls(node, name: str) -> bool:
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == name


def _names(node) -> set:
    """The bare names node is, or its tuple holds."""
    return {n.id for n in (node.elts if isinstance(node, ast.Tuple) else [node])
            if isinstance(n, ast.Name)}


def type_rules(source: str) -> list[int]:
    """Line numbers of a number type rule: ``isinstance(x, bool)`` (a bool in
    a tuple too) and ``type(x)`` compared with int, float or bool."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if _calls(node, "isinstance") and len(node.args) == 2 and "bool" in _names(node.args[1]):
            lines.append(node.lineno)
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(_calls(side, "type") for side in sides) and any(_names(s) & TYPE_NAMES for s in sides):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source, rule", [
    ("isinstance(x, bool)", True),
    ("isinstance(v, (int, float)) and not isinstance(v, bool)", True),
    ("isinstance(v, (bool, str))", True),
    ("type(n) is int", True),
    ("type(n) is not int", True),
    ("type(x) == float", True),
    ("bool is type(x)", True),
    ("type(x) in (int, float)", True),
    ("ok = [type(c) is int and c > 0 for c in cs]", True),
    ("isinstance(x, str)", False),
    ("isinstance(c, (int, str))", False),
    ("type(exc).__name__", False),
    ("type(value) is tuple", False),
    ("x is None", False),
    ("check('n', n, int, '[1, inf)')", False),
])
def test_type_rule_detector(source, rule):
    assert bool(type_rules(source)) == rule


def test_only_the_errors_module_spells_a_type_rule():
    """One rule for a legal value: every other module calls errors.check."""
    package = Path(whiskerlab.__file__).parent
    offenders = {
        str(path.relative_to(package)): lines
        for path in sorted(package.rglob("*.py"))
        if path.name != "errors.py" and (lines := type_rules(path.read_text()))
    }
    assert offenders == {}, f"check values with whiskerlab.errors.check instead: {offenders}"
