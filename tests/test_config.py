"""The in-tree config validator against jsonschema's Draft 2020-12 validator."""

import copy
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symvol.cli import _SCHEMAS, _resolve, _schema_error

_KEYWORDS = {
    "type", "required", "properties", "additionalProperties", "items", "minItems",
    "maxItems", "minimum", "exclusiveMinimum", "enum", "oneOf", "default",
}

# a value of any JSON type: the wrong type for most places it lands
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3) | st.text(max_size=2),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=4,
)


def _subschemas(schema):
    yield schema
    for branch in schema.get("oneOf", ()):
        yield from _subschemas(branch)
    for sub in schema.get("properties", {}).values():
        yield from _subschemas(sub)
    if "items" in schema:
        yield from _subschemas(schema["items"])


@st.composite
def configs(draw, schema):
    """An instance of schema, broken at about one node in sixteen: a wrong
    type, a bool where a number goes, a value out of range, a missing required
    key, an extra key or a wrong length.  About one integer in sixteen is an
    integral float, which only jsonschema accepts."""
    if "oneOf" in schema:
        return draw(configs(draw(st.sampled_from(schema["oneOf"]))))
    broken = draw(st.integers(0, 15)) == 0
    kind = schema.get("type")
    if broken and draw(st.booleans()):
        wrong = [_ANY_JSON, st.booleans()]
        if "minimum" in schema:
            wrong.append(st.just(schema["minimum"] - 1))
        if "exclusiveMinimum" in schema:
            wrong.append(st.sampled_from([schema["exclusiveMinimum"], -1.0]))
        return draw(st.one_of(wrong))
    if "enum" in schema:
        return draw(st.sampled_from(schema["enum"]))
    if kind == "object":
        props, required = schema.get("properties"), schema.get("required", [])
        if props is None:
            return draw(st.dictionaries(st.text(max_size=3), _ANY_JSON, max_size=2))
        optional = sorted(set(props) - set(required))
        keys = list(required)
        if optional:
            keys += draw(st.lists(st.sampled_from(optional), unique=True))
        value = {key: draw(configs(props[key])) for key in keys}
        if broken:  # drop a required key, or add one the schema does not know
            if required and draw(st.booleans()):
                del value[draw(st.sampled_from(required))]
            else:
                value["bogus"] = 1
        return value
    if kind == "array":
        lo = schema.get("minItems", 0)
        hi = schema.get("maxItems", lo + 3)
        size = draw(st.sampled_from([lo - 1, hi + 1]) if broken else st.integers(lo, hi))
        items = configs(schema["items"]) if "items" in schema else _ANY_JSON
        return [draw(items) for _ in range(max(size, 0))]
    if kind == "integer":
        low = schema.get("minimum", -3)
        value = draw(st.integers(low, low + 4))
        return float(value) if draw(st.integers(0, 15)) == 0 else value
    if kind == "number":
        low = schema.get("minimum", schema.get("exclusiveMinimum", -3))
        floats = st.floats(low, low + 4, exclude_min="exclusiveMinimum" in schema)
        return draw(floats | st.integers(int(low) + 1, int(low) + 4))
    if kind == "string":
        return draw(st.text(max_size=3))
    return draw(st.booleans())


def _holds_integral_float(value):
    if isinstance(value, float):
        return value.is_integer()
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, list) and any(_holds_integral_float(v) for v in value)


def test_schemas_use_only_the_keywords_the_validator_knows():
    for schema in _SCHEMAS.values():
        for sub in _subschemas(schema):
            assert set(sub) <= _KEYWORDS, set(sub) - _KEYWORDS
            assert sub.get("additionalProperties", False) is False


@pytest.mark.parametrize("command", sorted(_SCHEMAS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_verdicts_match_jsonschema(command, data):
    jsonschema = pytest.importorskip("jsonschema")
    schema = _SCHEMAS[command]
    cfg = data.draw(configs(schema))
    base = jsonschema.Draft202012Validator
    # jsonschema's "integer" also takes 5.0; the in-tree validator takes only ints
    strict_checker = base.TYPE_CHECKER.redefine(
        "integer", lambda checker, v: isinstance(v, int) and not isinstance(v, bool)
    )
    strict = jsonschema.validators.extend(base, type_checker=strict_checker)
    accepted = _schema_error(cfg, schema) is None
    assert accepted == strict(schema).is_valid(cfg)
    if accepted != base(schema).is_valid(cfg):
        assert not accepted and _holds_integral_float(cfg)


def test_nan_is_refused_at_every_bounded_number():
    # json reads NaN and Infinity, which jsonschema's minimum and exclusiveMinimum
    # let through; a NaN fails a bound, and no number may be infinite or NaN
    numbers = [sub for schema in _SCHEMAS.values() for sub in _subschemas(schema) if sub.get("type") == "number"]
    bounded = [sub for sub in numbers if {"minimum", "exclusiveMinimum"} & set(sub)]
    assert bounded and len(bounded) < len(numbers)
    for sub in numbers:
        assert _schema_error(math.inf, sub) == "config: inf is not a finite number", sub
        if sub in bounded:
            assert "nan is less than" in _schema_error(math.nan, sub), sub
            assert "-inf is less than" in _schema_error(-math.inf, sub), sub
        else:
            assert _schema_error(math.nan, sub) == "config: nan is not a finite number", sub
            assert _schema_error(-math.inf, sub) == "config: -inf is not a finite number", sub


def test_every_default_conforms_to_its_property():
    for schema in _SCHEMAS.values():
        for sub in _subschemas(schema):
            if "default" in sub:
                assert _schema_error(sub["default"], sub) is None, sub


def _lacking_defaults(value, schema, path="config"):
    """The paths of the properties with a default that value, valid under schema, lacks."""
    if "oneOf" in schema:
        schema = next(b for b in schema["oneOf"] if _schema_error(value, b) is None)
    props = schema.get("properties", {})
    if not isinstance(value, dict):
        return []
    lacking = [f"{path}.{k}" for k, p in props.items() if "default" in p and k not in value]
    for key, item in value.items():
        lacking += _lacking_defaults(item, props.get(key, {}), f"{path}.{key}")
    return lacking


@pytest.mark.parametrize("command", sorted(_SCHEMAS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_resolving_fills_every_default_once(command, data):
    schema = _SCHEMAS[command]
    cfg = data.draw(configs(schema))
    assume(_schema_error(cfg, schema) is None)
    raw = copy.deepcopy(cfg)
    resolved = _resolve(cfg, schema, None)
    assert cfg == raw
    assert _schema_error(resolved, schema) is None
    assert _lacking_defaults(resolved, schema) == []
    assert _resolve(resolved, schema, None) == resolved
