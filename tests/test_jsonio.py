"""The one-pass JSON writer equals json.dumps of json_ready, byte for byte."""

import dataclasses
import enum
import json
import tracemalloc
from collections import OrderedDict

import numpy as np
import pytest

from edgebounds import survey
from edgebounds._jsonio import dumps_report, json_ready


def _reference(obj):
    return json.dumps(json_ready(obj), indent=2, allow_nan=False) + "\n"


class _Colour(enum.IntEnum):
    RED = 1
    BLUE = -7


@dataclasses.dataclass(frozen=True)
class _Plain:
    name: str
    value: float
    items: tuple
    nested: dict


@dataclasses.dataclass(frozen=True)
class _WithHook:
    z: complex

    def to_json_dict(self):
        return {"z": self.z, "abs": abs(self.z), "tag": np.str_("hook")}


class _FloatSub(float):
    pass


_NAN, _INF = float("nan"), float("inf")

CORPUS = [
    None, True, False, 0, -1, 2 ** 80, 0.1, -0.0, 5e-324, 1e16, 1.7976931348623157e308,
    _NAN, _INF, -_INF, "", "plain",
    {}, [], (), [[]], [{}], {"a": {}}, {"a": {"b": {"c": []}}, "d": [[], [[]], {}]},
    {"ключ\n\t\x00\x1f": "välue   \x7f \" \\ / \U0001F600"},
    ["\x00\x01\x08\x0c\r", "é", "\ud800"],
    {1: "int key", 2.5: "float key", None: "none key", True: "bool key", (1, 2): "tuple key"},
    [_NAN, _INF, -_INF, -0.0, 0.0, complex(_NAN, -_INF), complex(-0.0, _INF), 3 - 4j],
    {"z": complex(0.0, -0.0), "w": [complex(_INF, 1.0)]},
    [np.float64(_NAN), np.float64(-0.0), np.float32(0.1), np.int64(-3), np.uint8(200)],
    [np.complex128(1 - 2j), np.complex64(complex(_INF, 0)), np.bool_(True), np.bool_(False)],
    {"a1": np.arange(3), "a2": np.eye(2), "c": np.array([1 + 2j, complex(_NAN, 0)])},
    [np.zeros(0), np.zeros((2, 0)), np.array([[_INF, -0.0], [1.5, _NAN]])],
    _Plain("p", _NAN, (1, (2, 3), ()), {"k": [np.int32(4)]}),
    [_WithHook(complex(1.5, -0.0)), _WithHook(complex(_NAN, 2.0))],
    {"nested": _Plain("q", 2.5, (), {}), "hook": _WithHook(1j)},
    (1, (2, (3, ())), [None]),
    [_Colour.RED, _Colour.BLUE, {"colour": _Colour.BLUE}],
    {_Colour.RED: "enum key", np.str_("np key"): np.str_("np value"), "b": np.bool_(False)},
    np.str_("bare"), _Colour.BLUE, np.bool_(True), np.float64(2.5), np.int16(-5),
    OrderedDict([("x", _FloatSub(_NAN)), ("y", _FloatSub(0.25)), ("z", [_FloatSub(-_INF)])]),
]


@pytest.mark.parametrize("obj", CORPUS, ids=range(len(CORPUS)))
def test_writer_equals_json_dumps_of_json_ready(obj):
    assert dumps_report(obj) == _reference(obj)


def test_writer_equals_json_dumps_on_nested_corpus():
    doc = {"schema": "corpus", "items": CORPUS, "again": {"inner": CORPUS}}
    assert dumps_report(doc) == _reference(doc)


@pytest.mark.parametrize("obj", [object(), {"a": {1, 2}}, [b"bytes"]])
def test_writer_refuses_what_json_ready_refuses(obj):
    with pytest.raises(TypeError):
        json_ready(obj)
    with pytest.raises(TypeError):
        dumps_report(obj)


def test_writer_peak_memory_is_a_small_multiple_of_the_text():
    # json.dumps kept one small string per token, 7.7x the text
    doc = {"records": survey(100)}
    tracemalloc.start()
    try:
        text = dumps_report(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == _reference(doc)
    assert peak < 3 * len(text)
