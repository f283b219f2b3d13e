"""``json_roundtrip`` returns exactly what the JSON text round trip returns.

Every execution path hands its results through
:func:`~repro.exec.jobspec.json_roundtrip`, and the cache, the broker and
``replay --verify`` compare what it returns. It copies plain data
structurally and sends anything else through
``json.loads(json.dumps(value))``, so the two must never be told apart:
the same type at every level, the same keys in the same order, the same
canonical JSON bytes and the same equality (NaN included) -- or, for a
value JSON rejects, the same exception type.
"""

import collections
import enum
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.exec import canonical_json, json_roundtrip


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str):
    """A ``str`` subclass; JSON writes it as its text."""


Pair = collections.namedtuple("Pair", "left right")


class Opaque:
    """A plain object; JSON rejects it."""


def text_roundtrip(value):
    return json.loads(json.dumps(value))


def outcome(normalize, value):
    try:
        return "ok", normalize(value)
    except Exception as exc:  # the exception type is the outcome
        return "raise", type(exc)


def shape(value):
    """The type at every level of ``value``, with dict keys in order."""
    if isinstance(value, dict):
        return type(value), [(key, shape(item)) for key, item in value.items()]
    if isinstance(value, (list, tuple)):
        return type(value), [shape(item) for item in value]
    return type(value)


def assert_same_outcome(value):
    got = outcome(json_roundtrip, value)
    want = outcome(text_roundtrip, value)
    assert got[0] == want[0], (got, want)
    if want[0] == "raise":
        assert got[1] is want[1]
        return
    assert shape(got[1]) == shape(want[1])
    assert canonical_json(got[1]) == canonical_json(want[1])
    assert got[1] == want[1]


#: Keys of every type JSON accepts, plus strings that collide with the
#: text other keys turn into (``1`` -> ``"1"``, ``True`` -> ``"true"``).
KEYS = st.one_of(
    st.text(max_size=4),
    st.integers(-3, 3),
    st.floats(),
    st.booleans(),
    st.none(),
    st.sampled_from(["1", "1.0", "-0.0", "true", "false", "null", "NaN", "Infinity"]),
)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.floats().map(np.float64),
    st.sampled_from(Level),
    st.text(max_size=6),
    st.text(max_size=6).map(Tag),
)

#: Values JSON refuses to encode.
REJECTED = st.sampled_from([np.int64(3), {1, 2}, Opaque()])


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.tuples(children, children).map(lambda t: Pair(*t)),
        st.dictionaries(KEYS, children, max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=3).map(
            collections.OrderedDict
        ),
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.recursive(SCALARS, containers, max_leaves=16))
@example({1: "a", "1": "b"})
@example({"1": "b", 1: "a"})
@example({True: 1, "true": 2, None: 3, "null": 4})
@example({"series": (0.0, 0.5, float("nan")), "events": [("a", "b", 1.0, -0.0)]})
@example(["\ud83d\ude00", {"\ud83d\ude00": 1, "\U0001F600": 2}])  # a surrogate pair decodes as one character
def test_normalizer_matches_the_text_round_trip(value):
    assert_same_outcome(value)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.recursive(st.one_of(SCALARS, REJECTED), containers, max_leaves=8))
def test_rejected_values_raise_what_the_text_round_trip_raises(value):
    assert_same_outcome(value)


def _circular():
    loop = []
    loop.append(loop)
    return loop


def _deep(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize(
    "value",
    [
        pytest.param(np.int64(3), id="numpy-int"),
        pytest.param({"a": [1, {2, 3}]}, id="nested-set"),
        pytest.param([Opaque()], id="plain-object"),
        pytest.param({(1, 2): 3}, id="tuple-key"),
        pytest.param(_circular(), id="circular"),
        pytest.param(_deep(100_000), id="deep"),
    ],
)
def test_values_json_rejects_raise_the_same_exception(value):
    assert outcome(text_roundtrip, value)[0] == "raise"
    assert_same_outcome(value)


def test_a_huge_int_takes_the_text_round_trip():
    """``json.dumps`` refuses an int of more digits than
    ``sys.get_int_max_str_digits()`` where the interpreter sets that
    limit, and writes it where it does not; either way the normalizer
    does what the text round trip does."""
    assert_same_outcome([10**5000])
    assert_same_outcome({"n": 2**2000 - 1})


def test_a_record_is_copied_not_shared():
    record = {"series_times": (0.0, 0.02), "events": [("bottle", "can", 1.5, 2.0)]}
    normal = json_roundtrip(record)
    assert normal == {"series_times": [0.0, 0.02], "events": [["bottle", "can", 1.5, 2.0]]}
    normal["events"][0][0] = "moved"
    assert record["events"][0][0] == "bottle"
    assert json_roundtrip(normal) is not normal
