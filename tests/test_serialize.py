import json
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wittkit.polynomials import SparsePolynomial, format_value
from wittkit.serialize import (
    json_dumps,
    tsv_dumps,
    value_from_obj,
    value_to_obj,
    witt_from_obj,
    witt_to_obj,
)
from wittkit.witt import teichmueller

X = SparsePolynomial.variable("x")


def test_value_round_trip():
    for value in (0, 7, -3, Fraction(3, 2), 1 + 6 * X**3, -X):
        obj = value_to_obj(value)
        back = value_from_obj(obj)
        assert back == value


def test_big_integers_as_decimal_strings():
    big = 2**200 + 1
    obj = value_to_obj(big * X)
    assert obj["terms"][0]["coefficient"] == str(big)
    assert value_from_obj(obj) == big * X


def test_scalars_carry_no_variables():
    obj = value_to_obj(5)
    assert obj["variables"] == []
    assert value_from_obj(obj) == 5


def test_witt_round_trip():
    w = teichmueller(1 + X, 3)
    obj = witt_to_obj(w)
    assert obj["length"] == 3
    assert witt_from_obj(obj) == w


def test_json_dumps_deterministic():
    payload = {"b": 1, "a": [3, 2, 1], "nested": {"z": "s", "y": 2}}
    assert json_dumps(payload) == json_dumps(json.loads(json_dumps(payload)))
    assert json_dumps(payload).endswith("\n")


# digit strings past int()'s 4,300-digit limit, cheap to draw
_DIGITS = st.builds(lambda head, n: (head * n)[:n], st.text("0123456789", min_size=1, max_size=5),
                    st.integers(4301, 4400))
_TREE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.text(st.characters(min_codepoint=0x80), max_size=4) | _DIGITS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def _iterated(obj, pick):
    """``obj`` with each list that ``pick()`` chooses replaced by an iterator over it."""
    if isinstance(obj, dict):
        return {key: _iterated(value, pick) for key, value in obj.items()}
    if isinstance(obj, list):
        items = [_iterated(item, pick) for item in obj]
        return iter(items) if pick() else items
    return obj


@settings(max_examples=200, deadline=None)
@given(tree=_TREE, data=st.data())
@example(tree=[], data=None)
@example(tree={}, data=None)
@example(tree={"b": {"c": [[], {}]}, "a": ["\u00e9\U0001d11e", "7" * 5000]}, data=None)
def test_json_dumps_equals_json_dumps_with_iterators(tree, data):
    expected = json.dumps(tree, sort_keys=True, separators=(",", ":")) + "\n"
    assert json_dumps(tree) == expected
    assert json_dumps(_iterated(tree, lambda: True)) == expected
    if data is not None:
        assert json_dumps(_iterated(tree, lambda: data.draw(st.booleans()))) == expected


def test_tsv_shape():
    text = tsv_dumps(["a", "b"], [["1", "2"], ["3", "4"]])
    assert text == "a\tb\n1\t2\n3\t4\n"
    assert tsv_dumps(["only", "header"], []) == "only\theader\n"
    # cells that are values all print by one rule, exact past str()'s digit limit
    row = [None, True, False, "as is", 0, -7, Fraction(-1, 3), 1 - 120 * X**5,
           -10**5000, Fraction(-10**5000 - 1, 3)]
    assert tsv_dumps(["c"] * len(row), [row]).split("\n")[1].split("\t") == [
        "", "true", "false", "as is", "0", "-7", "-1/3", "1-120*x^5",
        "-1" + "0" * 5000, "-1" + "0" * 4999 + "1/3",
    ]


def test_text_grammar():
    assert format_value(1 + 4 * X**3) == "1+4*x^3"
    assert format_value(17) == "17"
    assert format_value(Fraction(-1, 3)) == "-1/3"
