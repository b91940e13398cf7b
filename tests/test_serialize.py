import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wittkit.polynomials import SparsePolynomial, _scalar_text, format_value
from wittkit.serialize import (
    _ENCODER,
    Indexed,
    Records,
    SchemaError,
    Values,
    json_dumps,
    tsv_dumps,
    value_from_obj,
    value_text,
    witt_from_obj,
)
from wittkit.witt import teichmueller

from conftest import ODD_NAME, value_to_obj, witt_to_obj

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


@settings(max_examples=200, deadline=None)
@given(tree=_TREE)
@example(tree=[])
@example(tree={})
@example(tree={"b": {"c": [[], {}]}, "a": ["\u00e9\U0001d11e", "7" * 5000]})
def test_json_dumps_equals_json_dumps_of_plain_trees(tree):
    assert json_dumps(tree) == json.dumps(tree, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("payload", [iter([1, 2]), {"a": (n for n in range(3))}, [1, map(str, [2])]],
                         ids=["iterator", "generator-in-dict", "map-in-list"])
def test_json_dumps_refuses_iterators(payload):
    """A long array travels as ``Records`` or ``Values``; an iterator is no JSON value."""
    with pytest.raises(TypeError):
        json_dumps(payload)


def test_tsv_shape():
    text = tsv_dumps(["a", "b"], [[["1", "3"], ["2", "4"]]])
    assert text == "a\tb\n1\t2\n3\t4\n"
    assert tsv_dumps(["only", "header"], []) == "only\theader\n"
    assert tsv_dumps(["only", "header"], [[], [[], []]]) == "only\theader\n"
    assert tsv_dumps(["a", "b"], [[["1"], [2]], [range(3, 5), [None, True]]]) == "a\tb\n1\t2\n3\t\n4\ttrue\n"
    # cells that are values all print by one rule, exact past str()'s digit limit,
    # whatever else shares their column
    big, big_text = -10**5000, "-1" + "0" * 5000
    third, third_text = Fraction(-10**5000 - 1, 3), "-1" + "0" * 4999 + "1/3"
    row = [None, True, False, "as is", 0, -7, Fraction(-1, 3), 1 - 120 * X**5, big, third]
    assert tsv_dumps(["c"] * len(row), [[[v] for v in row]]).split("\n")[1].split("\t") == [
        "", "true", "false", "as is", "0", "-7", "-1/3", "1-120*x^5", big_text, third_text,
    ]
    columns = {  # each column and its cells' texts
        "ints": ([3, big, 0, 12], ["3", big_text, "0", "12"]),
        "flags": ([None, True, False, None], ["", "true", "false", ""]),
        "ints and bools": ([1, True, 0, False], ["1", "true", "0", "false"]),
        "values": ([Fraction(1, 2), 1 - 120 * X**5, 7, third], ["1/2", "1-120*x^5", "7", third_text]),
        "strings": (["", "a b", "true", "-7"], ["", "a b", "true", "-7"]),
        "strings and flags": (["x", None, True, ""], ["x", "", "true", ""]),
        "one int": ([big] * 4, [big_text] * 4),
        "one flag": ([False] * 4, ["false"] * 4),
        "one None": ([None] * 4, [""] * 4),
        "one string": (["a b"] * 4, ["a b"] * 4),
        "one value": ([third] * 4, [third_text] * 4),
        "1 and True": ([1, True, 1, True], ["1", "true", "1", "true"]),
    }
    block = [values for values, _ in columns.values()]
    lines = ["\t".join(cells) for cells in zip(*(texts for _, texts in columns.values()))]
    assert tsv_dumps(list(columns), [block]) == "\n".join(["\t".join(columns), *lines]) + "\n"


# texts that need escaping in JSON, and a "%", which a formatting template would read
_JSON_TEXT = st.text(st.sampled_from('a1 %"\\/\x00\x1f\n\x7f\u00e9\u2028\ud800\U0001d11e'), max_size=5)
_JSON_COLUMN = st.sampled_from([
    st.integers(), st.text("ab %", max_size=3), _JSON_TEXT, st.none() | st.booleans(),
    st.none() | st.booleans() | st.integers() | _JSON_TEXT,
])


#: Pairs of cells Python calls equal, which print apart.
_EQUAL_APART = [(1, True), (0, False)]


@st.composite
def _json_columns(draw, n):
    """A column of ``n`` cells: drawn cell by cell, one drawn cell repeated, or cells drawn from
    a pair that Python calls equal yet print apart."""
    cells = draw(_JSON_COLUMN)
    shape = draw(st.sampled_from(["drawn", "constant", "equal apart"]))
    if shape == "constant":
        return [draw(cells)] * n
    if shape == "equal apart":
        cells = st.sampled_from(draw(st.sampled_from(_EQUAL_APART)))
    return draw(st.lists(cells, min_size=n, max_size=n))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_records_from_columns_equal_json_dumps_of_dicts(data):
    keys = data.draw(st.lists(_JSON_TEXT, min_size=1, max_size=5, unique=True))
    n = data.draw(st.integers(0, 6))
    columns = {key: data.draw(_json_columns(n)) for key in keys}
    records = [{key: columns[key][i] for key in keys} for i in range(n)]
    assert json_dumps(Records(columns)) == json.dumps(records, sort_keys=True, separators=(",", ":")) + "\n"
    # a column of Records, inside a payload
    nested = {"outer": Records({"n": [n, 0], "rows": [Records(columns), Records({"a": []})]})}
    expected = {"outer": [{"n": n, "rows": records}, {"n": 0, "rows": []}]}
    assert json_dumps(nested) == json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n"


def _tsv_text(cell) -> str:
    """A TSV cell's text, one cell at a time."""
    if cell is None:
        return ""
    if type(cell) is bool:
        return "true" if cell else "false"
    return cell if type(cell) is str else format_value(cell)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


#: Columns whose cells Python calls equal: one value of one kind prints one text, once; 1 and True,
#: or 0 and False, print apart.  The text is one that JSON escapes.
_EQUAL_COLUMNS = {
    "int": [-7] * 3,
    "bool": [False] * 3,
    "none": [None] * 3,
    "text": ['"\\\n\u2028\ud800%'] * 3,
    "1 and True": [1, True, 1],
    "True and 1": [True, 1, 1],
    "0 and False": [0, False, False],
}


def test_nested_records_encode_each_key_once_per_column(monkeypatch):
    """A column of nested ``Records`` encodes each key once, not once per object; the bytes stay."""
    from wittkit import serialize
    encoded = []

    class Counting(json.JSONEncoder):
        def encode(self, o):
            encoded.append(o)
            return super().encode(o)

    inner = [Records({"b": [i, i + 1], "a": ["x", None], "c": [Records({"d": [i]})] * 2}) for i in range(50)]
    outer = Records({"rows": inner, "n": list(range(50))})
    expected = json_dumps(outer)
    monkeypatch.setattr(serialize, "_ENCODER", Counting(sort_keys=True, separators=(",", ":")))
    assert json_dumps(outer) == expected
    assert json.loads(expected) == [
        {"n": i, "rows": [{"a": "x", "b": i, "c": [{"d": i}]}, {"a": None, "b": i + 1, "c": [{"d": i}]}]}
        for i in range(50)
    ]
    assert [encoded.count(key) for key in "abcd"] == [1, 1, 1, 50]  # one "d" per column of c
    assert encoded.count("rows") == encoded.count("n") == 1


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("keys", [["int", "bool", "none", "text"], list(_EQUAL_COLUMNS)],
                         ids=["all constant", "with equal cells apart"])
def test_columns_of_equal_cells_print_each_cell_by_its_kind(keys, rows):
    columns = {key: _EQUAL_COLUMNS[key][:rows] for key in keys}
    records = [{key: cells[i] for key, cells in columns.items()} for i in range(rows)]
    assert json_dumps(Records(columns)) == _dumps(records)
    assert json_dumps({"nested": Records({"rows": [Records(columns)] * 2})}) == _dumps(
        {"nested": [{"rows": records}] * 2})
    block = [*columns.values(), [_BIG] * rows]  # an int past str()'s digit limit
    lines = ["\t".join(map(_tsv_text, cells)) for cells in zip(*block)]
    assert tsv_dumps([*keys, "big"], [block]) == "\n".join(["\t".join([*keys, "big"]), *lines]) + "\n"
    big = str(Decimal(_BIG))
    assert json_dumps(Records({"big": [_BIG] * rows})) == "[" + ",".join(['{"big":' + big + "}"] * rows) + "]\n"


@pytest.mark.parametrize("values", [
    [None] * 3, [5] * 3, [0, SparsePolynomial(("x",), {})],
    [SparsePolynomial(("x",), {}), SparsePolynomial(("y",), {})],  # equal, yet in other variables
    [SparsePolynomial(("x",), {(0,): 5}), SparsePolynomial(("y",), {(0,): 5}), 5],
], ids=["none", "ints", "0 and zero", "zeros in x and y", "fives in x, y and none"])
def test_values_of_equal_cells_print_each_by_value_text(values):
    expected = [value_to_obj(v) if v is not None else None for v in values]
    records = Records({"v": Values(values)})
    assert json_dumps(records) == _dumps([{"v": v} for v in expected])
    assert json_dumps({"a": Values(values)}) == _dumps({"a": expected})


def test_indexed_cells_print_as_their_table_says():
    texts = ["0", "1", '"2"', "x\ty"]  # printed as they stand, in either format
    for indices in ([3, 0, 0, 2, 1], [2, 2, 2], range(4), [1]):
        column = Indexed(indices, texts.__getitem__)
        json_rows = ['{"a":' + texts[i] + ',"k":' + str(k) + "}" for k, i in enumerate(indices)]
        assert json_dumps(Records({"a": column, "k": range(len(indices))})) == "[" + ",".join(json_rows) + "]\n"
        assert json_dumps({"a": column}) == '{"a":[' + ",".join(texts[i] for i in indices) + "]}\n"
        tsv_rows = [f"{k}\t{texts[i]}" for k, i in enumerate(indices)]
        assert tsv_dumps(["k", "a"], [[range(len(indices)), column]]) == "\n".join(["k\ta", *tsv_rows]) + "\n"


def test_tsv_columns_constant_in_one_slice_and_not_the_next():
    """A column prints once per 4,096-row slice in which it is constant, and cell by cell in the
    slices in which it is not."""
    n = 2 * 4_096 + 5
    digits = [str(k) for k in range(10)]
    columns = [
        [7] * 4_096 + list(range(n - 4_096)),  # constant, then not
        [k % 5 for k in range(4_096)] + [None] * (n - 4_096),  # not, then constant
        [1] * 4_096 + [True] * (n - 4_096),  # constant in every slice, by two kinds that print apart
        [1] * 4_095 + [True] + [1] * (n - 4_096),  # 1 throughout, but for one True in the first slice
        ["a\tb"] * n,  # constant throughout
        Indexed([3] * 4_096 + [k % 10 for k in range(n - 4_096)], digits.__getitem__),
        Indexed([k % 10 for k in range(4_096)] + [9] * (n - 4_096), digits.__getitem__),
    ]
    cells = [[digits[i] for i in c.values] if isinstance(c, Indexed) else c for c in columns]
    lines = ["\t".join(map(_tsv_text, row)) for row in zip(*cells)]
    header = [str(i) for i in range(len(columns))]
    assert tsv_dumps(header, [columns]) == "\n".join(["\t".join(header), *lines]) + "\n"


def test_text_grammar():
    assert format_value(1 + 4 * X**3) == "1+4*x^3"
    assert format_value(17) == "17"
    assert format_value(Fraction(-1, 3)) == "-1/3"


# -- each ring element prints by one rule: value_text against the dict reference -----

_BIG = 10**4400 + 7  # past str()'s 4,300-digit limit
_NAME = st.text(st.sampled_from('xyz"\\\u00e9\ud800'), min_size=1, max_size=3)
_SCALAR = st.integers() | st.fractions()


@st.composite
def _ring_elements(draw):
    """A scalar, or a polynomial in up to three variables whose names may need JSON escapes."""
    if draw(st.booleans()):
        return draw(_SCALAR)
    names = draw(st.lists(_NAME, max_size=3, unique=True))
    exponents = st.tuples(*[st.integers(0, 4)] * len(names))
    return SparsePolynomial(names, draw(st.dictionaries(exponents, _SCALAR, max_size=4)))


def _reference(value) -> str:
    return json.dumps(value_to_obj(value), sort_keys=True, separators=(",", ":"))


#: Values past str()'s digit limit stay out of hypothesis, which would print them in its report.
RING_ELEMENTS = [
    0, 1, -1, _BIG, -_BIG, Fraction(-7, 3), Fraction(_BIG, 3),
    SparsePolynomial(("x", "y"), {}),  # zero, with variables
    SparsePolynomial(("x",), {(0,): 5}),  # constant, with variables
    1 - 120 * X**5,
    SparsePolynomial(("x", "y", "z"), {(1, 0, 2): -3, (0, 0, 0): Fraction(1, 2), (2, 1, 0): _BIG}),
    SparsePolynomial(('a"b', "c\\d", "\u00e9\U0001d11e", "\udcff"), {(1, 0, 2, 3): 4}),
]


@pytest.mark.parametrize("value", RING_ELEMENTS, ids=lambda value: type(value).__name__)
def test_value_text_equals_json_of_the_reference_object_on_examples(value):
    assert value_text(value) == _reference(value)


@pytest.mark.parametrize("name", ['"', "\\", "\x1f", "\u03bb", "\u2028", json.loads('"\\ud800"')],
                         ids=["quote", "backslash", "control", "lambda", "u2028", "lone-surrogate"])
def test_value_text_prints_variable_names_as_the_encoder_does(name):
    """Names that need an escape print as the C encoder prints the tuple of names: alone and beside a
    plain name, on a zero polynomial and on one term."""
    for variables in ((name,), (name, "x")):
        for terms in ({}, {(1,) * len(variables): 3}):
            text = value_text(SparsePolynomial(variables, terms))
            assert text.endswith(',"variables":' + _ENCODER.encode(variables) + "}")


@settings(max_examples=300, deadline=None)
@given(value=_ring_elements())
def test_value_text_equals_json_of_the_reference_object(value):
    assert value_text(value) == _reference(value)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(_ring_elements() | st.none(), max_size=5))
def test_values_print_as_arrays_and_columns_of_reference_objects(values):
    expected = [value_to_obj(v) if v is not None else None for v in values]
    dumps = lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    assert json_dumps({"a": Values(values)}) == dumps({"a": expected})
    records = Records({"n": list(range(len(values))), "v": Values(values)})
    assert json_dumps(records) == dumps([{"n": n, "v": v} for n, v in enumerate(expected)])
    assert json_dumps({"p": X - 1}) == dumps({"p": value_to_obj(X - 1)})


@pytest.mark.parametrize("n", [4_095, 4_096, 4_097, 9_000])
def test_values_past_one_slice_print_as_one_array(n):
    values = [k if k % 3 else X * k - 1 for k in range(n)]  # json_dumps joins 4,096 at a time
    expected = json.dumps({"a": [value_to_obj(v) for v in values]}, sort_keys=True, separators=(",", ":"))
    assert json_dumps({"a": Values(values)}) == expected + "\n"


def test_values_never_reach_the_c_encoder_as_a_list():
    # inside a plain list a Values would be printed by the C encoder, which refuses it rather
    # than print its ints as JSON numbers
    with pytest.raises(TypeError):
        json_dumps([Values([1, 2])])


def test_tsv_rows_past_one_slice_print_as_rows():
    n = 9_000  # more rows than tsv_dumps formats at once, twice over
    ints = [(-1) ** k * k**3 for k in range(n)]
    ints[7_000] = -_BIG
    flags = [k % 3 == 0 for k in range(n)]
    polys = [X * k - 1 for k in range(n)]
    cells = zip(range(n), map(format_value, ints), ("true" if c else "false" for c in flags), map(format_value, polys))
    text = tsv_dumps(["a", "b", "c", "d"], [[range(n), ints, flags, polys], [[], [], [], []]])
    assert text == "\n".join(["a\tb\tc\td", *(f"{a}\t{b}\t{c}\t{d}" for a, b, c, d in cells)]) + "\n"
    assert text.split("\n")[7_001].split("\t")[1] == "-" + str(Decimal(_BIG))


# -- one-variable values: read and printed on their own paths, as the generic ones do ---------


def _generic_sorted_terms(p):
    return sorted(p.terms.items(), key=lambda item: (sum(item[0]), item[0]))


def _generic_format_value(value) -> str:
    """``format_value`` as it printed a polynomial in any number of variables."""
    if not isinstance(value, SparsePolynomial):
        return _scalar_text(value)
    if not value.terms:
        return "0"
    parts = []
    for exps, c in _generic_sorted_terms(value):
        mono = "*".join(f"{v}^{e}" for v, e in zip(value.variables, exps) if e)
        if not mono:
            text = _scalar_text(c)
        elif c == 1:
            text = mono
        elif c == -1:
            text = "-" + mono
        else:
            text = f"{_scalar_text(c)}*{mono}"
        parts.append(text)
    out = parts[0]
    for text in parts[1:]:
        out += text if text.startswith("-") else "+" + text
    return out


def _generic_value_text(value) -> str:
    """``value_text`` of a polynomial as it printed one in any number of variables."""
    return '{"terms":[' + ",".join(
        '{"coefficient":"' + _scalar_text(c) + '","exponents":[' + ",".join(map(str, e)) + "]}"
        for e, c in _generic_sorted_terms(value)
    ) + '],"variables":' + json.dumps(list(value.variables), separators=(",", ":")) + "}"


_ONE_VARIABLE_NAMES = ["x", ODD_NAME, "-y", "t \udcff"]
_COEFFICIENTS = [1, -1, 2, -3, _BIG, -_BIG, Fraction(1, 2), Fraction(-1, 3), Fraction(-_BIG, 7)]


def _one_variable_polynomials(rng):
    yield from (SparsePolynomial((name,), {}) for name in _ONE_VARIABLE_NAMES)  # zero polynomials
    for _ in range(400):
        exponents = rng.sample(range(7), rng.randint(1, 5))  # 0 among them in about half the draws
        terms = {(e,): rng.choice(_COEFFICIENTS) for e in exponents}
        yield SparsePolynomial((rng.choice(_ONE_VARIABLE_NAMES),), terms)


def test_one_variable_values_print_as_the_generic_printers_print_them():
    for p in _one_variable_polynomials(random.Random(41)):
        assert p.sorted_terms() == _generic_sorted_terms(p)
        assert format_value(p) == _generic_format_value(p)
        assert value_text(p) == _generic_value_text(p)


def _exact(obj):
    """A JSON coefficient as the scalar it names, read here without the schema's helpers."""
    return obj if type(obj) is int else Fraction(obj) if "/" in obj else int(obj)


def test_one_variable_objects_read_as_the_polynomial_constructor_builds_them():
    """value_from_obj of a one-variable object is SparsePolynomial(variables, terms): value, term
    order and coefficient types, or the constructor's error text for an exponent vector it refuses."""
    rng = random.Random(41)
    coefficients = ["0", "1", "-1", "3", "4/2", "-1/3", "0/5", "-6/4", 5, -2, 0]
    refused = 0
    for trial in range(600):
        name = rng.choice(_ONE_VARIABLE_NAMES)
        exponents = [[e] for e in rng.sample(range(8), rng.randint(0, 5))]  # an empty term list now and then
        if exponents and trial % 4 == 0:  # one exponent vector the constructor refuses
            exponents[rng.randrange(len(exponents))] = rng.choice([[-1], [-7], [1, 0], [], [0, 0, 2]])
        terms = [{"exponents": e, "coefficient": rng.choice(coefficients)} for e in exponents]
        obj = json.loads(json.dumps({"variables": [name], "terms": terms}))  # as the CLI reads it
        try:
            expected = SparsePolynomial([name], {tuple(t["exponents"]): _exact(t["coefficient"]) for t in terms})
        except ValueError as exc:
            with pytest.raises(SchemaError) as info:
                value_from_obj(obj)
            assert str(info.value) == str(exc)
            refused += 1
            continue
        got = value_from_obj(obj)
        assert type(got) is SparsePolynomial and got.variables == expected.variables
        assert list(got.terms.items()) == list(expected.terms.items())
        assert [type(c) for c in got.terms.values()] == [type(c) for c in expected.terms.values()]
    assert refused > 100
