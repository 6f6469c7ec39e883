"""Typed columns in the writers: the same text as the row-by-row writers of ``tests/reference.py``.

A typed column (a numpy float, integer or bool array, or a
``tables.Strings``) is formatted once per distinct value and taken back to its rows; the
reference writes each row's values one by one, as the list form does:
a float by its ``repr``, an integer by ``str``, a bool as
``True``/``False``.
"""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

import reference
from panelcal.tables import Strings
from panelcal.writers import aligned_table, csv_text, texts

# floats that repeat, both zeros, subnormals, the exponent forms of repr, NaN and the infinities
FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072014e-309, 1e16, 1e-5, 0.1, 1 / 3, -2.5, math.nan,
                     math.inf, -math.inf]),
    st.floats(),
)
NOTES = ("", "prior-only", "a,b", 'q"x')


def quarter(value):
    return f"{value:.4f}"


@st.composite
def typed_column(draw, n):
    """(a typed column of ``n`` rows, the values the reference writes for each row)."""
    kind = draw(st.sampled_from(["float", "int", "bool", "repr", "quarter", "of", "new", "split", "take"]))
    if kind == "int":
        values = np.array(draw(st.lists(st.integers(-(2**63), 2**63 - 1) | st.integers(0, 3), min_size=n,
                                        max_size=n)), dtype=np.int64)
        return values, values.tolist()
    if kind == "bool":
        values = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        return values, values.tolist()
    if kind == "of":  # Strings.of: codes when a string repeats early, none for distinct strings
        values = draw(st.lists(st.sampled_from(NOTES) | st.text(st.sampled_from('ab,"\n'), max_size=3),
                               min_size=n, max_size=n))
        return Strings.of(values), values
    if kind == "take":  # the rows of a longer column, of a Strings with codes or without
        column = draw(st.lists(st.sampled_from(NOTES) | st.text(st.sampled_from('ab,"\n'), max_size=3),
                               min_size=1, max_size=2 * n + 1))
        rows = draw(st.lists(st.integers(0, len(column) - 1), min_size=n, max_size=n))
        return Strings.of(column).take(np.array(rows, dtype=np.intp)), [column[i] for i in rows]
    if kind in ("new", "split"):  # codes of any integer or bool dtype index the strings by position, never as a mask
        dtype = draw(st.sampled_from([bool, np.uint8, np.uint32, np.intp]))
        top = 1 if dtype is bool else len(NOTES) - 1
        codes = np.array(draw(st.lists(st.integers(0, top), min_size=n, max_size=n)), dtype=np.intp).astype(dtype)
        column = Strings(NOTES, codes) if kind == "new" else Strings.split(*Strings(NOTES).joined(), len(NOTES), codes)
        return column, [NOTES[k] for k in codes.tolist()]
    values = np.array(draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=np.float64)
    if kind == "float":
        return values, values.tolist()
    full, short = texts(values, repr, quarter)
    if kind == "repr":
        return full, list(map(repr, values.tolist()))
    return short, list(map(quarter, values.tolist()))


@st.composite
def typed_tables(draw):
    """Headers, one to five typed columns of one length, and the reference's rows."""
    n = draw(st.integers(0, 8))
    k = draw(st.integers(1, 5))
    pairs = [draw(typed_column(n)) for _ in range(k)]
    headers = draw(st.lists(st.text(alphabet=st.sampled_from('h,"x'), max_size=3), max_size=k))
    columns = [column for column, _ in pairs]
    rows = [list(row) for row in zip(*(values for _, values in pairs))]
    return headers, columns, rows


@example(table=(["x"], [np.array([-0.0, 0.0, -0.0])], [[-0.0], [0.0], [-0.0]]))
@example(table=(["note"], [Strings(("", "x"), np.array([0, 1, 0]))], [[""], ["x"], [""]]))
@example(table=(["a", "b"], [np.array([], dtype=np.float64), np.array([], dtype=bool)], []))
@example(table=(["note"], [Strings.split("\n".join(NOTES), "\n", 4, np.array([True, False, True, True]))],
                [[NOTES[1]], [NOTES[0]], [NOTES[1]], [NOTES[1]]]))
@example(table=(["id"], [Strings.of(["p1", "a,b", ""])], [["p1"], ["a,b"], [""]]))
@given(typed_tables())
def test_typed_csv_text_matches_csv_writer_row_by_row(table):
    headers, columns, rows = table
    headers = [*headers, *["h"] * (len(columns) - len(headers))]
    assert csv_text(headers, columns) == reference.csv_text(headers, rows)


@example(table=(["x"], [np.array([5e-324, 1e16, 1e-5])], [[5e-324], [1e16], [1e-5]]))
@example(table=([], [np.array([], dtype=np.float64), np.array([], dtype=np.float64)], []))
@example(table=(["note", "n"], [Strings(("prior-only", ""), np.array([True, True])), np.array([2, 3])],
                [["", 2], ["", 3]]))
@given(typed_tables())
def test_typed_aligned_table_matches_row_by_row_layout(table):
    headers, columns, rows = table
    # the reference counts columns by its rows and headers: a missing header is an empty one
    padded = [*headers, *[""] * (len(columns) - len(headers))]
    assert aligned_table(headers, columns) == reference.aligned_table(padded, rows)


@given(st.lists(FLOATS, max_size=12))
def test_texts_formats_each_bit_pattern_once(values):
    array = np.array(values, dtype=np.float64)
    full, short = texts(array, repr, quarter)
    assert full.codes is short.codes
    # one string per distinct bit pattern: -0.0 and 0.0 apart
    assert len(full.strings) == len(set(array.view(np.int64).tolist()))
    assert [full.strings[k] for k in full.codes] == list(map(repr, values))
    assert [short.strings[k] for k in short.codes] == list(map(quarter, values))


def test_a_typed_column_beside_list_columns_and_a_short_column():
    # a list column with None and a short list column, next to typed columns of one array
    values = np.array([0.5, -0.0, 0.5, 1e16])
    full, short = texts(values, repr, quarter)
    ids = ["p1", None, "p,3", "p4"]
    assert csv_text(["id", "x", "ok"], [ids, full, values > 0]) == reference.csv_text(
        ["id", "x", "ok"], [[i, v, v > 0] for i, v in zip(ids, values.tolist())])
    assert aligned_table(["id", "x", "q"], [ids, short, ["a", "b"]]) == reference.aligned_table(
        ["id", "x", "q"], [[i, quarter(v), *q] for i, v, q in zip(ids, values.tolist(), [["a"], ["b"], [], []])])
