import csv
import io
import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circpeaks import render, tables
from circpeaks.cli import run
from circpeaks.perm_core import enumerate_cp_class

BIG = 1 << render.MEMO_BITS
ints = st.one_of(
    st.integers(),
    st.integers(min_value=BIG, max_value=BIG << 200),
    st.integers(min_value=-(BIG << 200), max_value=-BIG),
)
texts = st.one_of(
    st.text(),
    st.lists(st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "é", " ",
                              "\U0001f600", "\ud800", "a"])).map("".join),
)
leaves = st.one_of(st.none(), st.booleans(), ints, texts)
payloads = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(texts, children, max_size=5),
        # The same int objects twice, as in {"f": f, "f_polynomial": f[::-1]}.
        st.lists(ints, max_size=5).map(lambda xs: {"f": xs, "f_polynomial": xs[::-1]}),
    ),
    max_leaves=30,
)


def _text(pieces):
    return "".join(pieces)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_json_matches_json_dumps(payload):
    assert _text(render.json_pieces(payload)) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("payload,name", [
    (1.5, "float"), ({"f": [1, Fraction(1, 2)]}, "Fraction"), ([{1, 2}], "set"),
    ({1: 2}, "int"), ({"a": [{(1,): 0}]}, "tuple"), ({"a": 1, None: 2}, "NoneType"),
])
def test_json_rejects_other_types(payload, name):
    with pytest.raises(TypeError, match=name):
        render.json_pieces(payload)


def test_fvector_converts_each_large_entry_once(monkeypatch):
    converted = []

    def decimal(value):
        converted.append(value)
        return int.__repr__(value)

    monkeypatch.setattr(render, "_decimal", decimal)
    out = io.StringIO()
    assert run(["fvector", "--n", "3000"], out) == 0
    f = list(tables.face_table(3000))
    large = [v for v in f if v.bit_length() >= render.MEMO_BITS]
    assert len(large) > 1000
    assert Counter(v for v in converted if v.bit_length() >= render.MEMO_BITS) == Counter(large)
    # The small entries are converted twice, once in f and once in f_polynomial.
    assert len(converted) == 2 * len(f) - len(large) + 1  # + n
    assert json.loads(out.getvalue()) == {"n": 3000, "f": f, "f_polynomial": f[::-1]}


class _Recorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def test_write_sends_batches_not_the_document():
    payload = {"f": list(range(10**50, 10**50 + 20000))}
    pieces = render.json_pieces(payload)
    out = _Recorder()
    render.write(pieces, out)
    assert _text(out.writes) == _text(pieces)
    assert len(out.writes) > 10
    longest = max(map(len, pieces))
    assert max(map(len, out.writes)) < render.BATCH + longest


def _csv_text(rows, header):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


cells = st.one_of(ints, st.booleans(), st.none(), texts.filter(lambda s: "\ud800" not in s))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(cells, min_size=1, max_size=4), max_size=6))
def test_csv_matches_csv_writer(rows):
    header = ["a", "b,c", 'd"e']
    assert _text(render.csv_pieces(rows, header)) == _csv_text(rows, header)


def test_csv_of_enum_cp_quotes_each_permutation():
    out = io.StringIO()
    assert run(["enum-cp", "--n", "6", "--set", "4,6", "--format", "csv"], out) == 0
    perms = enumerate_cp_class(6, (4, 6))
    rows = [[",".join(map(str, p.values))] for p in perms]
    assert len(rows) > 1
    assert out.getvalue() == _csv_text(rows, ["permutation"])
    assert out.getvalue().splitlines()[1].startswith('"')
