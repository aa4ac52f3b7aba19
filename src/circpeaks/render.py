"""Output rendering of circpeaks.cli: a whole payload, then batched writes.

``json_pieces`` renders a payload into a list of string pieces whose
concatenation is ``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``
for dicts with str keys, lists, tuples, ints, strs, bools and None; any
other value raises TypeError, as json does, before anything is written.
An int of at least ``MEMO_BITS`` bits is converted to decimal once per
payload however often it appears (the f-polynomial is the f-vector
reversed: the same int objects), matched by identity; CPython renders an
int in time quadratic in its length.  ``csv_pieces`` renders rows with
``csv.writer`` into the same kind of list.  ``write`` sends the pieces
out in joined batches of about ``BATCH`` characters, so no string the
size of the whole document is ever built.

Only the commands that emit import this module; ``csv`` is loaded only by
the CSV forms.
"""

from __future__ import annotations

try:  # json.encoder's own function, without loading the json package
    from _json import encode_basestring_ascii
except ImportError:  # no C accelerator
    from json.encoder import encode_basestring_ascii

BATCH = 1 << 16
# Smaller ints convert faster than a memo lookup pays for.
MEMO_BITS = 1024
# json writes every int subclass as an int.
_decimal = int.__repr__


class _Pieces(list):
    """A piece list that ``csv.writer`` can write to."""

    write = list.append


def json_pieces(payload) -> list[str]:
    pieces = []
    _render(payload, pieces, {}, "\n")
    pieces.append("\n")
    return pieces


def _render(o, pieces, memo, newline) -> None:
    if isinstance(o, str):
        pieces.append(encode_basestring_ascii(o))
    elif o is None:
        pieces.append("null")
    elif o is True:
        pieces.append("true")
    elif o is False:
        pieces.append("false")
    elif isinstance(o, int):
        if o.bit_length() < MEMO_BITS:
            pieces.append(_decimal(o))
        else:
            text = memo.get(id(o))
            if text is None:
                text = memo[id(o)] = _decimal(o)
            pieces.append(text)
    elif isinstance(o, (list, tuple)):
        if not o:
            pieces.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in o:
            pieces.append(separator)
            separator = "," + inner
            _render(item, pieces, memo, inner)
        pieces.append(newline + "]")
    elif isinstance(o, dict):
        if not o:
            pieces.append("{}")
            return
        for key in o:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(o):
            pieces.append(separator)
            separator = "," + inner
            pieces.append(encode_basestring_ascii(key) + ": ")
            _render(o[key], pieces, memo, inner)
        pieces.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def csv_pieces(rows, header) -> list[str]:
    import csv  # only the CSV forms load it

    pieces = _Pieces()
    csv.writer(pieces, lineterminator="\n").writerows([header, *rows])
    return pieces


def write(pieces, out) -> None:
    batch, size = [], 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= BATCH:
            out.write("".join(batch))
            batch, size = [], 0
    if batch:
        out.write("".join(batch))
