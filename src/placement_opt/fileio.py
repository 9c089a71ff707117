"""The one way outputs reach disk: whole-file replacement, and the JSON text
of every indented output document, each list of like rows filled in by one
format call. Also the one way every input file is read as UTF-8, every input
document parsed and checked against a key -> kind schema, and every config
value against its field's rule, so every failure names the file or the
document, the key and the value in one wording."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import sys
from itertools import chain


def read_text(path, error: type[Exception]) -> str:
    """The text of the UTF-8 file at path, raising error("cannot read <path>:
    <reason>") if it cannot be opened or read or is not UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise error(f"cannot read {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise error(f"cannot read {path}: not UTF-8 text ({e})") from e


def parse_json(text, what: str, error: type[Exception]):
    """json.loads(text), raising error with a message that starts with what
    if the text is not JSON, holds an integer too long to convert, or is
    nested too deep for the parser."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"{what} is not valid JSON: {e}") from e
    except ValueError as e:  # an integer literal too long to convert
        raise error(f"{what} cannot be read: {e}") from None
    except RecursionError as e:
        raise error(f"{what} is nested too deep to parse: {e}") from None


# Schema kinds: kind -> (admitted types, whether a number must be finite,
# description). "int" is a JSON integer, not a bool; "?" also admits null.
_KINDS = {
    "int": ((int,), False, "an integer"),
    "int?": ((int, type(None)), False, "an integer or null"),
    "number": ((int, float), True, "a finite number"),
    "number?": ((int, float, type(None)), True, "a finite number or null"),
    "number|list": ((int, float, list), True, "a finite number or a list"),
    "bool": ((bool,), False, "true or false"),
    "str": ((str,), False, "a string"),
    "object": ((dict,), False, "a JSON object"),
    "list": ((list,), False, "a list"),
}
_ANNOTATION_KINDS = {
    "int": "int", "float": "number", "bool": "bool", "str": "str", "int | None": "int?", "float | None": "number?"
}
_FLOAT_MAX = sys.float_info.max


def field_kinds(cls, skip=()) -> dict[str, str]:
    """The schema of a dataclass's fields but skip, from their annotations,
    which are strings: every config module postpones their evaluation."""
    return {f.name: _ANNOTATION_KINDS[f.type] for f in dataclasses.fields(cls) if f.name not in skip}


def rule(test, wanted: str) -> dict:
    """A config field's metadata: the values it admits beyond its kind, as
    check_values tests them and refusal words them."""
    return {"rule": (test, wanted)}


def at_least(least: int) -> dict:
    return rule(lambda v: least <= v < math.inf, f"an integer >= {least}")


def one_of(*options: str) -> dict:
    return rule(lambda v: v in options, "one of " + ", ".join(map(json.dumps, options)))


# Each bound refuses nan, the infinities and ints beyond float range.
FINITE = rule(lambda v: -_FLOAT_MAX <= v <= _FLOAT_MAX, "a finite number")
FINITE_AT_LEAST_0 = rule(lambda v: 0 <= v <= _FLOAT_MAX, "a finite number >= 0")


def check_values(values: dict, cls, where: str, error: type[Exception]) -> None:
    """Raise error, in refusal's wording, at the first key of values whose
    field of the dataclass cls has a rule that rejects the value. Keys that
    name no ruled field of cls are left to other checks."""
    rules = {f.name: f.metadata["rule"] for f in dataclasses.fields(cls) if "rule" in f.metadata}
    for key, value in values.items():
        if key in rules and not rules[key][0](value):
            raise error(refusal(where, key, value, rules[key][1]))


def clip(text: str) -> str:
    """text cut to 60 characters, as error messages show a document's text."""
    return text if len(text) <= 60 else text[:57] + "..."


def refusal(where: str, key, value, wanted: str) -> str:
    """The one message for a value that is not what its key admits; the
    value is shown as JSON text cut to 60 characters, or as its repr when a
    direct caller passed a value JSON cannot hold, such as a numpy integer."""
    return f"{where} key {key!r} must be {wanted}, not {clip(json.dumps(value, default=repr))}"


def number(x, where: str, key, error: type[Exception]) -> float:
    """float(x) if x is a finite JSON number (a bool is not), else raise error.

    Called once per value in the loaders' loops, so the message is only
    built on failure."""
    if (type(x) is float or type(x) is int) and -_FLOAT_MAX <= x <= _FLOAT_MAX:
        return float(x)
    raise error(refusal(where, key, x, "a finite number"))


def finite_numbers(column, low: float = -_FLOAT_MAX) -> bool:
    """Whether every entry of a list is a JSON number (not a bool) in
    low..float max: one pass for the kinds, then two C comparisons per
    entry, both false for NaN and one for infinities and ints beyond float
    range. A caller that gets False walks the list to name the fault."""
    return (
        set(map(type, column)) <= {int, float}
        and all(map(low.__le__, column))
        and all(map(_FLOAT_MAX.__ge__, column))
    )


def check_object(doc, schema: dict[str, str], where: str, error: type[Exception], required=()) -> None:
    """Raise error unless doc is a JSON object whose keys are in schema,
    which has every key in required, and whose every value is of its key's
    kind. Keys are checked in document order, so a bad value can be named
    before a later unknown key."""
    if type(doc) is not dict:
        raise error(f"{where} must be a JSON object")
    for key, value in doc.items():
        kind = schema.get(key)
        if kind is None:
            raise error(f"unknown {where} key(s): {', '.join(sorted(doc.keys() - schema.keys()))}")
        types, finite, wanted = _KINDS[kind]
        if type(value) not in types:
            raise error(refusal(where, key, value, wanted))
        if finite and (type(value) is float or type(value) is int):
            number(value, where, key, error)
    for key in required:
        if key not in doc:
            raise error(f"{where} lacks key(s): {', '.join(k for k in required if k not in doc)}")


def write_atomic(path, text: str) -> None:
    """Write text to a temp file next to path, then os.replace it over path.

    A reader sees the old file or the new one, never a partial write. Text is
    written without newline translation.
    """
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, columns, rows) -> None:
    """Write dict rows as CSV with a header line (csv module defaults, CRLF)."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    writer.writerows(rows)
    write_atomic(path, buf.getvalue())


_SCALARS = frozenset({str, int, float, bool, type(None)})


@dataclasses.dataclass(frozen=True)
class Table:
    """A list of objects with the same keys, held as one column per key:
    json_document writes it as ``[{keys[0]: columns[0][i], ...}, ...]``, one
    object per row i, without building the row objects."""

    keys: tuple[str, ...]
    columns: tuple  # one sequence per key, all of one length

    def __post_init__(self):
        if not self.keys or len(self.columns) != len(self.keys) or len(set(map(len, self.columns))) != 1:
            raise ValueError(f"a table needs one column per key, all of one length: {self.keys}")

    def __len__(self) -> int:
        return len(self.columns[0])


def json_document(doc) -> str:
    """Exactly ``json.dumps(doc, indent=2)``, built from pieces encoded in C;
    a Table is written as the list of its row objects.

    An indent always selects json's pure-Python encoder. Here each list is
    encoded a column at a time instead: one C ``json.dumps`` per column of
    scalars, split on the C encoder's ", " separator. A Table or a list of
    like-shaped objects or lists is filled in by one ``%`` call for all its
    rows: on its values themselves when each is an exact int or a finite
    float, which are the only values whose repr is json's text, else on
    each column's encoded entries.
    """
    return _encode(doc, "\n")


def _encode(o, nl: str) -> str:
    """o as the indent=2 encoder writes it at the depth whose line break is nl."""
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        keys = list(o)
        if not set(map(type, keys)) <= {str}:
            keys = [k if isinstance(k, str) else json.dumps(k) for k in keys]
        pairs = map("%s: %s".__mod__, zip(_items(keys, inner), _items(list(o.values()), inner)))
        return "{" + inner + ("," + inner).join(pairs) + nl + "}"
    if isinstance(o, (list, tuple, Table)):
        if not len(o):
            return "[]"
        inner = nl + "  "
        table = isinstance(o, Table)
        items = _rows(_heads(o.keys), list(zip(*o.columns)), "{}", inner) if table else _items(o, inner)
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    return json.dumps(o)


def _items(values, nl: str) -> list[str]:
    """[_encode(v, nl) for v in values], a whole column per C call."""
    kinds = set(map(type, values))
    if kinds <= _SCALARS:
        parts = json.dumps(values)[1:-1].split(", ") if values else []
        if len(parts) == len(values):
            return parts
        # Some string holds ", ", so the split cut it; encode one by one.
        return [json.dumps(v) for v in values]
    # Rows: objects with the same keys in the same order, or lists of one
    # length.
    if kinds == {dict} and len(shapes := set(map(tuple, values))) == 1 and (keys := shapes.pop()):
        return _rows(_heads(keys), list(map(dict.values, values)), "{}", nl)
    if kinds <= {list, tuple} and len(widths := set(map(len, values))) == 1 and (width := widths.pop()):
        return _rows([""] * width, values, "[]", nl)
    return [_encode(v, nl) for v in values]


def _heads(keys) -> list[str]:
    """Each key as an object member's head: its JSON string and ": "."""
    return [json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": " for k in keys]


def _rows(heads, rows, brackets: str, nl: str) -> list[str]:
    """Each of rows, a sequence of one value per head, as one object or list
    between brackets at the depth whose line break is nl, each value after
    its head. One ``%`` call fills a row template repeated once per row,
    split apart at the NULs between rows (json text holds none). Where every
    value is an exact int or a finite float, the template takes the values
    by ``%r``, since json writes those by their repr; the repr of any other
    value (NaN, an infinity, a bool, None, a string, a numpy scalar, an int
    or float subclass) is not json's text. Otherwise the template takes
    each column encoded by one _items call, by ``%s``."""
    inner = nl + "  "
    values = tuple(chain.from_iterable(rows))
    try:  # NaN or an infinity makes the sum of ints and floats non-finite
        exact = set(map(type, values)) <= {int, float} and -math.inf < sum(values) < math.inf
    except OverflowError:  # an int beyond float range beside a float: exact, but take the slow path
        exact = False
    if not exact:
        values = tuple(chain.from_iterable(zip(*[_items(col, inner) for col in zip(*rows)])))
    fields = ("," + inner).join(h.replace("%", "%%") + ("%r" if exact else "%s") for h in heads)
    template = brackets[0] + inner + fields + nl + brackets[1]
    return ("\0".join([template] * len(rows)) % values).split("\0")
