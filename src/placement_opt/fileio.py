"""The one way outputs reach disk: whole-file replacement, and the JSON text
of every indented output document. Also the one way an input document is
parsed and checked against a key -> kind schema, so every failure names it."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import sys


def parse_json(text, what: str, error: type[Exception]):
    """json.loads(text), raising error with a message that starts with what
    if the text is not JSON or is nested too deep for the parser."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise error(f"{what} is not valid JSON: {e}") from e
    except RecursionError as e:
        raise error(f"{what} is nested too deep to parse: {e}") from None


# Schema kinds: "int" is a JSON integer (not a bool), "number" a finite JSON
# number, "bool" true or false; a trailing "?" also admits null.
_KIND_TYPES = {"int": (int,), "number": (int, float), "bool": (bool,), "str": (str,), "object": (dict,)}
_KIND_NAMES = {"int": "an integer", "number": "a finite number", "bool": "true or false", "str": "a string",
               "object": "a JSON object"}
_ANNOTATION_KINDS = {"int": "int", "float": "number", "bool": "bool", "str": "str", "int | None": "int?"}


def field_kinds(cls, skip=()) -> dict[str, str]:
    """The schema of a dataclass's fields but skip, from their annotations,
    which are strings: every config module postpones their evaluation."""
    return {f.name: _ANNOTATION_KINDS[f.type] for f in dataclasses.fields(cls) if f.name not in skip}


def check_object(doc, schema: dict[str, str], where: str, error: type[Exception]) -> None:
    """Raise error unless doc is a JSON object whose keys are in schema and
    whose every value is of its key's kind."""
    if type(doc) is not dict:
        raise error(f"{where} must be a JSON object")
    unknown = set(doc) - set(schema)
    if unknown:
        raise error(f"unknown {where} key(s): {', '.join(sorted(unknown))}")
    for key, value in doc.items():
        kind = schema[key].rstrip("?")
        if value is None and schema[key].endswith("?"):
            continue
        ok = type(value) in _KIND_TYPES[kind]
        if ok and kind == "number":
            ok = -sys.float_info.max <= value <= sys.float_info.max
        if not ok:
            null = " or null" if schema[key].endswith("?") else ""
            raise error(f"{where} key {key!r} must be {_KIND_NAMES[kind]}{null}, not {json.dumps(value)}")


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


def json_document(doc) -> str:
    """Exactly ``json.dumps(doc, indent=2)``, built from pieces encoded in C.

    An indent always selects json's pure-Python encoder. Here each list is
    encoded a column at a time instead: one C ``json.dumps`` per column of
    scalars, split on the C encoder's ", " separator, and for a list of
    like-shaped objects or lists one ``%`` template filled in for every row.
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
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        return "[" + inner + ("," + inner).join(_items(o, inner)) + nl + "]"
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
    # length. Each column is encoded as a list of its own.
    if kinds == {dict} and len(shapes := set(map(tuple, values))) == 1 and (keys := shapes.pop()):
        heads = [json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": " for k in keys]
        columns, brackets = zip(*map(dict.values, values)), "{}"
    elif kinds <= {list, tuple} and len(widths := set(map(len, values))) == 1 and (width := widths.pop()):
        heads = [""] * width
        columns, brackets = zip(*values), "[]"
    else:
        return [_encode(v, nl) for v in values]
    inner = nl + "  "
    fields = ("," + inner).join(h.replace("%", "%%") + "%s" for h in heads)
    template = brackets[0] + inner + fields + nl + brackets[1]
    return list(map(template.__mod__, zip(*[_items(col, inner) for col in columns])))
