from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np
import pytest

from placement_opt import fileio
from placement_opt.fileio import write_atomic, write_csv


def test_replaces_whole_file(tmp_path):
    path = tmp_path / "out.json"
    write_atomic(path, "a much longer first version\n")
    write_atomic(path, "short\n")
    assert path.read_bytes() == b"short\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_failing_write_leaves_previous_file_intact(tmp_path):
    path = tmp_path / "report.csv"
    write_atomic(path, "old\n")
    with pytest.raises(UnicodeEncodeError):
        write_atomic(path, "new \udc80\n")  # a lone surrogate cannot be encoded
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["report.csv"]  # no temp file left behind


def test_failing_replace_leaves_previous_file_intact(tmp_path, monkeypatch):
    path = tmp_path / "checkpoint.json"
    write_atomic(path, "old")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(fileio.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_atomic(path, "new")
    assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["checkpoint.json"]


def test_csv_bytes_match_the_csv_module(tmp_path):
    rows = [{"a": 1, "b": 0.1 + 0.2}, {"a": "x,y", "b": 'q"'}]
    write_csv(tmp_path / "new.csv", ["a", "b"], rows)
    with open(tmp_path / "ref.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=["a", "b"])
        writer.writeheader()
        writer.writerows(rows)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# The JSON writer must equal json.dumps(doc, indent=2) byte for byte.
AWKWARD_FLOATS = [1e-320, 5e-324, 1e308, 1.7976931348623157e308, -0.0, 0.0, float("inf"), float("-inf"),
                  float("nan"), 0.1 + 0.2, 1e16, -2.5e-7]
AWKWARD_STRINGS = ["", "g", ", ", "a, b", ",", "%", "%s", "%(x)s", "100%, done", '"quoted"', "back\\slash",
                   "naïve", "日本語, テスト", " ", "\x00\x1f", "tab\tnew\nline", "emoji 🙂", "[1, 2]",
                   '{"a": 1}', "\\u0041"]


def _scalar(rng):
    kind = rng.integers(5)
    if kind == 0:
        return AWKWARD_FLOATS[rng.integers(len(AWKWARD_FLOATS))]
    if kind == 1:
        return float(rng.normal() * 10.0 ** rng.integers(-12, 12))
    if kind == 2:
        return int(rng.integers(-10**6, 10**6)) * 10 ** int(rng.integers(0, 15))
    if kind == 3:
        return [True, False, None][rng.integers(3)]
    return AWKWARD_STRINGS[rng.integers(len(AWKWARD_STRINGS))]


def _value(rng, depth=0):
    kind = rng.integers(6 if depth < 3 else 1)
    if kind == 0:
        return _scalar(rng)
    n = int(rng.integers(0, 5))
    if kind == 1:  # a column of numbers
        return [float(x) for x in rng.normal(size=n)] + [AWKWARD_FLOATS[rng.integers(len(AWKWARD_FLOATS))]]
    if kind == 2:
        return [_value(rng, depth + 1) for _ in range(n)]
    if kind == 3:
        return {AWKWARD_STRINGS[rng.integers(len(AWKWARD_STRINGS))]: _value(rng, depth + 1) for _ in range(n)}
    if kind == 4:  # rows of objects, sometimes of different shapes
        keys = [AWKWARD_STRINGS[k] for k in rng.permutation(len(AWKWARD_STRINGS))[: rng.integers(0, 4)]]
        rows = [{k: _value(rng, depth + 1) for k in keys} for _ in range(n)]
        if rows and rng.random() < 0.3:
            rows[-1] = dict(reversed(list(rows[-1].items())))
        return rows
    width = int(rng.integers(0, 3))  # rows of lists, sometimes of different lengths
    return [[_value(rng, depth + 1) for _ in range(width + (rng.random() < 0.2))] for _ in range(n)]


def test_json_document_equals_indented_dumps_on_seeded_documents():
    rng = np.random.default_rng(2024)
    for _ in range(3000):
        doc = _value(rng)
        assert fileio.json_document(doc) == json.dumps(doc, indent=2), doc


@pytest.mark.parametrize(
    "doc",
    [
        {"graph": "g", "assignment": {}},
        {"graph": "g", "makespan_seconds": float("inf"), "peak_memory_bytes": [0.0, 1e308], "event_count": 0,
         "nodes": [], "transfers": []},
        {"name": "a, b", "nodes": [{"id": 0, "cost": [1e-320, -0.0], "output_bytes": 5e-324,
                                    "members": ["x, y", "%s", "q\"\\", "ü"]},
                                   {"id": 1, "cost": 2.0, "output_bytes": 1.0}], "edges": [[0, 1]]},
        {"name": "%(name)s 100%", "nodes": [{"id": i, "cost": [0.5, 1.5], "output_bytes": 1e308, "members": []}
                                             for i in range(3)], "edges": []},
        [", ", ", ", 1.0],
        {", ": {", ": [", "]}},
        [[], {}, [[]], [{}]],
    ],
    ids=["empty_assignment", "overflowing_makespan", "graph_awkward_strings", "percent_name", "comma_strings",
         "comma_keys", "empty_containers"],
)
def test_json_document_awkward_cases(doc):
    assert fileio.json_document(doc) == json.dumps(doc, indent=2)


def test_output_documents_match_indented_dumps():
    from placement_opt.graph_core import ComputationGraph, OpGroup, save_graph
    from placement_opt.sim_engine import Placement, SimulationResult, TransferRecord

    name = 'g, "1"\\%s ñ'
    graph = ComputationGraph.build(
        name, [OpGroup(0, (1e-320, 2.0), 0.0, ("a, b", "ü")), OpGroup(1, (-0.0 + 0.0,), 1e308)], {(0, 1)}
    )
    assert save_graph(graph) == json.dumps({
        "name": name,
        "nodes": [{"id": 0, "cost": [1e-320, 2.0], "output_bytes": 0.0, "members": ["a, b", "ü"]},
                  {"id": 1, "cost": 0.0, "output_bytes": 1e308}],
        "edges": [[0, 1]],
    }, indent=2)
    assert Placement(()).to_document(name) == json.dumps({"graph": name, "assignment": {}}, indent=2)
    assert Placement((1, 0)).to_document(name) == json.dumps({"graph": name, "assignment": {"0": 1, "1": 0}},
                                                             indent=2)
    result = SimulationResult(float("inf"), (0.0, 1e308), ((0.0, 1.5), (2.0, float("inf"))),
                              (TransferRecord(0, 0, 1, 1.5, 2.0),), 6)
    assert result.to_document(graph, Placement((0, 1))) == json.dumps({
        "graph": name, "makespan_seconds": float("inf"), "peak_memory_bytes": [0.0, 1e308], "event_count": 6,
        "nodes": [{"id": 0, "device": 0, "start": 0.0, "end": 1.5},
                  {"id": 1, "device": 1, "start": 2.0, "end": float("inf")}],
        "transfers": [{"node": 0, "src": 0, "dst": 1, "start": 1.5, "end": 2.0}],
    }, indent=2)
    empty = SimulationResult(0.0, (0.0,), (), (), 0)
    assert empty.to_document(ComputationGraph.build("", [], set()), Placement(())) == json.dumps({
        "graph": "", "makespan_seconds": 0.0, "peak_memory_bytes": [0.0], "event_count": 0,
        "nodes": [], "transfers": []}, indent=2)


def _float(rng):
    if rng.random() < 0.2:
        return AWKWARD_FLOATS[rng.integers(len(AWKWARD_FLOATS))]
    return float(rng.uniform(0, 10) * 10.0 ** rng.integers(-8, 8))


@pytest.mark.parametrize("with_transfers", [False, True], ids=["no_transfers", "transfers"])
@pytest.mark.parametrize("seed", range(3))
def test_timeline_documents_match_indented_dumps(seed, with_transfers):
    # SimulationResult.to_document writes the node and transfer lists from
    # their columns; the reference builds one object per row.
    from placement_opt.graph_core import ComputationGraph, OpGroup
    from placement_opt.sim_engine import Placement, SimulationResult, TransferRecord

    rng = np.random.default_rng(seed)
    for _ in range(40):
        n, m = int(rng.integers(0, 30)), int(rng.integers(1, 5))
        name = AWKWARD_STRINGS[rng.integers(len(AWKWARD_STRINGS))]
        graph = ComputationGraph.build(name, [OpGroup(v, (1.0,), 0.0) for v in range(n)], set())
        placement = Placement(tuple(int(d) for d in rng.integers(0, m, size=n)))
        spans = tuple((_float(rng), _float(rng)) for _ in range(n))
        transfers = tuple(
            TransferRecord(int(rng.integers(n)), int(rng.integers(m)), int(rng.integers(m)), _float(rng), _float(rng))
            for _ in range(int(rng.integers(1, 2 * n + 2)) if with_transfers and n else 0)
        )
        result = SimulationResult(_float(rng), tuple(_float(rng) for _ in range(m)), spans, transfers,
                                  int(rng.integers(0, 10**6)))
        assert result.to_document(graph, placement) == json.dumps({
            "graph": name, "makespan_seconds": result.makespan_seconds,
            "peak_memory_bytes": list(result.peak_memory_bytes), "event_count": result.event_count,
            "nodes": [{"id": v, "device": placement.assignment[v], "start": s, "end": e}
                      for v, (s, e) in enumerate(spans)],
            "transfers": [{"node": t.node, "src": t.src, "dst": t.dst, "start": t.start, "end": t.end}
                          for t in transfers],
        }, indent=2)


@pytest.mark.parametrize(
    "keys, columns",
    [((), ()), (("a",), ()), (("a", "b"), ([1], [])), (("a",), ([1], [2]))],
    ids=["no_keys", "no_columns", "unequal_lengths", "more_columns_than_keys"],
)
def test_table_needs_one_column_per_key_of_one_length(keys, columns):
    with pytest.raises(ValueError, match="one column per key"):
        fileio.Table(keys, columns)


def test_table_is_written_as_its_row_objects():
    table = fileio.Table(("id", "a, b", "%s"), ([0, 1], ("x, y", None), [[1, 2], {"k": 1.5}]))
    rows = [{"id": 0, "a, b": "x, y", "%s": [1, 2]}, {"id": 1, "a, b": None, "%s": {"k": 1.5}}]
    assert fileio.json_document({"t": table, "u": [table]}) == json.dumps({"t": rows, "u": [rows]}, indent=2)
    assert fileio.json_document(fileio.Table(("a",), ([],))) == "[]"


# A list of objects with like keys, a Table or a list of like-length lists
# whose values are all exact ints and finite floats is filled in from the
# values' repr; any other value takes the path through json.dumps.
ONE_CALL_CASES = {
    "numpy_float64": (("id", "x"), ([0, 1], [np.float64(1.5), np.float64(-0.25)])),
    "bool_in_int_column": (("id", "x"), ([0, True, 2], [1.0, 2.0, 3.0])),
    "none": (("id", "x"), ([0, 1, 2], [1.5, None, 2.5])),
    "nan_and_infinities": (("x", "y"), ([1.0, float("nan"), float("inf")], [0.5, float("-inf"), 2.0])),
    "big_int_beside_float": (("x",), ([10**400, 1.5],)),
    "overflowing_sum": (("x", "y"), ([1.7976931348623157e308, 1.7976931348623157e308], [1, 2])),
    "negative_zero_and_subnormal": (("x", "y"), ([-0.0, 5e-324], [5e-324, -0.0])),
    "percent_keys": (("%s", "100%", "%(x)r", "%%"), ([0, 1], [0.5, 1.5], [2, 3], [1e-300, 1e300])),
}


@pytest.mark.parametrize("keys, columns", ONE_CALL_CASES.values(), ids=ONE_CALL_CASES.keys())
def test_row_tables_match_indented_dumps(keys, columns):
    rows = [dict(zip(keys, values)) for values in zip(*columns)]
    lists = [list(values) for values in zip(*columns)]
    doc = {"table": fileio.Table(keys, columns), "rows": rows, "lists": lists, "by_key": dict(zip(keys, lists))}
    reference = {"table": rows, "rows": rows, "lists": lists, "by_key": dict(zip(keys, lists))}
    assert fileio.json_document(doc) == json.dumps(reference, indent=2)
    assert fileio.json_document([lists]) == json.dumps([lists], indent=2)


@pytest.mark.parametrize("awkward", [False, True], ids=["finite", "awkward"])
def test_two_thousand_row_tables_match_indented_dumps(awkward):
    rng = np.random.default_rng(2000)
    n = 2000

    def number():
        if awkward and rng.random() < 0.01:
            return AWKWARD_FLOATS[rng.integers(len(AWKWARD_FLOATS))]
        return float(rng.uniform(-10, 10) * 10.0 ** rng.integers(-300, 300))

    columns = (list(range(n)), [number() for _ in range(n)], [number() for _ in range(n)])
    rows = [{"id": i, "cost": c, "output_bytes": b} for i, c, b in zip(*columns)]
    pairs = [[int(u), int(v)] for u, v in rng.integers(0, n, size=(n, 2))]
    doc = {"table": fileio.Table(("id", "cost", "output_bytes"), columns), "rows": rows, "pairs": pairs}
    assert fileio.json_document(doc) == json.dumps({"table": rows, "rows": rows, "pairs": pairs}, indent=2)


@dataclass
class _Kinds:
    count: int
    rate: float = 1.0
    flag: bool = False
    name: str = ""
    width: int | None = None


def test_field_kinds_follow_the_annotations():
    assert fileio.field_kinds(_Kinds) == {"count": "int", "rate": "number", "flag": "bool", "name": "str",
                                          "width": "int?"}
    assert list(fileio.field_kinds(_Kinds, skip=("count", "flag"))) == ["rate", "name", "width"]


class _Refused(ValueError):
    pass


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "thing must be a JSON object"),
        ({"count": 1, "extra": 2, "more": 3}, "unknown thing key(s): extra, more"),
        ({"count": True}, "thing key 'count' must be an integer, not true"),
        ({"count": 1.0}, "thing key 'count' must be an integer, not 1.0"),
        ({"rate": 1e400}, "thing key 'rate' must be a finite number, not Infinity"),
        ({"flag": 0}, "thing key 'flag' must be true or false, not 0"),
        ({"width": "3"}, "thing key 'width' must be an integer or null, not \"3\""),
        ({"name": None}, "thing key 'name' must be a string, not null"),
    ],
)
def test_check_object_refuses(doc, message):
    with pytest.raises(_Refused) as e:
        fileio.check_object(doc, fileio.field_kinds(_Kinds), "thing", _Refused)
    assert str(e.value) == message


def test_check_object_accepts_any_subset_of_keys():
    schema = fileio.field_kinds(_Kinds)
    for doc in ({}, {"count": 3, "rate": 2, "flag": True, "name": "n", "width": None}):
        fileio.check_object(doc, schema, "thing", _Refused)


@pytest.mark.parametrize(
    "doc, schema, required, message",
    [
        ({"rate": 2}, {"count": "int", "rate": "number"}, ("count",), "thing lacks key(s): count"),
        ({}, {"count": "int", "rate": "number"}, ("count", "rate"), "thing lacks key(s): count, rate"),
        ({"extra": 1}, {"count": "int"}, ("count",), "unknown thing key(s): extra"),  # unknown before missing
        ({"cost": "1"}, {"cost": "number|list"}, (), "thing key 'cost' must be a finite number or a list, not \"1\""),
        ({"cost": float("nan")}, {"cost": "number|list"}, (), "thing key 'cost' must be a finite number, not NaN"),
        ({"rows": (1, 2)}, {"rows": "list"}, (), "thing key 'rows' must be a list, not [1, 2]"),
        ({"name": "x" * 100}, {"name": "int"}, (), "thing key 'name' must be an integer, not \"" + "x" * 56 + "..."),
    ],
)
def test_check_object_refuses_missing_keys_and_combined_kinds(doc, schema, required, message):
    with pytest.raises(_Refused) as e:
        fileio.check_object(doc, schema, "thing", _Refused, required=required)
    assert str(e.value) == message


def test_check_object_accepts_required_keys_and_either_kind():
    schema = {"count": "int", "cost": "number|list", "rate": "number?"}
    for doc in ({"count": 1}, {"count": 1, "cost": 2.5, "rate": None}, {"count": 1, "cost": [1, "x"]}):
        fileio.check_object(doc, schema, "thing", _Refused, required=("count",))


@pytest.mark.parametrize("x", [True, None, "1", [1.0], 1e400, float("nan"), -(10**400)])
def test_number_refuses_what_is_not_a_finite_json_number(x):
    with pytest.raises(_Refused, match="^graph nodes\\[2\\] key 'cost' must be a finite number, not "):
        fileio.number(x, "graph nodes[2]", "cost", _Refused)


def test_number_reads_ints_and_floats_as_floats():
    assert [fileio.number(x, "w", "k", _Refused) for x in (3, -0.5, 1.7976931348623157e308)] == [
        3.0, -0.5, 1.7976931348623157e308]
    assert type(fileio.number(3, "w", "k", _Refused)) is float
