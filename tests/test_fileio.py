import csv
import os

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
