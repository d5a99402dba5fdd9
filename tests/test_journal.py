"""The serving write-ahead journal (``state/journal.py``): a crash can
tear only the last line, so replay keeps the durable prefix, a server
cuts the torn tail before its next append, and a bad line anywhere
earlier is corruption that still raises."""

import json
import os

import pytest

from donkey_ray.state import journal

RECORDS = [
    {"_op": "insert", "rows": [{"repo": "r", "path": "a", "commit": "1"}]},
    {"_op": "delete", "doc_ids": [11, 12]},
    {"_op": "insert", "rows": [{"vec_id": i, "embedding": [0.5, -1.0]}
                               for i in range(4)]},
]


def _write(path, data: bytes) -> None:
    with open(path, "wb") as f:
        f.write(data)


def test_append_replay_round_trip(tmp_path):
    path = str(tmp_path / "j.jsonl")
    assert journal.replay(path) == []  # absent journal
    for r in RECORDS:
        journal.append(path, r)
    assert journal.replay(path) == RECORDS
    with open(path, "rb") as f:
        assert f.read().count(b"\n") == len(RECORDS)  # one line per call


def test_torn_tail_at_every_offset(tmp_path):
    """Cut the file at every byte offset inside the last record: replay
    returns the prefix, an offline read leaves the file alone, and a
    server-side replay truncates so a following append round-trips."""
    path = str(tmp_path / "j.jsonl")
    for r in RECORDS:
        journal.append(path, r)
    with open(path, "rb") as f:
        data = f.read()
    start = data.rindex(b"\n", 0, len(data) - 1) + 1  # last record
    extra = {"_op": "delete", "doc_ids": [99]}
    for cut in range(start, len(data)):
        _write(path, data[:cut])
        assert journal.replay(path) == RECORDS[:-1]
        assert os.path.getsize(path) == cut  # read-only by default
        assert journal.replay(path, truncate=True) == RECORDS[:-1]
        assert os.path.getsize(path) == start
        journal.append(path, extra)
        assert journal.replay(path) == RECORDS[:-1] + [extra]
    _write(path, data)
    assert journal.replay(path, truncate=True) == RECORDS  # intact


def test_unparseable_last_line_is_dropped(tmp_path):
    path = str(tmp_path / "j.jsonl")
    _write(path, b"".join(json.dumps(r).encode() + b"\n"
                          for r in RECORDS[:2]) + b'{"_op": "ins\n')
    assert journal.replay(path, truncate=True) == RECORDS[:2]
    journal.append(path, RECORDS[2])
    assert journal.replay(path) == RECORDS


def test_corrupt_middle_line_raises(tmp_path):
    path = str(tmp_path / "j.jsonl")
    lines = [json.dumps(r).encode() for r in RECORDS]
    for bad in (lines[1][:-3], b"\x00garbage"):
        _write(path, b"\n".join([lines[0], bad, lines[2]]) + b"\n")
        with pytest.raises(ValueError, match="corrupt journal record"):
            journal.replay(path)
        with pytest.raises(ValueError, match="corrupt journal record"):
            journal.replay(path, truncate=True)
    # a bad next-to-last line stays corruption even when the last line
    # is itself torn
    _write(path, lines[0] + b"\n" + lines[1][:-3] + b"\n" + lines[2][:5])
    with pytest.raises(ValueError, match="on line 2"):
        journal.replay(path)


def test_bare_row_lines_replay_as_one_row_inserts(tmp_path):
    """Older journals wrote one bare row per line; they stay readable."""
    path = str(tmp_path / "j.jsonl")
    rows = [{"vec_id": 1, "embedding": [1.0]}, {"vec_id": 2,
                                                "embedding": [2.0]}]
    _write(path, b"".join(json.dumps(r).encode() + b"\n" for r in rows)
           + b"\n" + json.dumps(RECORDS[1]).encode() + b"\n")
    assert journal.replay(path) == [
        {"_op": "insert", "rows": [rows[0]]},
        {"_op": "insert", "rows": [rows[1]]},
        RECORDS[1],
    ]


def test_rewrite_is_whole_file(tmp_path):
    path = str(tmp_path / "j.jsonl")
    for r in RECORDS:
        journal.append(path, r)
    journal.rewrite(path, RECORDS[1:2])
    assert journal.replay(path) == RECORDS[1:2]
    assert not os.path.exists(path + ".tmp")
    journal.rewrite(path, [])
    assert not os.path.exists(path)
    journal.rewrite(path, [])  # idempotent on an absent journal
