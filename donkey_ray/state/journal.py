"""The serving primaries' write-ahead journal (donkey's insert journal
[PK, src/ journal code]): one JSON record per line.

Records are ``{"_op": "insert", "rows": [...]}`` (one per insert call,
so a batch replays whole or not at all) and ``{"_op": "delete", ...}``.
A bare row without ``_op`` is a per-row insert line from older
journals; ``replay`` reads it as a one-row insert record.

Torn-tail rule: ``append`` fsyncs before it returns, and the actor
call that journals a record returns only after that, so a crash can
tear at most the LAST line. ``replay`` drops a last line that lacks its
newline or does not parse; a bad line anywhere before it is corruption,
not a crash, and raises.
"""

from __future__ import annotations

import json
import os


def _line(record: dict) -> bytes:
    return (json.dumps(record, sort_keys=True) + "\n").encode()


def append(path: str, record: dict) -> None:
    """Append one record durably (one write, flush, fsync)."""
    with open(path, "ab") as f:
        f.write(_line(record))
        f.flush()
        os.fsync(f.fileno())


def replay(path: str, *, truncate: bool = False) -> "list[dict]":
    """The journal's durable prefix, in order ([] when it is absent).
    ``truncate=True`` also cuts a torn tail off the file, so the next
    ``append`` starts on a line boundary; servers pass it before they
    append, offline readers only read."""
    if not os.path.exists(path):
        return []
    with open(path, "rb") as f:
        data = f.read()
    *lines, tail = data.split(b"\n")
    records: list[dict] = []
    end = 0  # byte offset just past the last durable line
    for i, line in enumerate(lines):
        if line.strip():
            try:
                rec = json.loads(line)
            except ValueError:
                if i < len(lines) - 1 or tail:
                    raise ValueError(
                        f"corrupt journal record on line {i + 1} of "
                        f"{path!r}") from None
                break  # torn last line: never acknowledged
            records.append(rec if "_op" in rec
                           else {"_op": "insert", "rows": [rec]})
        end += len(line) + 1
    if truncate and end < len(data):
        with open(path, "r+b") as f:
            f.truncate(end)
            os.fsync(f.fileno())
    return records


def rewrite(path: str, records: "list[dict]") -> None:
    """Atomically replace the journal with ``records`` (tmp + fsync +
    ``os.replace``, so a crash leaves the old or the new journal, never
    neither); an empty list removes it."""
    if not records:
        if os.path.exists(path):
            os.unlink(path)
        return
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(b"".join(_line(r) for r in records))
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
