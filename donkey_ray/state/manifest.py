"""Per-partition lineage manifest + global stats (SURVEY.md B5, section 3.2.3).

The donkey analogue is the journal + index checkpoint ('sync') [PK,
src/ journal code — see SURVEY.md section 0]: donkey replays a WAL to
recover; we skip completed partitions by validating (manifest entry +
segment file + checksum). All writes are atomic (tmp + rename) so a
killed build never leaves a half-written segment that passes validation.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile


def _atomic_write(path: str, write) -> None:
    """``write(tmp)`` into a hidden tmp file beside ``path``, then rename
    it over ``path``; the tmp file never outlives a failed write."""
    d = os.path.dirname(path)
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def atomic_write_bytes(path: str, data: bytes) -> None:
    def write(tmp: str) -> None:
        with open(tmp, "wb") as f:
            f.write(data)

    _atomic_write(path, write)


def atomic_write_parquet(path: str, table, **write_kw) -> None:
    import pyarrow.parquet as pq

    _atomic_write(path, lambda tmp: pq.write_table(table, tmp, **write_kw))


def atomic_write_json(path: str, obj) -> None:
    atomic_write_bytes(path, json.dumps(obj, sort_keys=True, indent=1).encode())


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def segment_path(out_dir: str, part: int) -> str:
    return os.path.join(out_dir, "segments", f"part-{part:05d}.parquet")


def manifest_path(out_dir: str, part: int) -> str:
    return os.path.join(out_dir, "manifest", f"part-{part:05d}.json")


def meta_path(out_dir: str) -> str:
    return os.path.join(out_dir, "index_meta.json")


def write_partition_manifest(out_dir: str, entry: dict) -> None:
    atomic_write_json(manifest_path(out_dir, entry["part"]), entry)


def load_partition_manifest(out_dir: str, part: int) -> dict | None:
    p = manifest_path(out_dir, part)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def validated_done_parts(out_dir: str, num_partitions: int, verify_checksum: bool = True) -> dict[int, dict]:
    """Partitions whose segment file exists and matches its manifest entry.

    Returns {part: manifest_entry}. A manifest without its segment (or a
    checksum mismatch) does NOT count as done — it will be rebuilt.
    """
    done: dict[int, dict] = {}
    for part in range(num_partitions):
        entry = load_partition_manifest(out_dir, part)
        if entry is None:
            continue
        seg = segment_path(out_dir, part)
        if not os.path.exists(seg):
            continue
        if verify_checksum and file_sha256(seg) != entry.get("sha256"):
            continue
        done[part] = entry
    return done


def load_meta(out_dir: str) -> dict:
    with open(meta_path(out_dir)) as f:
        return json.load(f)


def write_meta(out_dir: str, meta: dict) -> None:
    atomic_write_json(meta_path(out_dir), meta)


def is_complete(out_dir: str) -> bool:
    return os.path.exists(os.path.join(out_dir, "_SUCCESS"))


def mark_complete(out_dir: str) -> None:
    atomic_write_bytes(os.path.join(out_dir, "_SUCCESS"), b"")


def built_segment_paths(out_dir: str, meta: dict, parts=None) -> list[str]:
    """Segment paths a reader of a complete index may serve from:
    the partitions among ``parts`` (default: all) that are in the meta's
    ``parts_built``. A partition outside that ledger had no rows (groupby
    writes no group for it) and is a legitimate empty list. A built
    partition whose segment is gone raises FileNotFoundError: serving the
    rest would be a wrong top-k with no symptom."""
    if not is_complete(out_dir):
        raise FileNotFoundError(f"index at {out_dir} is not complete")
    want = {int(p) for p in meta["parts_built"]}
    if parts is not None:
        want &= {int(p) for p in parts}
    paths = [segment_path(out_dir, p) for p in sorted(want)]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise FileNotFoundError(
            f"index {out_dir} is missing {len(missing)} built "
            f"segment(s): {missing[:3]}")
    return paths


class PartitionSegmentWriter:
    """map_groups callable: one hash partition's rows -> sorted,
    atomically-written (tmp + rename), manifest-tracked segment parquet.

    The SINGLE home of the atomic-write/manifest/resume invariant shared
    by the ANN index builders (IVF / PQ / IVF-PQ / k-NN graph) —
    parameterized over the partition column, sort keys, manifest count
    field and row-group size. Subclasses add artifact-specific manifest
    fields via ``extra_manifest_fields``. Returns a one-row
    (part, <count_field>) table (empty input -> empty table of the SAME
    schema, so downstream meta folds never KeyError)."""

    def __init__(self, out_dir: str, *, part_col: str = "part",
                 sort_keys=None, count_field: str = "n_vecs",
                 row_group_size: int = 4096,
                 name: str = "PartitionSegmentWriter") -> None:
        self.out_dir = out_dir
        self.part_col = part_col
        self.sort_keys = sort_keys or []
        self.count_field = count_field
        self.row_group_size = int(row_group_size)
        self.__name__ = name

    def extra_manifest_fields(self, seg) -> dict:
        return {}

    def __call__(self, group):
        import time

        import pyarrow as pa

        empty = pa.table({"part": pa.array([], pa.int32()),
                          self.count_field: pa.array([], pa.int64())})
        if group.num_rows == 0:
            return empty
        t0 = time.monotonic()
        part = int(group.column(self.part_col)[0].as_py())
        seg = group.drop_columns([self.part_col])
        if self.sort_keys:
            seg = seg.sort_by(self.sort_keys)
        path = segment_path(self.out_dir, part)
        atomic_write_parquet(path, seg, row_group_size=self.row_group_size,
                             compression="zstd")
        entry = {
            "part": part,
            self.count_field: seg.num_rows,
            **self.extra_manifest_fields(seg),
            "n_bytes": os.path.getsize(path),
            "sha256": file_sha256(path),
            "wall_s": round(time.monotonic() - t0, 4),
        }
        write_partition_manifest(self.out_dir, entry)
        return pa.table({
            "part": pa.array([part], pa.int32()),
            self.count_field: pa.array([seg.num_rows], pa.int64()),
        })
