"""Segment encoder: one hash-partition of postings -> on-disk segment
(SURVEY.md B13/B15/B17; donkey analogue [PK]: batch index build,
src/index-kgraph.cpp — see SURVEY.md section 0).

Runs as ``groupby('part').map_groups`` — each group is every posting whose
(possibly salted) term hash routes to this partition. Encoding is
deterministic (sorted (term, doc_id), fixed codec), the segment file name
is deterministic, and the write is atomic (tmp + rename), so task retries
and build resumes are exactly-once at the partition level.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import schemas
from ..functions.codec import (binary_runs, delta_encode_segments,
                               varbyte_encode_all)
from ..state import manifest as mf


def _empty_segment(positions: bool = False) -> tuple[pa.Table, dict]:
    cols = {
        "term": pa.array([], pa.string()),
        "df": pa.array([], pa.int64()),
        "doc_ids": pa.array([], pa.binary()),
        "tfs": pa.array([], pa.binary()),
        "dls": pa.array([], pa.binary()),
        "block_last_doc": pa.array([], pa.list_(pa.int64())),
        "block_max_tf": pa.array([], pa.list_(pa.int32())),
        "block_min_dl": pa.array([], pa.list_(pa.int32())),
        "block_doc_boff": pa.array([], pa.list_(pa.int64())),
        "block_tf_boff": pa.array([], pa.list_(pa.int64())),
        "block_dl_boff": pa.array([], pa.list_(pa.int64())),
    }
    if positions:
        cols["poss"] = pa.array([], pa.binary())
        cols["block_pos_boff"] = pa.array([], pa.list_(pa.int64()))
    return pa.table(cols), {"n_terms": 0, "n_postings": 0, "sum_tf": 0}


def term_codes(col: pa.Array | pa.ChunkedArray) -> tuple[pa.Array, np.ndarray]:
    """(sorted distinct terms, each row's int64 code into them) — what
    ``np.unique(terms, return_inverse=True)`` gives, without one Python
    string per row: dictionary-encode, sort the dictionary (UTF-8 byte
    order is code-point order), scatter the ranks."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    enc = col.dictionary_encode()
    order = pc.array_sort_indices(enc.dictionary).to_numpy()
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return enc.dictionary.take(order), rank[enc.indices.to_numpy()]


def block_starts(run_starts: np.ndarray, dfs: np.ndarray,
                 block_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(global index of every block's first posting, blocks per run): a
    block starts every ``block_size`` postings WITHIN each run."""
    nblk = -(-np.asarray(dfs, dtype=np.int64) // block_size)
    local = np.arange(nblk.sum()) - np.repeat(np.cumsum(nblk) - nblk, nblk)
    return np.repeat(run_starts, nblk) + local * block_size, nblk


def _lists(values: np.ndarray, counts: np.ndarray, typ) -> pa.Array:
    offs = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
    return pa.ListArray.from_arrays(pa.array(offs), pa.array(values, typ))


def encode_partition_arrays(
    uniq_terms: pa.Array,
    codes: np.ndarray,
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    block_size: int = schemas.BLOCK_SIZE,
    pos_cells: pa.Array | None = None,
) -> tuple[pa.Table, dict]:
    """Pure kernel: per-posting arrays (``codes`` into the sorted
    ``uniq_terms``, see ``term_codes``) -> (segment table, stats). Sorts
    by (term, doc_id); every column comes from whole-partition arrays:
    one varbyte pass per stream, block maxima by ``reduceat``, binary and
    list columns cut from one buffer by run and block offsets.

    ``pos_cells`` (optional): the per-posting Arrow binary
    varbyte(delta(positions)) cells of the positional extractor. Each
    cell is self-contained (delta resets per posting), so encoding =
    reordering + concatenation — no re-encode; per-block byte offsets
    make block decode lazy."""
    n = len(codes)
    if n == 0:
        return _empty_segment(positions=pos_cells is not None)
    order = np.lexsort((doc_ids, codes))
    codes = codes[order]
    doc_ids = doc_ids[order]
    tfs = tfs[order].astype(np.int64)
    dls = dls[order].astype(np.int64)
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    bounds = np.append(starts, n)
    # the doc-id delta stream resets at every block start so each block
    # is independently decodable (lazy WAND)
    blk, nblk = block_starts(starts, np.diff(bounds), block_size)
    blk_end = np.minimum(blk + block_size, np.repeat(bounds[1:], nblk))
    # each run's *_boff list: its block starts, then its end
    edges = np.insert(blk, np.cumsum(nblk), bounds[1:])
    base = np.repeat(starts, nblk + 1)
    doc_buf, doc_o = varbyte_encode_all(
        delta_encode_segments(doc_ids.astype(np.uint64), blk))
    tf_buf, tf_o = varbyte_encode_all(tfs.astype(np.uint64))
    dl_buf, dl_o = varbyte_encode_all(dls.astype(np.uint64))

    def boff(o: np.ndarray) -> pa.Array:
        return _lists(o[edges] - o[base], nblk + 1, pa.int64())

    cols = {
        "term": uniq_terms.take(pa.array(codes[starts])),
        "df": pa.array(np.diff(bounds), pa.int64()),
        "doc_ids": binary_runs(doc_buf, doc_o[bounds]),
        "tfs": binary_runs(tf_buf, tf_o[bounds]),
        "dls": binary_runs(dl_buf, dl_o[bounds]),
        "block_last_doc": _lists(doc_ids[blk_end - 1], nblk, pa.int64()),
        "block_max_tf": _lists(np.maximum.reduceat(tfs, blk), nblk,
                               pa.int32()),
        "block_min_dl": _lists(np.minimum.reduceat(dls, blk), nblk,
                               pa.int32()),
        "block_doc_boff": boff(doc_o),
        "block_tf_boff": boff(tf_o),
        "block_dl_boff": boff(dl_o),
    }
    if pos_cells is not None:
        cells = pos_cells.take(pa.array(order))
        pos_o = np.frombuffer(cells.buffers()[1], np.int32)[
            cells.offset: cells.offset + n + 1]
        cols["poss"] = binary_runs(cells.buffers()[2], pos_o[bounds])
        cols["block_pos_boff"] = boff(pos_o.astype(np.int64))
    stats = {"n_terms": len(starts), "n_postings": int(n),
             "sum_tf": int(tfs.sum())}
    return pa.table(cols), stats


def encode_partition_table(group: pa.Table, block_size: int = schemas.BLOCK_SIZE) -> tuple[pa.Table, dict]:
    """Raw posting rows (term, doc_id, tf, dl[, pos][, part]) -> segment
    (build, merge_indexes); delegates to the array core."""
    uniq, codes = term_codes(group.column("term"))

    def ints(c: str) -> np.ndarray:
        return group.column(c).to_numpy(zero_copy_only=False).astype(np.int64)

    return encode_partition_arrays(
        uniq, codes, ints("doc_id"), ints("tf"), ints("dl"), block_size,
        pos_cells=(group.column("pos").combine_chunks()
                   if "pos" in group.column_names else None))


class SegmentWriter:
    """map_groups callable: write one partition's segment + manifest entry.

    Returns the manifest entry as a 1-row table (collected by the driver
    into the global manifest/stats)."""

    def __init__(self, out_dir: str, block_size: int = schemas.BLOCK_SIZE) -> None:
        self.out_dir = out_dir
        self.block_size = block_size
        self.__name__ = "SegmentWriter"  # map_groups wraps fn and reads this

    def __call__(self, group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            # full manifest schema so empty blocks match non-empty ones
            # (a mixed-schema RefBundle makes Ray Data warn loudly)
            return pa.table({
                "part": pa.array([], pa.int32()),
                "n_terms": pa.array([], pa.int64()),
                "n_postings": pa.array([], pa.int64()),
                "sum_tf": pa.array([], pa.int64()),
                "n_bytes": pa.array([], pa.int64()),
                "sha256": pa.array([], pa.string()),
                "wall_s": pa.array([], pa.float64()),
            })
        t0 = time.monotonic()
        part = int(group.column("part")[0].as_py())
        seg, stats = encode_partition_table(group, self.block_size)
        seg_path = mf.segment_path(self.out_dir, part)
        # 1024 terms/row-group: the serving shard (_SegmentShard) prunes
        # term lookups to one row group via min/max stats, so smaller
        # groups = finer dictionary pruning + cheaper on-hit fetch
        mf.atomic_write_parquet(seg_path, seg, row_group_size=1024,
                                compression="zstd")
        entry = {
            "part": part,
            "n_terms": stats["n_terms"],
            "n_postings": stats["n_postings"],
            "sum_tf": stats["sum_tf"],
            "n_bytes": os.path.getsize(seg_path),
            "sha256": mf.file_sha256(seg_path),
            "wall_s": round(time.monotonic() - t0, 4),
        }
        mf.write_partition_manifest(self.out_dir, entry)
        return pa.table(
            {
                "part": pa.array([entry["part"]], pa.int32()),
                "n_terms": pa.array([entry["n_terms"]], pa.int64()),
                "n_postings": pa.array([entry["n_postings"]], pa.int64()),
                "sum_tf": pa.array([entry["sum_tf"]], pa.int64()),
                "n_bytes": pa.array([entry["n_bytes"]], pa.int64()),
                "sha256": pa.array([entry["sha256"]], pa.string()),
                "wall_s": pa.array([entry["wall_s"]], pa.float64()),
            }
        )
