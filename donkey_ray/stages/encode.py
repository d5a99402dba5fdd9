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

from .. import schemas
from ..functions.codec import delta_encode_segments, varbyte_encode_all
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


def encode_partition_arrays(
    uniq_terms: np.ndarray,
    codes: np.ndarray,
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    dls: np.ndarray,
    block_size: int = schemas.BLOCK_SIZE,
    pos_cells: np.ndarray | None = None,
) -> tuple[pa.Table, dict]:
    """Pure kernel: per-posting arrays (term codes into sorted uniq_terms)
    -> (segment table, stats). Sorts by (term, doc_id).

    ``pos_cells`` (optional): per-posting varbyte(delta(positions)) byte
    cells from the positional extractor. Each cell is self-contained
    (delta resets per posting), so encoding = reordering + concatenation —
    no re-encode; per-block byte offsets make block decode lazy."""
    order = np.lexsort((doc_ids, codes))
    codes_s = codes[order]
    terms = uniq_terms  # sorted ascending by np.unique (ASCII == utf8 order)
    doc_ids = doc_ids[order]
    tfs = tfs[order].astype(np.int64)
    dls = dls[order].astype(np.int64)
    if pos_cells is not None:
        pos_cells = np.asarray(pos_cells, dtype=object)[order]
        cell_offs = np.zeros(len(pos_cells) + 1, dtype=np.int64)
        np.cumsum(
            np.fromiter((len(c) for c in pos_cells), dtype=np.int64,
                        count=len(pos_cells)),
            out=cell_offs[1:],
        )

    n = len(codes_s)
    if n == 0:
        return _empty_segment(positions=pos_cells is not None)

    starts = np.concatenate(([0], np.flatnonzero(codes_s[1:] != codes_s[:-1]) + 1))
    ends = np.concatenate((starts[1:], [n]))

    out_terms = [str(t) for t in terms[codes_s[starts]]]
    out_df = (ends - starts).tolist()
    # global block starts: every block_size postings WITHIN each run; the
    # doc-id delta stream resets at every block start so each block is
    # independently decodable (lazy WAND)
    blk_starts_per_run = [
        s + np.arange(0, e - s, block_size, dtype=np.int64)
        for s, e in zip(starts, ends)
    ]
    all_blk_starts = np.concatenate(blk_starts_per_run)
    # one vectorized codec pass over ALL runs per stream (hot path)
    doc_buf, doc_offs = varbyte_encode_all(
        delta_encode_segments(doc_ids.astype(np.uint64), all_blk_starts)
    )
    tf_buf, tf_offs = varbyte_encode_all(tfs.astype(np.uint64))
    dl_buf, dl_offs = varbyte_encode_all(dls.astype(np.uint64))

    out_docs: list[bytes] = []
    out_tfs: list[bytes] = []
    out_dls: list[bytes] = []
    out_poss: list[bytes] = []
    out_bld: list[list[int]] = []
    out_bmt: list[list[int]] = []
    out_bmd: list[list[int]] = []
    out_doc_boff: list[list[int]] = []
    out_tf_boff: list[list[int]] = []
    out_dl_boff: list[list[int]] = []
    out_pos_boff: list[list[int]] = []
    for (s, e), bstarts in zip(zip(starts, ends), blk_starts_per_run):
        ids = doc_ids[s:e]
        tf = tfs[s:e]
        dl = dls[s:e]
        rel = bstarts - s
        bends = np.minimum(rel + block_size, e - s)
        out_docs.append(doc_buf[doc_offs[s]: doc_offs[e]])
        out_tfs.append(tf_buf[tf_offs[s]: tf_offs[e]])
        out_dls.append(dl_buf[dl_offs[s]: dl_offs[e]])
        out_bld.append(ids[bends - 1].tolist())
        out_bmt.append(np.maximum.reduceat(tf, rel).astype(np.int32).tolist())
        out_bmd.append(np.minimum.reduceat(dl, rel).astype(np.int32).tolist())
        bounds = np.append(bstarts, e)
        out_doc_boff.append((doc_offs[bounds] - doc_offs[s]).tolist())
        out_tf_boff.append((tf_offs[bounds] - tf_offs[s]).tolist())
        out_dl_boff.append((dl_offs[bounds] - dl_offs[s]).tolist())
        if pos_cells is not None:
            out_poss.append(b"".join(pos_cells[s:e]))
            out_pos_boff.append((cell_offs[bounds] - cell_offs[s]).tolist())

    cols = {
        "term": pa.array(out_terms, pa.string()),
        "df": pa.array(out_df, pa.int64()),
        "doc_ids": pa.array(out_docs, pa.binary()),
        "tfs": pa.array(out_tfs, pa.binary()),
        "dls": pa.array(out_dls, pa.binary()),
        "block_last_doc": pa.array(out_bld, pa.list_(pa.int64())),
        "block_max_tf": pa.array(out_bmt, pa.list_(pa.int32())),
        "block_min_dl": pa.array(out_bmd, pa.list_(pa.int32())),
        "block_doc_boff": pa.array(out_doc_boff, pa.list_(pa.int64())),
        "block_tf_boff": pa.array(out_tf_boff, pa.list_(pa.int64())),
        "block_dl_boff": pa.array(out_dl_boff, pa.list_(pa.int64())),
    }
    if pos_cells is not None:
        cols["poss"] = pa.array(out_poss, pa.binary())
        cols["block_pos_boff"] = pa.array(out_pos_boff, pa.list_(pa.int64()))
    seg = pa.table(cols)
    stats = {
        "n_terms": len(out_terms),
        "n_postings": int(n),
        "sum_tf": int(tfs.sum()),
    }
    return seg, stats


def encode_partition_table(group: pa.Table, block_size: int = schemas.BLOCK_SIZE) -> tuple[pa.Table, dict]:
    """Raw posting rows (term, doc_id, tf, dl[, pos][, part]) -> segment
    (build, merge_indexes); delegates to the array core."""
    has_pos = "pos" in group.column_names
    if group.num_rows == 0:
        return _empty_segment(positions=has_pos)
    terms = group.column("term").to_numpy(zero_copy_only=False)
    uniq, codes = np.unique(terms, return_inverse=True)
    return encode_partition_arrays(
        uniq,
        codes.astype(np.int64),
        group.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64),
        group.column("tf").to_numpy(zero_copy_only=False).astype(np.int64),
        group.column("dl").to_numpy(zero_copy_only=False).astype(np.int64),
        block_size,
        pos_cells=(
            group.column("pos").to_numpy(zero_copy_only=False) if has_pos else None
        ),
    )


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
