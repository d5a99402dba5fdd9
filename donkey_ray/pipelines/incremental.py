"""Incremental index builds (SURVEY.md B17/B23; donkey analogue [PK]:
online insert + reindex 'misc' calls, src/donkey.cpp — SURVEY.md
section 0, re-grounded as batch delta-index builds).

Model: each batch of new documents becomes its own complete index
(segment set + stats). PRECONDITION for both paths below: the indexes
cover DISJOINT doc_id sets (they are deltas of one corpus); overlapping
docs would double-count their postings. Two consumption paths:

1. FEDERATED QUERY (cheap, no data movement): QueryEngine accepts a list
   of index dirs — runs of the same term across indexes are extra
   disjoint posting iterators; global stats (N, total_len -> avgdl) and
   per-term df are summed. This is exact BM25 over the union corpus.

2. COMPACTION (``merge_indexes``): decode every segment back to posting
   rows and push them through the standard partition+encode shuffle —
   one all-to-all over the union, producing a single fresh index.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import ray
import ray.data

from ..functions.codec import varbyte_decode
from ..state import manifest as mf
from .. import schemas


def segments_as_postings(index_dir: str) -> ray.data.Dataset:
    """Decode an index's segments back into exploded posting rows
    (term, doc_id, tf, dl[, pos]) — the inverse of the segment encoder.

    For a POSITIONAL index the per-posting ``pos`` cell (self-contained
    varbyte(delta(token positions)) — the stream resets at every posting)
    is recovered by splitting each run's ``poss`` bytes at varbyte
    terminal-byte boundaries, without decoding the values."""
    meta = mf.load_meta(index_dir)
    positional = bool(meta.get("positions"))
    block_size = int(meta.get("block_size", schemas.BLOCK_SIZE))
    paths = [
        mf.segment_path(index_dir, p)
        for p in meta["parts_built"]
        if os.path.exists(mf.segment_path(index_dir, p))
    ]
    ds = ray.data.read_parquet(paths)

    def decode(batch: pa.Table) -> pa.Table:
        """Vectorized batch decode: ONE varbyte pass per stream for every
        run in the batch; doc-id deltas re-based at each block start,
        where the segment encoder resets the delta stream
        (stages.encode.encode_partition_arrays)."""
        import numpy as np

        cols = {"term": pa.array([], pa.string()),
                "doc_id": pa.array([], pa.int64()),
                "tf": pa.array([], pa.int32()),
                "dl": pa.array([], pa.int32())}
        if positional:
            cols["pos"] = pa.array([], pa.binary())
        empty = pa.table(cols)
        if batch.num_rows == 0:
            return empty
        dfs = batch.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        total = int(dfs.sum())
        if total == 0:
            return empty
        run_starts = np.concatenate(([0], np.cumsum(dfs)))[:-1]
        # block starts: every block_size postings WITHIN each run
        blk_starts = np.concatenate(
            [rs + np.arange(0, n, block_size, dtype=np.int64)
             for rs, n in zip(run_starts, dfs) if n > 0]
        )
        deltas = varbyte_decode(b"".join(batch.column("doc_ids").to_pylist()))
        c = np.cumsum(deltas, dtype=np.uint64)
        prefix = c[blk_starts] - deltas[blk_starts]
        blk_bounds = np.concatenate((blk_starts, [total]))
        blk_lens = np.diff(blk_bounds)
        doc_ids = (c - np.repeat(prefix, blk_lens)).astype(np.int64)
        tfs = varbyte_decode(b"".join(batch.column("tfs").to_pylist()))
        dls = varbyte_decode(b"".join(batch.column("dls").to_pylist()))
        terms = batch.column("term").to_numpy(zero_copy_only=False)
        out = {
            "term": pa.array(np.repeat(terms, dfs), pa.string()),
            "doc_id": pa.array(doc_ids, pa.int64()),
            "tf": pa.array(tfs.astype(np.int32), pa.int32()),
            "dl": pa.array(dls.astype(np.int32), pa.int32()),
        }
        if positional:
            cells: list[bytes] = []
            tf_bounds = np.concatenate(([0], np.cumsum(tfs, dtype=np.int64)))
            i = 0
            for buf, n_post in zip(batch.column("poss").to_pylist(), dfs):
                b = np.frombuffer(buf, dtype=np.uint8)
                # terminal byte = high bit clear -> value boundaries
                val_bounds = np.concatenate(
                    ([0], np.flatnonzero((b & 0x80) == 0) + 1)
                )
                post_bounds = val_bounds[
                    tf_bounds[i: i + n_post + 1] - tf_bounds[i]
                ]
                cells.extend(
                    buf[post_bounds[j]: post_bounds[j + 1]]
                    for j in range(n_post)
                )
                i += n_post
            out["pos"] = pa.array(cells, pa.binary())
        return pa.table(out)

    return ds.map_batches(decode, batch_format="pyarrow", zero_copy_batch=True)


def merge_indexes(
    index_dirs: list[str],
    out_dir: str,
    *,
    num_partitions: int = 16,
    exclude_doc_ids: "set[int] | frozenset[int] | None" = None,
    keep_shard: "tuple[int, int] | None" = None,
) -> dict:
    """Compact several indexes into one fresh index at out_dir.

    ``exclude_doc_ids`` drops those docs' postings and docs-table rows
    during the re-encode (tombstone resolution — serve.IndexServer's
    delete path). ``keep_shard=(s, K)`` keeps ONLY docs with
    doc_id % K == s — the reshard primitive (serve.reshard): the same
    modulo routing rule ShardedWriter uses, applied at the postings
    level, so K calls produce a disjoint exact cover of the input.
    Global stats are recomputed exactly when any filter is active:
    total_len from the surviving partitions' sum_tf (Σ tf over a doc's
    postings = its dl, so Σ tf over all surviving postings = surviving
    total_len) and n_docs from the filtered docs table's row count — no
    extra shuffle."""
    import numpy as np
    import pyarrow.compute as pc

    from ..functions.hashing import stable_term_hash
    from ..stages.encode import SegmentWriter

    metas = [mf.load_meta(d) for d in index_dirs]
    positional = {bool(m.get("positions")) for m in metas}
    if len(positional) > 1:
        raise ValueError(
            "cannot merge positional and non-positional indexes: "
            "the merged index would silently lose phrase/proximity support"
        )
    positional = positional.pop()
    # the analyzer is part of the segment CONTENT (index-side terms were
    # produced by it): merging mixed analyzers would interleave stemmed
    # and unstemmed postings, and dropping the field would make later
    # delta flushes tokenize differently from the base (review finding)
    analyzers = {m.get("analyzer_lang") for m in metas}
    if len(analyzers) > 1:
        raise ValueError(
            f"cannot merge indexes built under different analyzers: "
            f"{sorted(map(str, analyzers))}")
    analyzer_lang = analyzers.pop()
    union = None
    for d in index_dirs:
        part = segments_as_postings(d)
        union = part if union is None else union.union(part)

    excl = (
        pa.array(sorted(exclude_doc_ids), pa.int64())
        if exclude_doc_ids
        else None
    )
    row_filter = None
    if excl is not None or keep_shard is not None:
        def row_filter(batch: pa.Table) -> pa.Table:  # noqa: F811
            keep = None
            if excl is not None:
                keep = pc.invert(
                    pc.is_in(batch.column("doc_id"), value_set=excl))
            if keep_shard is not None:
                s, k = keep_shard
                ids = batch.column("doc_id").to_numpy(
                    zero_copy_only=False).astype(np.int64)
                m = pa.array(ids % k == s)
                keep = m if keep is None else pc.and_(keep, m)
            return batch.filter(keep)

        union = union.map_batches(
            row_filter, batch_format="pyarrow", zero_copy_batch=True
        )

    def add_part(batch: pa.Table) -> pa.Table:
        terms = batch.column("term").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(terms, return_inverse=True)
        base = np.fromiter(
            (stable_term_hash(str(t)) % num_partitions for t in uniq),
            dtype=np.int32, count=len(uniq),
        )
        return batch.append_column("part", pa.array(base[inv], pa.int32()))

    os.makedirs(out_dir, exist_ok=True)
    manifest_rows = (
        union.map_batches(add_part, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("part")
        .map_groups(SegmentWriter(out_dir), batch_format="pyarrow")
    )
    entries = {int(r["part"]): r for r in manifest_rows.take_all()}

    # docs tables travel along (hydration joins keep working); with
    # excludes, tombstoned docs are filtered out here too
    import glob as _glob

    docs_paths = [
        f
        for d in index_dirs
        for f in sorted(_glob.glob(os.path.join(d, "docs", "*.parquet")))
    ]
    wrote_docs = False
    if docs_paths:
        docs_ds = ray.data.read_parquet(docs_paths)
        if row_filter is not None:
            # the SAME keep rule as the postings pass (tombstones and/or
            # the reshard modulo), so docs and postings stay aligned
            docs_ds = docs_ds.map_batches(
                row_filter, batch_format="pyarrow", zero_copy_batch=True
            )
        os.makedirs(out_dir, exist_ok=True)
        # write_parquet APPENDS uuid-named files: a crashed merge
        # re-run into the same out_dir would otherwise double every
        # docs row (n_docs up, avgdl down — silently wrong scores)
        import shutil as _shutil

        _shutil.rmtree(os.path.join(out_dir, "docs"), ignore_errors=True)
        docs_ds.write_parquet(os.path.join(out_dir, "docs"))
        mf.atomic_write_bytes(os.path.join(out_dir, "_DOCS_SUCCESS"), b"")
        wrote_docs = True

    if row_filter is None:
        n_docs = sum(m["n_docs"] for m in metas)
        total_len = sum(m["total_len"] for m in metas)
    else:
        if not wrote_docs:
            raise ValueError(
                "exclude_doc_ids / keep_shard requires docs tables to "
                "recompute n_docs"
            )
        import pyarrow.dataset as pads

        n_docs = pads.dataset(os.path.join(out_dir, "docs")).count_rows()
        total_len = int(sum(e["sum_tf"] for e in entries.values()))
    from .build import compute_lang_stats

    meta = {
        "format_version": 3,
        "block_size": schemas.BLOCK_SIZE,
        "n_docs": n_docs,
        "total_len": total_len,
        "lang_stats": compute_lang_stats(out_dir) if wrote_docs else {},
        "n_postings": int(sum(e["n_postings"] for e in entries.values())),
        "avgdl": total_len / n_docs if n_docs else 0.0,
        "num_partitions": num_partitions,
        "parts_built": sorted(entries),
        "parts_skipped_on_resume": [],
        "salt_bits": metas[0].get("salt_bits", 4),
        "hot_terms": sorted({t for m in metas for t in m.get("hot_terms", [])}),
        "query_lang": metas[0].get("query_lang", "simple"),
        "analyzer_lang": analyzer_lang,
        "id_col": metas[0].get("id_col"),
        "positions": positional,
        "merged_from": [os.path.abspath(d) for d in index_dirs],
        # job identity for filtered merges (serve.reshard resume check):
        # a completed dir is only adoptable by the SAME job
        "keep_shard": list(keep_shard) if keep_shard else None,
        "exclude_sha": hashlib.sha256(
            ",".join(map(str, sorted(exclude_doc_ids or []))).encode()
        ).hexdigest()[:16],
    }
    mf.write_meta(out_dir, meta)
    mf.mark_complete(out_dir)
    return meta
