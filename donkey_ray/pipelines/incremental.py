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
   rows, route them by the build's rule (hot terms salted under the
   members' union hot set) and hand them to the build's writer
   (``build.write_index``) — one all-to-all over the union, producing a
   single fresh index.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import ray
import ray.data

from ..functions.codec import binary_runs, varbyte_decode
from ..sources.corpus import read_block_count
from ..stages.encode import block_starts
from ..state import manifest as mf
from .. import schemas


def segments_as_postings(index_dir: str) -> ray.data.Dataset:
    """Decode an index's segments back into exploded posting rows
    (term, doc_id, tf, dl[, pos]) — the inverse of the segment encoder.

    For a POSITIONAL index the per-posting ``pos`` cell (self-contained
    varbyte(delta(token positions)) — the stream resets at every posting)
    is recovered by splitting the ``poss`` bytes at varbyte terminal-byte
    boundaries, without decoding the values."""
    meta = mf.load_meta(index_dir)
    positional = bool(meta.get("positions"))
    block_size = int(meta.get("block_size", schemas.BLOCK_SIZE))
    paths = mf.built_segment_paths(index_dir, meta)
    ds = ray.data.read_parquet(paths,
                               override_num_blocks=read_block_count(paths))

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
        blk_starts, _ = block_starts(np.cumsum(dfs) - dfs, dfs, block_size)
        deltas = varbyte_decode(b"".join(batch.column("doc_ids").to_pylist()))
        c = np.cumsum(deltas, dtype=np.uint64)
        prefix = c[blk_starts] - deltas[blk_starts]
        blk_bounds = np.concatenate((blk_starts, [total]))
        blk_lens = np.diff(blk_bounds)
        doc_ids = (c - np.repeat(prefix, blk_lens)).astype(np.int64)
        tfs = varbyte_decode(b"".join(batch.column("tfs").to_pylist()))
        dls = varbyte_decode(b"".join(batch.column("dls").to_pylist()))
        out = {
            "term": batch.column("term").take(
                pa.array(np.repeat(np.arange(batch.num_rows), dfs))),
            "doc_id": pa.array(doc_ids, pa.int64()),
            "tf": pa.array(tfs.astype(np.int32), pa.int32()),
            "dl": pa.array(dls.astype(np.int32), pa.int32()),
        }
        if positional:
            # each run's poss = its postings' cells, tf values per cell;
            # terminal byte = high bit clear -> value boundaries
            buf = b"".join(batch.column("poss").to_pylist())
            ends = np.flatnonzero(np.frombuffer(buf, np.uint8) < 0x80) + 1
            val_bounds = np.concatenate(([0], ends))
            out["pos"] = binary_runs(buf, val_bounds[np.concatenate(
                ([0], np.cumsum(tfs, dtype=np.int64)))])
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

    Posting rows are routed by the build's rule
    (``functions.hashing.partition_column``) under the union of the
    members' hot sets, which the merged meta records: a hot term stays
    salted across ``num_partitions``, in exactly the partitions the
    query engine reads for it.

    ``exclude_doc_ids`` drops those docs' postings and docs-table rows
    during the re-encode (tombstone resolution — serve.IndexServer's
    delete path). ``keep_shard=(s, K)`` keeps ONLY docs with
    doc_id % K == s — the reshard primitive (serve.reshard): the same
    modulo routing rule ShardedWriter uses, applied at the postings
    level, so K calls produce a disjoint exact cover of the input.
    Without a filter the global stats are the members' sums; with one
    they are recomputed by ``build.write_index`` from the filtered docs
    table and the surviving postings — no extra shuffle."""
    import numpy as np
    import pyarrow.compute as pc

    from .build import copy_docs, route_postings, write_index

    metas = [mf.load_meta(d) for d in index_dirs]
    positional = {bool(m.get("positions")) for m in metas}
    if len(positional) > 1:
        raise ValueError(
            "cannot merge positional and non-positional indexes: "
            "the merged index would silently lose phrase/proximity support"
        )
    # the analyzer is part of the segment CONTENT (index-side terms were
    # produced by it): merging mixed analyzers would interleave stemmed
    # and unstemmed postings, and dropping the field would make later
    # delta flushes tokenize differently from the base (review finding)
    analyzers = {m.get("analyzer_lang") for m in metas}
    if len(analyzers) > 1:
        raise ValueError(
            f"cannot merge indexes built under different analyzers: "
            f"{sorted(map(str, analyzers))}")
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

    # docs tables travel along (hydration joins keep working), through
    # the SAME keep rule as the postings, so docs and postings align
    wrote_docs = copy_docs(index_dirs, out_dir, row_filter)
    if row_filter is not None and not wrote_docs:
        raise ValueError(
            "exclude_doc_ids / keep_shard requires docs tables to "
            "recompute n_docs"
        )
    hot_terms = sorted({t for m in metas for t in m.get("hot_terms", [])})
    salt_bits = metas[0].get("salt_bits", 4)
    return write_index(
        route_postings(union, num_partitions, hot_terms, salt_bits),
        out_dir, num_partitions=num_partitions, hot_terms=hot_terms,
        salt_bits=salt_bits, query_lang=metas[0].get("query_lang"),
        analyzer_lang=analyzers.pop(), id_col=metas[0].get("id_col"),
        positions=positional.pop(),
        stats=None if row_filter is not None else (
            sum(m["n_docs"] for m in metas),
            sum(m["total_len"] for m in metas)),
        merged_from=[os.path.abspath(d) for d in index_dirs],
        # job identity for filtered merges (serve.reshard resume check):
        # a completed dir is only adoptable by the SAME job
        keep_shard=list(keep_shard) if keep_shard else None,
        exclude_sha=hashlib.sha256(
            ",".join(map(str, sorted(exclude_doc_ids or []))).encode()
        ).hexdigest()[:16],
    )
