"""IVF (inverted-file) ANN index over an embedding column (donkey
analogue [PK]: the persisted kgraph ANN index artifact built in
src/index-kgraph.cpp — file-level, SURVEY.md section 0 — re-grounded as
a partitioned, persisted, RESUMABLE centroid index with the same
manifest treatment as the text index).

Layout:
  out/centroids.parquet           spherical k-means centroids (list_id,
                                  centroid) — small, broadcastable
  out/segments/part-%05d.parquet  (list_id, vec_id, embedding) rows of
                                  the lists owned by this partition,
                                  sorted by (list_id, vec_id)
  out/manifest/part-%05d.json     per-partition lineage (counts, sha256)
  out/index_meta.json, out/_SUCCESS

Partitioning: part = list_id % num_partitions, so a query probing
``nprobe`` lists touches at most ``nprobe`` partitions. ``nprobe =
n_lists`` scans everything and is EXACT brute-force cosine — the driver
gates that configuration against the same DuckDB oracle as plain
ann_topk; smaller nprobe trades recall for I/O (recall gated in pytest).

Scale shape: centroids are trained on a deterministic hash-sample
(driver-side numpy — sample size is fixed, independent of corpus size),
assignment is one embarrassingly-parallel map, and the only exchange is
the keyed list->partition groupby. Every query reads through one
``IVFReader``: it reads only the partitions owning probed lists and
keeps each one it read resident as a normalized matrix, up to
PART_CACHE_BYTES per reader (least recently used evicted first). A
full-probe reader therefore holds the whole vector set when it fits
that budget, and re-reads partitions when it does not.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..functions.hashing import deterministic_sample_mask
from ..functions.scoring import group_ranks, topk_order
from ..state import manifest as mf
from ..util import _LRU, dataset_to_table
from .ann import _batch_matrix, _normalize, clamp_nprobe

FORMAT_VERSION = 1
MAX_TRAIN_SAMPLE = 65_536


def _spherical_kmeans(sample: np.ndarray, n_lists: int, *, iters: int = 10,
                      seed: int = 42) -> np.ndarray:
    """Deterministic spherical k-means (cosine) on a normalized sample."""
    m = _normalize(np.asarray(sample, dtype=np.float64))
    rng = np.random.default_rng(seed)
    n = len(m)
    k = min(n_lists, n)
    cent = m[rng.choice(n, size=k, replace=False)]
    for _ in range(iters):
        assign = np.argmax(m @ cent.T, axis=1)
        for j in range(k):
            sel = m[assign == j]
            if len(sel):
                cent[j] = sel.sum(axis=0)
        cent = _normalize(cent)
    # stable order: centroids sorted by first dimension then id-free tie
    order = np.lexsort(tuple(cent[:, d] for d in range(cent.shape[1] - 1, -1, -1)))
    return cent[order]


class _IVFPartWriter(mf.PartitionSegmentWriter):
    """One partition's (list_id, vec_id, embedding) rows -> sorted
    segment parquet + manifest entry (shared atomic/resumable writer,
    plus the per-partition n_lists manifest field)."""

    def __init__(self, out_dir: str) -> None:
        super().__init__(
            out_dir, part_col="part",
            sort_keys=[("list_id", "ascending"), ("vec_id", "ascending")],
            count_field="n_vecs", row_group_size=1024,
            name="IVFPartWriter")

    def extra_manifest_fields(self, seg: pa.Table) -> dict:
        return {"n_lists": len(np.unique(
            seg.column("list_id").to_numpy(zero_copy_only=False)))}


def build_ivf_index(
    ds: ray.data.Dataset,
    out_dir: str,
    *,
    n_lists: int = 16,
    num_partitions: int = 8,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    sample_mod: int = 4,
    kmeans_iters: int = 10,
) -> dict:
    """Build (or resume) the IVF index at ``out_dir``. Returns meta."""
    if mf.is_complete(out_dir):
        return mf.load_meta(out_dir)
    os.makedirs(out_dir, exist_ok=True)

    # ---- centroid training: deterministic hash-sample, capped ----
    cent_path = os.path.join(out_dir, "centroids.parquet")
    if not os.path.exists(cent_path):
        def take_sample(batch: pa.Table) -> pa.Table:
            ids = batch.column(id_col).to_numpy(zero_copy_only=False)
            return batch.filter(pa.array(deterministic_sample_mask(ids, sample_mod)))

        sample_tbl = dataset_to_table(
            ds.map_batches(take_sample, batch_format="pyarrow",
                           zero_copy_batch=True)
        )
        if sample_tbl.num_rows == 0:
            sample_tbl = dataset_to_table(ds)  # tiny input: train on all
        if sample_tbl.num_rows > MAX_TRAIN_SAMPLE:
            sample_tbl = sample_tbl.slice(0, MAX_TRAIN_SAMPLE)
        cent = _spherical_kmeans(
            _batch_matrix(sample_tbl, vec_col), n_lists, iters=kmeans_iters
        )
        mf.atomic_write_parquet(
            cent_path,
            pa.table(
                {"list_id": pa.array(range(len(cent)), pa.int32()),
                 "centroid": pa.array(cent.tolist(), pa.list_(pa.float64()))}
            ),
        )
    cent_tbl = pq.read_table(cent_path)
    centroids = _batch_matrix(cent_tbl, "centroid")
    k = len(centroids)
    cent_ref = ray.put(centroids)

    # ---- assignment + keyed list->partition exchange (resumable) ----
    done = mf.validated_done_parts(out_dir, num_partitions)
    skipped = sorted(done)
    if len(done) < num_partitions:
        done_arr = np.array(sorted(done), dtype=np.int32)

        def assign(batch: pa.Table) -> pa.Table:
            c = ray.get(cent_ref)
            m = _normalize(_batch_matrix(batch, vec_col))
            lists = np.argmax(m @ c.T, axis=1).astype(np.int32)
            part = (lists % num_partitions).astype(np.int32)
            out = pa.table(
                {
                    "list_id": pa.array(lists, pa.int32()),
                    "vec_id": batch.column(id_col).cast(pa.int64()),
                    "embedding": batch.column(vec_col),
                    "part": pa.array(part, pa.int32()),
                }
            )
            if len(done_arr):
                keep = ~np.isin(part, done_arr)
                out = out.filter(pa.array(keep))
            return out

        rows = ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
        entries = rows.groupby("part").map_groups(
            _IVFPartWriter(out_dir), batch_format="pyarrow"
        )
        new_entries = {int(r["part"]): r for r in entries.take_all()}
    else:
        new_entries = {}

    all_entries = {**done, **new_entries}
    meta = {
        "format_version": FORMAT_VERSION,
        "kind": "ivf_cosine",
        "n_lists": int(k),
        "dim": int(centroids.shape[1]),
        "num_partitions": num_partitions,
        "n_vecs": int(sum(e["n_vecs"] for e in all_entries.values())),
        "parts_built": sorted(int(p) for p in all_entries),
        "parts_skipped_on_resume": skipped,
        "sample_mod": sample_mod,
        "id_col": id_col,
    }
    mf.write_meta(out_dir, meta)
    mf.mark_complete(out_dir)
    return meta


# bytes of normalized partitions one IVFReader keeps resident
PART_CACHE_BYTES = 1 << 30


class IVFReader:
    """The one IVF read path, behind ``ivf_topk``, the kNN-eval prober
    and ``VectorServer``. Holds the meta and the centroids; each
    partition it reads is cached as (list_id, vec_id, normalized
    matrix) in an ``_LRU`` of at most PART_CACHE_BYTES, so a warm
    reader neither re-reads nor re-normalizes a segment. Every
    partition is found through ``mf.built_segment_paths``: a lost built
    segment raises FileNotFoundError instead of answering without it."""

    def __init__(self, index_dir: str) -> None:
        self.index_dir = index_dir
        self.meta = mf.load_meta(index_dir)
        self.centroids = _batch_matrix(
            pq.read_table(os.path.join(index_dir, "centroids.parquet")),
            "centroid")
        self._parts = _LRU(PART_CACHE_BYTES,
                           size=lambda e: sum(a.nbytes for a in e))

    def _read_part(self, part: int) -> tuple:
        paths = mf.built_segment_paths(self.index_dir, self.meta, [part])
        if not paths:  # an unbuilt partition is an empty list
            return (np.zeros(0, np.int32), np.zeros(0, np.int64),
                    np.zeros((0, self.centroids.shape[1])))
        t = pq.read_table(paths[0], columns=["list_id", "vec_id", "embedding"])
        return (t.column("list_id").to_numpy(zero_copy_only=False),
                t.column("vec_id").to_numpy(
                    zero_copy_only=False).astype(np.int64),
                _normalize(_batch_matrix(t, "embedding")))

    def topk(self, query_vectors: np.ndarray, k: int,
             nprobe: int | None = None, exclude: np.ndarray | None = None):
        """Cosine top-k of each query over its ``nprobe`` nearest lists
        (None: every list, which is exact brute force), tie-break (cos
        desc, vec_id asc). ``exclude`` holds one vec_id per query that
        its own answer leaves out (the kNN eval's leave-one-out).

        Part-outer, query-inner: each probed partition is scored for the
        whole batch in one matmul and every query folds that part's
        top-k into its running top-k. Returns flat (query index, vec_id,
        cos_sim) arrays, grouped by query in rank order."""
        q = _normalize(np.asarray(query_vectors, dtype=np.float64))
        n_lists = len(self.centroids)
        nprobe = clamp_nprobe(nprobe, n_lists)
        P = int(self.meta["num_partitions"])
        full = nprobe >= n_lists
        if full:
            # every query probes every list: no per-query list mask,
            # the excluded id is the only per-query state
            probe, parts = None, range(P)
        else:
            probe = np.argsort(-(q @ self.centroids.T), axis=1)[:, :nprobe]
            parts = np.unique(np.unique(probe) % P).tolist()
        empty = (np.zeros(0, np.int64), np.zeros(0))
        best = [empty] * len(q)
        for part in parts:
            lists, ids, m = self._parts.load(
                part, lambda: self._read_part(part))
            if not len(ids):
                continue
            sims_all = m @ q.T  # (part_rows, n_queries)
            if full and exclude is not None:
                # locate each query's own row in this part once
                o = np.argsort(ids, kind="stable")
                pc = np.minimum(np.searchsorted(ids, exclude, sorter=o),
                                len(ids) - 1)
                self_hit = ids[o[pc]] == exclude
            for i in range(len(q)):
                if full:
                    s, cand = sims_all[:, i], ids
                    if exclude is not None and self_hit[i]:
                        s[o[pc[i]]] = -np.inf  # column used once: safe
                else:
                    sel = np.isin(lists, probe[i])
                    if exclude is not None:
                        sel &= ids != exclude[i]
                    if not sel.any():
                        continue
                    s, cand = sims_all[sel, i], ids[sel]
                top = topk_order(cand, s, k)
                top = top[s[top] > -np.inf]  # drop the excluded row
                bi, bs = best[i]
                bi = np.concatenate([bi, cand[top]])
                bs = np.concatenate([bs, s[top]])
                keep = topk_order(bi, bs, k)
                best[i] = (bi[keep], bs[keep])
        return (np.repeat(np.arange(len(q)), [len(b[0]) for b in best]),
                np.concatenate([empty[0]] + [b[0] for b in best]),
                np.concatenate([empty[1]] + [b[1] for b in best]))


def ivf_topk(
    index_dir: str,
    query_vectors: np.ndarray,
    *,
    k: int = 10,
    nprobe: int | None = None,
) -> pa.Table:
    """Cosine top-k per query from a fresh ``IVFReader``: only the
    partitions owning probed lists are read. nprobe=None (= n_lists)
    probes everything -> exact brute force. Returns (query_id, rank,
    vec_id, cos_sim), tie-break (cos desc, vec_id asc), float64."""
    qi, ids, sims = IVFReader(index_dir).topk(query_vectors, k, nprobe)
    return pa.table({
        "query_id": pa.array(qi, pa.int64()),
        "rank": pa.array(group_ranks(qi) + 1, pa.int32()),
        "vec_id": pa.array(ids, pa.int64()),
        "cos_sim": pa.array(sims, pa.float64()),
    })
