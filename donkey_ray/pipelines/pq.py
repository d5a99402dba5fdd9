"""Product quantization (PQ) ANN — Jégou, Douze & Schmid 2011, pinned
integer spec.

PQ is THE memory-bound ANN scale technique (donkey's kgraph analogue for
RAM-constrained fleets, SURVEY.md §2A A4/A5): split the D-dim embedding
into M contiguous subspaces, k-means each subspace to K centroids (the
"codebook"), store every vector as M small codes (M bytes at K<=256 —
a 64-dim float vector compresses 64x), and answer queries by Asymmetric
Distance Computation (ADC): precompute the query's K distances per
subspace once, then score any stored vector with M table lookups.

Training is the one pinned-integer Lloyd loop (``kmeans.lloyd_fit``)
over quantized rows with M subspaces — k-means is the same loop at M = 1
and IVF-PQ the same loop over residual rows — so a DuckDB oracle mirrors
training, codes AND search bit-for-bit:

* inputs quantize half-up x1e6 (int64);
* per-subspace init = the K globally-smallest ``vec_id`` rows'
  sub-vectors (one min-k pass shared by every subspace);
* ``iterations`` Lloyd steps, floor-div centroid updates, empty cluster
  carries over; assignment ties toward the smallest code;
* ADC distance is EXACT int64: dist(q,d) = sum_m ||q_m - c_{m,code}||^2
  (dims <= 64, values ~1e6 -> far inside int64), so search results are
  hash-exact, no float tolerance anywhere.

Scale shape:
* ``pq_train`` is FUSED (``lloyd_fit``): one streaming pass per Lloyd
  iteration covers ALL M subspaces (a per-batch partial is M*K counts +
  M*K*D/M sums = O(K*D) ints — independent of batch and corpus size).
  M separate k-means runs would cost M * iterations passes; fused costs
  ``iterations + 1`` total, the same I/O as one k-means fit.
* ``pq_encode`` is a shuffle-free map (codebooks ride in the closure,
  O(K*D) ints); its per-subspace encoder ``_encode_codes`` is also
  IVF-PQ's, as are the ADC tables, the code decode and the driver
  top-k merge.
* ``pq_search`` streams the code table; the per-query distance tables
  (M*K ints) ride in the closure, each batch does M vectorized lookups
  + one per-batch top-k, and only O(batches * k) rows reach the driver
  merge — the corpus of codes never shuffles.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..functions.scoring import group_ranks, grouped_topk
from ..state import manifest as mf
from ..util import dataset_to_table
from .ann import _batch_matrix
from .kmeans import (KM_SCALE, _assign_ids, _quantize, _quantized_rows,
                     lloyd_fit, sub_slices)

PQ_M = 4       # subspaces
PQ_K = 16      # codes per subspace
PQ_ITERS = 2   # Lloyd iterations


def pq_train(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    m: int = PQ_M,
    k: int = PQ_K,
    iterations: int = PQ_ITERS,
) -> list[list[list[int]]]:
    """Fit M per-subspace codebooks (each K x D/M Python ints, x1e6):
    the fused ``lloyd_fit`` over quantized rows."""
    return lloyd_fit(ds, _quantized_rows(vec_col, id_col), k=k, m=m,
                     iterations=iterations, name="pq_train")


def _encode_codes(rows: np.ndarray, bn: list[np.ndarray]) -> np.ndarray:
    """(n, M) int64 codes, 1-based (the k-means cluster convention): per
    subspace, the exact-int nearest codeword of the row's slice."""
    slices = sub_slices(rows.shape[1], len(bn))
    return np.stack([
        _assign_ids(rows[:, lo:hi], b) + 1 for b, (lo, hi) in zip(bn, slices)
    ], axis=1).astype(np.int64)


def pq_encode(
    ds: ray.data.Dataset,
    books: list[list[list[int]]],
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """Encode every vector to its M codes (1-based, matching the k-means
    cluster convention): (vec_id, codes list<int64> length M). Pure map;
    the codebooks (O(K*D) ints) ride in the closure."""
    bn = [np.asarray(b, dtype=np.int64) for b in books]

    def encode(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                "vec_id": pa.array([], pa.int64()),
                "codes": pa.array([], pa.list_(pa.int64())),
            })
        codes = _encode_codes(_quantize(_batch_matrix(batch, vec_col)), bn)
        return pa.table({
            "vec_id": batch.column(id_col).cast(pa.int64()),
            "codes": pa.array(list(codes), pa.list_(pa.int64())),
        })

    return ds.map_batches(encode, batch_format="pyarrow",
                          zero_copy_batch=True)


def _code_matrix(batch: pa.Table, m: int) -> np.ndarray:
    """A batch's ``codes`` list column as an (n, M) 0-based int64 matrix."""
    col = batch.column("codes")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = np.asarray(col.flatten().to_numpy(zero_copy_only=False),
                      dtype=np.int64)
    return flat.reshape(batch.num_rows, m) - 1


def pq_codes_unnested(encoded: ray.data.Dataset) -> ray.data.Dataset:
    """(vec_id, sub 1-based, code) — the SQL-comparable code table."""
    def unnest(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                "vec_id": pa.array([], pa.int64()),
                "sub": pa.array([], pa.int64()),
                "code": pa.array([], pa.int64()),
            })
        m = len(batch.column("codes")[0].as_py())
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "vec_id": pa.array(np.repeat(ids, m).astype(np.int64)),
            "sub": pa.array(np.tile(np.arange(1, m + 1), len(ids))
                            .astype(np.int64)),
            "code": pa.array((_code_matrix(batch, m) + 1).ravel()),
        })

    return encoded.map_batches(unnest, batch_format="pyarrow",
                               zero_copy_batch=True)


def _adc_tables(rows: np.ndarray, bn: list[np.ndarray]) -> np.ndarray:
    """(n, M, K) exact int64 ADC tables: [r, m, c] = ||row_m - book_m[c]||^2
    over the row's M subspace slices."""
    tabs = []
    for b, (lo, hi) in zip(bn, sub_slices(rows.shape[1], len(bn))):
        diff = rows[:, None, lo:hi] - b[None, :, :]
        tabs.append(np.einsum("qcd,qcd->qc", diff, diff))
    return np.stack(tabs, axis=1)


def _dist_topk(qi: np.ndarray, ids: np.ndarray, dist: np.ndarray,
               k: int) -> pa.Table:
    """Each query's top-k of flat (query index, vec_id, dist) rows by
    (dist asc, vec_id asc), as (query_id, rank, vec_id, dist) — one
    batch's candidates and, over all of them, the driver merge."""
    sel = grouped_topk(qi, ids, dist, k, descending=False)
    return pa.table({
        "query_id": pa.array(qi[sel], pa.int64()),
        "rank": pa.array(group_ranks(qi[sel]) + 1, pa.int32()),
        "vec_id": pa.array(ids[sel], pa.int64()),
        "dist": pa.array(dist[sel], pa.int64()),
    })


def pq_search(
    encoded: ray.data.Dataset,
    books: list[list[list[int]]],
    query_vectors: np.ndarray,
    *,
    k: int = 10,
) -> pa.Table:
    """ADC top-k per query over the code table: per query, one M x K
    integer distance table; per batch, M vectorized lookups + local
    top-k; tiny driver merge. Returns (query_id, rank, vec_id, dist)
    with EXACT int64 distances (ties dist asc, vec_id asc).

    ADC approximates true distance by sum of per-subspace distances to
    the assigned centroids — recall is pytest-gated against brute
    force; determinism is exact by construction."""
    bn = [np.asarray(b, dtype=np.int64) for b in books]
    m = len(bn)
    qm = _quantize(np.asarray(query_vectors, dtype=np.float64))
    nq = qm.shape[0]
    dtab_ref = ray.put(_adc_tables(qm, bn))  # [qi, si, c], exact int64

    def local_topk(batch: pa.Table) -> pa.Table:
        dt = ray.get(dtab_ref)
        ids = batch.column("vec_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        codes = _code_matrix(batch, m)
        # d[qi, row] = sum over subspaces of dt[qi, sub, code], one
        # (nq, rows) lookup per subspace
        d = sum(dt[:, s, codes[:, s]] for s in range(m))
        return _dist_topk(np.repeat(np.arange(nq), len(ids)),
                          np.tile(ids, nq), d.ravel(), k)

    cand = dataset_to_table(encoded.map_batches(
        local_topk, batch_format="pyarrow", zero_copy_batch=True))
    return _dist_topk(*(cand.column(c).to_numpy(zero_copy_only=False)
                        for c in ("query_id", "vec_id", "dist")), k)


# --- DuckDB oracle: per-subspace k-means chains + ADC, all integer ----

def _pq_cte_chain(
    dim: int, m: int = PQ_M, k: int = PQ_K, iterations: int = PQ_ITERS
) -> str:
    """Per-subspace pinned k-means chains (prefix p{s}_) ending in
    p{s}_afin (vec_id, c) and p{s}_cfin (c, i, w with i local 1-based).
    Mirrors pipelines/kmeans._kmeans_cte_chain per subspace; the shared
    init is the K smallest vec_ids (same rows for every subspace)."""
    if dim % m != 0:
        raise ValueError(f"dim {dim} not divisible by {m}")
    w = dim // m
    sc = KM_SCALE
    parts = [f"""
WITH pq_q AS MATERIALIZED (
  SELECT vec_id, i,
         CAST(floor(CAST(embedding[i] AS DOUBLE) * {sc} + 0.5) AS HUGEINT) AS q
  FROM embeddings, unnest(generate_series(1, {dim})) AS t(i)
),
pq_init AS MATERIALIZED (
  SELECT vec_id, CAST(dense_rank() OVER (ORDER BY vec_id) AS BIGINT) AS c
  FROM (SELECT DISTINCT vec_id FROM pq_q ORDER BY vec_id LIMIT {k})
)"""]
    for s in range(m):
        lo = s * w  # local i = global i - lo
        parts.append(f""",
p{s}_q AS MATERIALIZED (
  SELECT vec_id, i - {lo} AS i, q FROM pq_q
  WHERE i > {lo} AND i <= {lo + w}),
p{s}_c0 AS MATERIALIZED (
  SELECT pq_init.c, q.i, q.q AS w
  FROM pq_init JOIN p{s}_q q USING (vec_id))""")
        for t in range(1, iterations + 2):
            parts.append(f""",
p{s}_d{t} AS MATERIALIZED (
  SELECT q.vec_id, c.c, SUM((q.q - c.w) * (q.q - c.w)) AS d
  FROM p{s}_q q JOIN p{s}_c{t - 1} c USING (i) GROUP BY q.vec_id, c.c),
p{s}_a{t} AS MATERIALIZED (
  SELECT vec_id, c FROM (
    SELECT vec_id, c,
           row_number() OVER (PARTITION BY vec_id ORDER BY d ASC, c ASC) AS rn
    FROM p{s}_d{t}) WHERE rn = 1)""")
            if t <= iterations:
                parts.append(f""",
p{s}_s{t} AS MATERIALIZED (
  SELECT a.c, q.i, SUM(q.q) AS s, COUNT(*) AS n
  FROM p{s}_a{t} a JOIN p{s}_q q USING (vec_id) GROUP BY a.c, q.i),
p{s}_c{t} AS MATERIALIZED (
  SELECT p.c, p.i,
         COALESCE(CASE WHEN s.s % s.n <> 0 AND s.s < 0
                       THEN s.s // s.n - 1 ELSE s.s // s.n END, p.w) AS w
  FROM p{s}_c{t - 1} p LEFT JOIN p{s}_s{t} s ON s.c = p.c AND s.i = p.i)""")
        parts.append(f""",
p{s}_cfin AS MATERIALIZED (SELECT c, i, w FROM p{s}_c{iterations}),
p{s}_afin AS MATERIALIZED (SELECT vec_id, c FROM p{s}_a{iterations + 1})""")
    return "".join(parts)


def pq_codes_oracle_sql(
    dim: int, m: int = PQ_M, k: int = PQ_K, iterations: int = PQ_ITERS
) -> str:
    """DuckDB mirror of pq_train + pq_encode: (vec_id, sub, code)."""
    union = "\nUNION ALL\n".join(
        f"SELECT vec_id, {s + 1} AS sub, c AS code FROM p{s}_afin"
        for s in range(m)
    )
    return _pq_cte_chain(dim, m, k, iterations) + f"""
SELECT vec_id::BIGINT AS vec_id, sub::BIGINT AS sub, code::BIGINT AS code
FROM ({union}) ORDER BY vec_id, sub"""


def pq_search_oracle_sql(
    dim: int,
    query_ids: list[int],
    topk: int,
    m: int = PQ_M,
    k: int = PQ_K,
    iterations: int = PQ_ITERS,
) -> str:
    """DuckDB mirror of pq_search over the pinned query vec_ids: ADC
    distance = per-subspace ||q_sub - assigned centroid||^2 summed, all
    integer; query_id = position in query_ids."""
    qcase = " ".join(
        f"WHEN {v} THEN {i}" for i, v in enumerate(query_ids)
    )
    ids = ", ".join(str(v) for v in query_ids)
    per_sub = "\nUNION ALL\n".join(f"""
SELECT qv.query_id, a.vec_id,
       SUM((qv.q - c.w) * (qv.q - c.w)) AS d
FROM p{s}_afin a
JOIN p{s}_cfin c ON c.c = a.c
JOIN (SELECT CASE vec_id {qcase} END AS query_id, i - {s * (dim // m)} AS i, q
      FROM pq_q WHERE vec_id IN ({ids})
        AND i > {s * (dim // m)} AND i <= {(s + 1) * (dim // m)}) qv
  ON qv.i = c.i
GROUP BY 1, 2""" for s in range(m))
    return _pq_cte_chain(dim, m, k, iterations) + f""",
pq_dist AS (SELECT query_id, vec_id, SUM(d) AS dist
            FROM ({per_sub}) GROUP BY 1, 2),
pq_rank AS (SELECT query_id, vec_id, dist,
                   row_number() OVER (PARTITION BY query_id
                                      ORDER BY dist ASC, vec_id ASC) AS rank
            FROM pq_dist)
SELECT query_id::BIGINT AS query_id, rank::INT AS rank, vec_id,
       dist::BIGINT AS dist
FROM pq_rank WHERE rank <= {topk}"""


# --- persisted PQ index artifact (the kgraph-file analogue) -----------

PQ_FORMAT_VERSION = 1


class _PQPartWriter(mf.PartitionSegmentWriter):
    """One partition's (vec_id, codes) rows -> sorted segment parquet +
    manifest entry (shared atomic/resumable writer)."""

    def __init__(self, out_dir: str) -> None:
        super().__init__(
            out_dir, part_col="part", sort_keys=[("vec_id", "ascending")],
            count_field="n_vecs", row_group_size=4096, name="PQPartWriter")


def build_pq_index(
    ds: ray.data.Dataset,
    out_dir: str,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    m: int = PQ_M,
    k: int = PQ_K,
    iterations: int = PQ_ITERS,
    num_partitions: int = 8,
) -> dict:
    """Build (or reuse) the persisted PQ index: trained codebooks
    (books.json), the compressed code table as hash-partitioned sorted
    segments with per-partition lineage manifests, index_meta.json and
    a _SUCCESS marker — the same artifact treatment as the text and IVF
    indexes (donkey's persisted kgraph index file, SURVEY.md A4/A8).

    The float vectors never persist here: the artifact stores M small
    codes per vector (64x smaller at dim=64, M=4), which is the point —
    a serving fleet holds the code table + books in RAM and answers ADC
    queries without touching the raw embeddings."""
    import os

    if mf.is_complete(out_dir):
        return mf.load_meta(out_dir)
    os.makedirs(out_dir, exist_ok=True)

    books = pq_train(ds, vec_col=vec_col, id_col=id_col, m=m, k=k,
                     iterations=iterations)
    mf.atomic_write_json(os.path.join(out_dir, "books.json"),
                         {"m": m, "k": k, "books": books})

    def add_part(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "part",
            pa.array((ids % num_partitions).astype(np.int32), pa.int32()),
        )

    rows = (
        pq_encode(ds, books, vec_col=vec_col, id_col=id_col)
        .map_batches(add_part, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("part")
        .map_groups(_PQPartWriter(out_dir), batch_format="pyarrow")
    )
    entries = {int(r["part"]): r for r in rows.take_all()}
    meta = {
        "format_version": PQ_FORMAT_VERSION,
        "kind": "pq",
        "m": m,
        "k": k,
        "iterations": iterations,
        "num_partitions": num_partitions,
        "parts_built": sorted(entries),
        "n_vecs": int(sum(e["n_vecs"] for e in entries.values())),
    }
    mf.write_meta(out_dir, meta)
    mf.mark_complete(out_dir)
    return meta


def load_pq_books(out_dir: str) -> list[list[list[int]]]:
    import json
    import os

    with open(os.path.join(out_dir, "books.json")) as f:
        return json.load(f)["books"]


def pq_index_topk(
    out_dir: str,
    query_vectors: np.ndarray,
    *,
    k: int = 10,
) -> pa.Table:
    """ADC top-k against the persisted PQ index: stream the code
    segments (parallel parquet read), books from books.json."""
    paths = mf.built_segment_paths(out_dir, mf.load_meta(out_dir))
    encoded = ray.data.read_parquet(paths)
    return pq_search(encoded, load_pq_books(out_dir), query_vectors, k=k)
