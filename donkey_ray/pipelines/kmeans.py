"""Distributed k-means (Lloyd's) over embedding columns — pinned integer spec.

The coarse-quantizer / corpus-clustering primitive of an embedding-curation
pipeline (IVF coarse centroids, semantic bucketing for mixture sampling,
cluster-balanced dedup). Everything is pinned to exact integer arithmetic so
a DuckDB oracle can mirror it bit-for-bit and the result is invariant to
block layout and fold order:

* Inputs quantize half-up in float64: q = floor(v * 1e6 + 0.5), int64.
* Init: the K vectors with the SMALLEST ``vec_id`` (global min-k, folded
  from per-batch min-k partials), cluster ids 1..K in vec_id order.
* Each of ``iterations`` Lloyd steps:
  - assign: argmin_c sum_i (q_i - c_{c,i})^2 — exact int64; ties broken
    toward the smallest cluster id (np.argmin first-min == smallest c).
  - update: c_{c,i} = floor(sum(assigned q_i) / count) with floor toward
    -inf (Python ``//``; DuckDB's trunc-div is remainder-corrected in the
    oracle). An empty cluster carries its previous centroid unchanged.
* Final assignment runs once more against the converged centroids.

One loop, three row transforms: ``lloyd_fit`` is the only Lloyd
iteration in the vector pipelines. It fits M per-subspace codebooks over
whatever exact-int rows its ``rows_fn`` yields; ``kmeans_fit`` is M = 1
over quantized rows, ``pq.pq_train`` is M subspaces over quantized rows,
and ``ivfpq.ivfpq_train`` is M subspaces over residuals to the coarse
centroid (Jégou et al.'s IVFADC: the same product quantizer on
residuals).

Scale shape: each Lloyd step is ONE streaming pass — per batch the partial
is (counts[M x K], sums[K x dim]) int64, so O(K * dim) leaves a worker and
the corpus never shuffles; the driver fold + update run in unbounded
Python ints (per-batch partials are int64-safe, the global fold at 10^12
rows is not). Centroids (K * dim ints) ride to workers in the task
closure. ``iterations + 2`` dataset passes total (init min-k, the steps,
final assign) — the classic Lloyd's I/O profile; cache the quantized
matrix upstream if passes dominate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..util import dataset_to_table
from .ann import _batch_matrix

KM_SCALE = 10**6
KM_K = 4
KM_ITERS = 4


def _quantize(mat: np.ndarray) -> np.ndarray:
    return np.floor(mat * KM_SCALE + 0.5).astype(np.int64)


def sub_slices(dim: int, m: int) -> list[tuple[int, int]]:
    """Contiguous subspace [lo, hi) column ranges; dim must divide by m."""
    if dim % m != 0:
        raise ValueError(f"dim {dim} not divisible by {m} subspaces")
    w = dim // m
    return [(s * w, (s + 1) * w) for s in range(m)]


def _quantized_rows(vec_col: str, id_col: str):
    """The k-means / PQ row transform: batch -> (ids, quantized int64
    matrix)."""
    def rows(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        return ids, _quantize(_batch_matrix(batch, vec_col))

    return rows


def lloyd_fit(
    ds: ray.data.Dataset,
    rows_fn,
    *,
    k: int,
    m: int,
    iterations: int,
    name: str,
) -> list[list[list[int]]]:
    """THE pinned-integer Lloyd loop: M per-subspace codebooks of K
    Python-int rows over the int64 rows ``rows_fn(batch) -> (ids,
    matrix)`` yields. M = 1 is plain k-means; k-means, PQ and IVF-PQ
    differ only in ``rows_fn`` (quantize, or residual to the coarse
    centroid). ``name`` is the trainer the too-few-rows error names.

    One init pass (the K globally smallest ids' rows, per-batch min-K
    partials) shared by every subspace, then ONE pass per iteration
    covering all M subspaces (a batch partial is M*K counts + M*K*D/M
    sums = O(K*D) ints), so M subspaces cost ``iterations + 1`` passes,
    the same I/O as one k-means."""
    # --- init: the k globally smallest ids' full rows ---
    def initial(batch: pa.Table) -> pa.Table:
        empty = pa.table({
            "vid": pa.array([], pa.int64()),
            "qv": pa.array([], pa.list_(pa.int64())),
        })
        if batch.num_rows == 0:
            return empty
        ids, q = rows_fn(batch)
        take = np.argsort(ids, kind="stable")[:k]
        return pa.table({
            "vid": pa.array(ids[take], pa.int64()),
            "qv": pa.array(list(q[take]), pa.list_(pa.int64())),
        })

    part = dataset_to_table(
        ds.map_batches(initial, batch_format="pyarrow", zero_copy_batch=True)
    )
    if part.num_rows < k:
        raise ValueError(f"{name} needs >= {k} rows, got {part.num_rows}")
    vids = np.asarray(part.column("vid").to_pylist(), dtype=np.int64)
    order = np.argsort(vids, kind="stable")[:k]
    qvs = part.column("qv").to_pylist()
    full = [[int(x) for x in qvs[i]] for i in order]
    slices = sub_slices(len(full[0]), m)
    books = [[row[lo:hi] for row in full] for lo, hi in slices]

    # --- Lloyd steps: one streaming pass each covers every subspace ---
    for _ in range(iterations):
        bn = [np.asarray(b, dtype=np.int64) for b in books]

        def partials(batch: pa.Table, bn=bn) -> pa.Table:
            empty = pa.table({
                "sub": pa.array([], pa.int64()),
                "c": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "s": pa.array([], pa.list_(pa.int64())),
            })
            if batch.num_rows == 0:
                return empty
            _, q = rows_fn(batch)
            subs, cs, ns, ss = [], [], [], []
            for si, (lo, hi) in enumerate(slices):
                qm = q[:, lo:hi]
                assign = _assign_ids(qm, bn[si])
                counts = np.bincount(assign, minlength=k)
                sums = np.zeros((k, hi - lo), dtype=np.int64)
                np.add.at(sums, assign, qm)
                keep = counts > 0
                idx = np.arange(k, dtype=np.int64)[keep]
                subs.append(np.full(idx.size, si, dtype=np.int64))
                cs.append(idx)
                ns.append(counts[keep].astype(np.int64))
                ss.extend(list(sums[keep]))
            return pa.table({
                "sub": pa.array(np.concatenate(subs)),
                "c": pa.array(np.concatenate(cs)),
                "n": pa.array(np.concatenate(ns)),
                "s": pa.array(ss, pa.list_(pa.int64())),
            })

        tbl = dataset_to_table(
            ds.map_batches(partials, batch_format="pyarrow",
                           zero_copy_batch=True)
        )
        # unbounded Python-int fold (int64 would overflow at extreme N)
        n_by = [[0] * k for _ in range(m)]
        s_by = [[[0] * (hi - lo) for _ in range(k)] for lo, hi in slices]
        for sub, c, n, s in zip(tbl.column("sub").to_pylist(),
                                tbl.column("c").to_pylist(),
                                tbl.column("n").to_pylist(),
                                tbl.column("s").to_pylist()):
            n_by[sub][c] += n
            row = s_by[sub][c]
            for i, v in enumerate(s):
                row[i] += v
        # floor-div update; an empty cluster carries its centroid
        books = [
            [
                [s_by[si][c][i] // n_by[si][c] for i in range(hi - lo)]
                if n_by[si][c] > 0 else books[si][c]
                for c in range(k)
            ]
            for si, (lo, hi) in enumerate(slices)
        ]
    return books


def kmeans_fit(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    k: int = KM_K,
    iterations: int = KM_ITERS,
) -> list[list[int]]:
    """Fit pinned-integer k-means; returns K centroids as Python-int rows
    (scale x1e6), cluster c = row index + 1 (``lloyd_fit`` at M = 1)."""
    return lloyd_fit(ds, _quantized_rows(vec_col, id_col), k=k, m=1,
                     iterations=iterations, name="kmeans_fit")[0]


def _assign_ids(q: np.ndarray, cn: np.ndarray) -> np.ndarray:
    """Exact-int64 argmin_c ||q - c||^2 per row; ties -> smallest c
    (np.argmin returns the first minimum). ||q||^2 is row-constant so
    d = -2 q C^T + ||c||^2 ranks identically; all terms fit int64."""
    cross = q @ cn.T
    cc = np.einsum("ij,ij->i", cn, cn)
    return np.argmin(cc[None, :] - 2 * cross, axis=1)


def kmeans_centroids_table(cents: list[list[int]]) -> pa.Table:
    """Unnested (cluster 1-based, dim 1-based, c_x1e6) centroid table."""
    k, dim = len(cents), len(cents[0])
    return pa.table({
        "cluster": pa.array(np.repeat(np.arange(1, k + 1), dim).astype(np.int64)),
        "dim": pa.array(np.tile(np.arange(1, dim + 1), k).astype(np.int64)),
        "c_x1e6": pa.array([v for row in cents for v in row], pa.int64()),
    })


def kmeans_assign(
    ds: ray.data.Dataset,
    cents: list[list[int]],
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """Streamed final assignment (vec_id, cluster 1-based) against fixed
    centroids — shuffle-free map, O(K * dim) closure state."""
    cn = np.asarray(cents, dtype=np.int64)

    def assign(batch: pa.Table) -> pa.Table:
        empty = pa.table({
            "vec_id": pa.array([], pa.int64()),
            "cluster": pa.array([], pa.int64()),
        })
        if batch.num_rows == 0:
            return empty
        q = _quantize(_batch_matrix(batch, vec_col))
        a = _assign_ids(q, cn) + 1
        return pa.table({
            "vec_id": batch.column(id_col).cast(pa.int64()),
            "cluster": pa.array(a.astype(np.int64)),
        })

    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def semdedup(
    ds: ray.data.Dataset,
    cents: list[list[int]],
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    threshold: float = 0.99,
) -> ray.data.Dataset:
    """SemDeDup (Abbas et al. 2023, arXiv:2303.09540): semantic dedup by
    k-means bucketing + within-cluster cosine pruning. Each vector is
    assigned to its pinned-integer k-means cluster — the paper's core
    trick: candidate pairs exist only WITHIN a cluster, so pair work is
    sum(n_c^2), never n^2. Inside a cluster a vector is a duplicate iff
    ANY smaller ``vec_id`` in the cluster has cosine >= ``threshold``
    with it (pinned keep-rule: the min-id representative survives —
    deterministic stand-in for the paper's keep-one choice; the test is
    against all smaller ids regardless of their own keep flag, exactly
    mirroring the SQL anti-join). Output rows: (vec_id, cluster, keep).

    KNOWN UNPINNED PREDICATE: the cosine >= threshold compare is the one
    float predicate in this module (exact integer pinning needs 128-bit
    dot/norm products). numpy and DuckDB associate the arithmetic
    differently, so a pair whose true cosine sits within ~1 ulp of the
    threshold could in principle flip keep between engines — a ~1e-16
    tail risk accepted over a slow Python-int pairwise path.

    Scale shape: assignment is a shuffle-free map (centroids ride in the
    closure, O(K*dim)); ONE cluster-keyed exchange co-locates each
    cluster; per-cluster gram work is blocked 512 rows at a time so peak
    memory is O(512 * n_c), not O(n_c^2). K must grow with n (the paper
    runs 50k clusters at 1e8 docs) to bound n_c per worker."""
    from .ann import _normalize

    cn = np.asarray(cents, dtype=np.int64)

    def assign(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                "vec_id": pa.array([], pa.int64()),
                "cluster": pa.array([], pa.int64()),
                "vec": pa.array([], batch.schema.field(vec_col).type),
            })
        q = _quantize(_batch_matrix(batch, vec_col))
        a = _assign_ids(q, cn) + 1
        return pa.table({
            "vec_id": batch.column(id_col).cast(pa.int64()),
            "cluster": pa.array(a.astype(np.int64)),
            "vec": batch.column(vec_col),
        })

    assigned = ds.map_batches(assign, batch_format="pyarrow",
                              zero_copy_batch=True)

    def prune(group: pa.Table) -> pa.Table:
        n = group.num_rows
        if n == 0:
            return pa.table({
                "vec_id": pa.array([], pa.int64()),
                "cluster": pa.array([], pa.int64()),
                "keep": pa.array([], pa.bool_()),
            })
        ids = group.column("vec_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        m = _normalize(_batch_matrix(group, "vec"))[order]
        keep = np.ones(n, dtype=bool)
        blk = 512
        for lo in range(1, n, blk):  # the smallest id is always kept
            hi = min(lo + blk, n)
            sims = m[lo:hi] @ m[:hi].T  # (hi-lo, hi) tile
            jmask = (np.arange(hi)[None, :]
                     < np.arange(lo, hi)[:, None])
            keep[lo:hi] = ~((sims >= threshold) & jmask).any(axis=1)
        c = int(group.column("cluster")[0].as_py())
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "cluster": pa.array(np.full(n, c, dtype=np.int64)),
            "keep": pa.array(keep),
        })

    return assigned.groupby("cluster").map_groups(
        prune, batch_format="pyarrow")


# --- DuckDB oracle: the identical spec unrolled in CTEs ---------------

def _kmeans_cte_chain(k: int = KM_K, iterations: int = KM_ITERS) -> str:
    """Shared CTE chain ending in ``cfin`` = (c, i, w) final centroids.
    DuckDB integer ``//`` truncates toward zero; each update's floor-div
    is remainder-corrected (counts are > 0). Ties in assignment break
    toward the smallest c via the row_number ORDER BY."""
    sc = KM_SCALE
    parts = [f"""
WITH q AS MATERIALIZED (
  SELECT vec_id, i,
         CAST(floor(CAST(embedding[i] AS DOUBLE) * {sc} + 0.5) AS HUGEINT) AS q
  FROM embeddings, unnest(generate_series(1, len(embedding))) AS t(i)
),
kinit AS MATERIALIZED (
  SELECT vec_id, CAST(dense_rank() OVER (ORDER BY vec_id) AS BIGINT) AS c
  FROM (SELECT DISTINCT vec_id FROM q ORDER BY vec_id LIMIT {k})
),
c0 AS MATERIALIZED (
  SELECT kinit.c, q.i, q.q AS w FROM kinit JOIN q USING (vec_id))"""]
    for t in range(1, iterations + 2):
        parts.append(f""",
d{t} AS MATERIALIZED (
  SELECT q.vec_id, c.c, SUM((q.q - c.w) * (q.q - c.w)) AS d
  FROM q JOIN c{t - 1} c USING (i) GROUP BY q.vec_id, c.c),
a{t} AS MATERIALIZED (
  SELECT vec_id, c FROM (
    SELECT vec_id, c,
           row_number() OVER (PARTITION BY vec_id ORDER BY d ASC, c ASC) AS rn
    FROM d{t}) WHERE rn = 1)""")
        if t <= iterations:
            parts.append(f""",
s{t} AS MATERIALIZED (
  SELECT a.c, q.i, SUM(q.q) AS s, COUNT(*) AS n
  FROM a{t} a JOIN q USING (vec_id) GROUP BY a.c, q.i),
c{t} AS MATERIALIZED (
  SELECT p.c, p.i,
         COALESCE(CASE WHEN s.s % s.n <> 0 AND s.s < 0
                       THEN s.s // s.n - 1 ELSE s.s // s.n END, p.w) AS w
  FROM c{t - 1} p LEFT JOIN s{t} s ON s.c = p.c AND s.i = p.i)""")
    parts.append(f""",
cfin AS MATERIALIZED (SELECT c, i, w FROM c{iterations}),
afin AS MATERIALIZED (SELECT vec_id, c FROM a{iterations + 1})""")
    return "".join(parts)


def kmeans_clusters_oracle_sql(k: int = KM_K, iterations: int = KM_ITERS) -> str:
    """DuckDB mirror of kmeans_fit + kmeans_assign: (vec_id, cluster)."""
    return _kmeans_cte_chain(k, iterations) + """
SELECT vec_id::BIGINT AS vec_id, c::BIGINT AS cluster FROM afin
ORDER BY vec_id"""


def kmeans_centroids_oracle_sql(k: int = KM_K, iterations: int = KM_ITERS) -> str:
    """DuckDB mirror of the final centroid table: (cluster, dim, c_x1e6)."""
    return _kmeans_cte_chain(k, iterations) + """
SELECT c::BIGINT AS cluster, i::BIGINT AS dim, w::BIGINT AS c_x1e6 FROM cfin
ORDER BY cluster, dim"""


def semdedup_oracle_sql(
    threshold: float, k: int = KM_K, iterations: int = KM_ITERS
) -> str:
    """DuckDB mirror of semdedup: the k-means chain's final assignment
    plus an any-smaller-id-within-threshold anti-join per cluster."""
    return _kmeans_cte_chain(k, iterations) + f""",
sd_e AS (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),
sd_dup AS (
  SELECT a.vec_id
  FROM afin a JOIN afin b ON b.c = a.c AND b.vec_id < a.vec_id
  JOIN sd_e ea ON ea.vec_id = a.vec_id
  JOIN sd_e eb ON eb.vec_id = b.vec_id
  WHERE list_cosine_similarity(ea.v, eb.v) >= {threshold}
  GROUP BY 1)
SELECT a.vec_id::BIGINT AS vec_id, a.c::BIGINT AS cluster,
       (d.vec_id IS NULL) AS keep
FROM afin a LEFT JOIN sd_dup d ON d.vec_id = a.vec_id
ORDER BY vec_id"""
