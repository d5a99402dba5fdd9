"""IVF-PQ (IVFADC) ANN index — Jégou, Douze & Schmid 2011 §IV, pinned
integer spec end to end.

THE billion-scale ANN serving composition (FAISS's IVFADC default, the
shape donkey's kgraph fleet would migrate to at RAM-bound corpus sizes,
SURVEY.md §2A A4/A5): a COARSE quantizer (pinned-int k-means,
pipelines/kmeans.py spec) buckets vectors into inverted lists, each
vector stores only its M-byte PQ code of the RESIDUAL x - coarse(x),
and a query probes the ``nprobe`` nearest lists, scoring candidates by
Asymmetric Distance Computation against per-(query, probed list)
residual distance tables. Memory per vector = M codes + a list id (vs
D floats); query I/O = the probed lists only.

IVFADC is the product quantizer of pq.py run on residuals, so training
is the one pinned-integer Lloyd loop (``kmeans.lloyd_fit``) twice: the
coarse quantizer at M = 1 over quantized rows, then M subspaces over
residual rows; encoding, ADC tables and the top-k merge are pq.py's. A
DuckDB oracle mirrors training, encoding, probe selection AND search
bit-for-bit:

* inputs quantize half-up x1e6 (int64);
* coarse = kmeans_fit (smallest-vec_id init, exact-int argmin with
  smallest-c ties, floor-div updates, empty-cluster carry);
* residual r = q(x) - coarse_centroid[assigned] — exact int64;
* PQ codebooks train on residuals with the same loop as pq.py
  (init = the K globally-smallest vec_ids' residual sub-vectors);
* probe rule: the nprobe lists with smallest exact-int
  ||q - centroid||^2, ties toward the smaller list id;
* ADC distance = sum_m ||(q - coarse[list])_m - book_m[code]||^2,
  exact int64 (residuals ~2e6/dim, 64 dims -> ~3e14, far inside int64).

Scale shape:
* training: two ``lloyd_fit`` runs (coarse, then residual PQ) — every
  pass reduces batches to O(K*D) integer partials; the corpus never
  shuffles.
* build: encode is a shuffle-free map (coarse + books ride in the
  closure, O((n_lists + M*K) * D) ints); the ONE exchange is the
  list->partition groupby; segments are (list_id, vec_id)-sorted with
  atomic rename + checksum manifests, so retries and resumes redo only
  missing partitions (same treatment as the text/IVF/PQ indexes).
* serving: a query reads only the partitions owning its probed lists,
  row-group-pruned on the sorted list_id column; per-batch work is M
  table lookups per candidate code plus a local top-k, and only
  O(blocks * k) rows reach the driver merge. The distance tables are
  (nq * nprobe * M * K) ints — closure-sized, never a broadcast of
  vector data.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..functions.scoring import grouped_topk
from ..state import manifest as mf
from ..util import dataset_to_table
from .ann import _batch_matrix, clamp_nprobe
from .kmeans import _assign_ids, _quantize, kmeans_fit, lloyd_fit
from .pq import _adc_tables, _code_matrix, _dist_topk, _encode_codes

IVFPQ_FORMAT_VERSION = 1
IVFPQ_NLISTS = 4   # coarse lists
IVFPQ_CITERS = 2   # coarse Lloyd iterations
IVFPQ_M = 4        # PQ subspaces (on residuals)
IVFPQ_K = 8        # codes per subspace
IVFPQ_RITERS = 2   # residual-PQ Lloyd iterations
IVFPQ_NPROBE = 2   # default probed lists


def _resid_rows(batch: pa.Table, cn: np.ndarray, vec_col: str,
                id_col: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ids, lists 0-based, residual int64 matrix) for one batch."""
    ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    q = _quantize(_batch_matrix(batch, vec_col))
    lists = _assign_ids(q, cn)
    return ids, lists, q - cn[lists]


def ivfpq_train(
    ds: ray.data.Dataset,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_lists: int = IVFPQ_NLISTS,
    c_iters: int = IVFPQ_CITERS,
    m: int = IVFPQ_M,
    k: int = IVFPQ_K,
    r_iters: int = IVFPQ_RITERS,
) -> tuple[list[list[int]], list[list[list[int]]]]:
    """Fit (coarse centroids, residual PQ codebooks), both Python-int
    x1e6. Coarse = the pinned kmeans_fit; the residual PQ is the same
    ``lloyd_fit`` as pq_train with the residual row transform: rows are
    q(x) - coarse[list(x)], exact ints, never re-quantized (init = the K
    globally-smallest vec_ids' residual sub-vectors)."""
    coarse = kmeans_fit(ds, vec_col=vec_col, id_col=id_col, k=n_lists,
                        iterations=c_iters)
    cn = np.asarray(coarse, dtype=np.int64)

    def rows(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        ids, _, r = _resid_rows(batch, cn, vec_col, id_col)
        return ids, r

    books = lloyd_fit(ds, rows, k=k, m=m, iterations=r_iters,
                      name="ivfpq_train")
    return coarse, books


def ivfpq_encode(
    ds: ray.data.Dataset,
    coarse: list[list[int]],
    books: list[list[list[int]]],
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """(vec_id, list_id 1-based, codes list<int64> 1-based). Pure map —
    coarse + books ride in the closure (O((n_lists + M*K) * D) ints)."""
    cn = np.asarray(coarse, dtype=np.int64)
    bn = [np.asarray(b, dtype=np.int64) for b in books]

    def encode(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({
                "vec_id": pa.array([], pa.int64()),
                "list_id": pa.array([], pa.int32()),
                "codes": pa.array([], pa.list_(pa.int64())),
            })
        ids, lists, r = _resid_rows(batch, cn, vec_col, id_col)
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "list_id": pa.array((lists + 1).astype(np.int32), pa.int32()),
            "codes": pa.array(list(_encode_codes(r, bn)),
                              pa.list_(pa.int64())),
        })

    return ds.map_batches(encode, batch_format="pyarrow",
                          zero_copy_batch=True)


class _IVFPQPartWriter(mf.PartitionSegmentWriter):
    """One partition's (list_id, vec_id, codes) rows -> sorted segment
    parquet + manifest entry (shared atomic/resumable writer)."""

    def __init__(self, out_dir: str) -> None:
        super().__init__(
            out_dir, part_col="part",
            sort_keys=[("list_id", "ascending"), ("vec_id", "ascending")],
            count_field="n_vecs", row_group_size=1024,
            name="IVFPQPartWriter")


def build_ivfpq_index(
    ds: ray.data.Dataset,
    out_dir: str,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    n_lists: int = IVFPQ_NLISTS,
    c_iters: int = IVFPQ_CITERS,
    m: int = IVFPQ_M,
    k: int = IVFPQ_K,
    r_iters: int = IVFPQ_RITERS,
    num_partitions: int = 4,
) -> dict:
    """Build (or resume) the persisted IVFADC artifact:

      out/coarse.json                  coarse centroids + PQ codebooks
      out/segments/part-%05d.parquet   (list_id, vec_id, codes), sorted
                                       by (list_id, vec_id); partition =
                                       (list_id - 1) % num_partitions
      out/manifest/part-%05d.json      per-partition lineage
      out/index_meta.json, out/_SUCCESS

    Raw vectors never persist: the serving fleet holds list ids + M
    codes per vector. A crashed build resumes at partition granularity
    (finished partitions are checksum-validated and skipped; the rows
    destined to them are filtered out BEFORE the exchange)."""
    if mf.is_complete(out_dir):
        return mf.load_meta(out_dir)
    os.makedirs(out_dir, exist_ok=True)

    model_path = os.path.join(out_dir, "coarse.json")
    if os.path.exists(model_path):
        import json
        with open(model_path) as f:
            model = json.load(f)
        coarse, books = model["coarse"], model["books"]
    else:
        coarse, books = ivfpq_train(
            ds, vec_col=vec_col, id_col=id_col, n_lists=n_lists,
            c_iters=c_iters, m=m, k=k, r_iters=r_iters,
        )
        mf.atomic_write_json(model_path, {
            "n_lists": n_lists, "c_iters": c_iters, "m": m, "k": k,
            "r_iters": r_iters, "coarse": coarse, "books": books,
        })

    done = mf.validated_done_parts(out_dir, num_partitions)
    skipped = sorted(done)
    if len(done) < num_partitions:
        done_arr = np.array(sorted(done), dtype=np.int32)

        def add_part(batch: pa.Table) -> pa.Table:
            lists = batch.column("list_id").to_numpy(zero_copy_only=False)
            part = ((lists - 1) % num_partitions).astype(np.int32)
            out = batch.append_column("part", pa.array(part, pa.int32()))
            if len(done_arr):
                out = out.filter(pa.array(~np.isin(part, done_arr)))
            return out

        rows = (
            ivfpq_encode(ds, coarse, books, vec_col=vec_col, id_col=id_col)
            .map_batches(add_part, batch_format="pyarrow",
                         zero_copy_batch=True)
            .groupby("part")
            .map_groups(_IVFPQPartWriter(out_dir), batch_format="pyarrow")
        )
        new_entries = {int(r["part"]): r for r in rows.take_all()}
    else:
        new_entries = {}

    all_entries = {**done, **new_entries}
    meta = {
        "format_version": IVFPQ_FORMAT_VERSION,
        "kind": "ivfpq",
        "n_lists": n_lists,
        "c_iters": c_iters,
        "m": m,
        "k": k,
        "r_iters": r_iters,
        "dim": len(coarse[0]),
        "num_partitions": num_partitions,
        "n_vecs": int(sum(e["n_vecs"] for e in all_entries.values())),
        "parts_built": sorted(int(p) for p in all_entries),
        "parts_skipped_on_resume": skipped,
        "id_col": id_col,
    }
    mf.write_meta(out_dir, meta)
    mf.mark_complete(out_dir)
    return meta


def load_ivfpq_model(out_dir: str) -> tuple[list[list[int]],
                                            list[list[list[int]]]]:
    import json

    with open(os.path.join(out_dir, "coarse.json")) as f:
        model = json.load(f)
    return model["coarse"], model["books"]


def ivfpq_topk(
    out_dir: str,
    query_vectors: np.ndarray,
    *,
    k: int = 10,
    nprobe: int | None = IVFPQ_NPROBE,
) -> pa.Table:
    """IVFADC top-k: probe the nprobe nearest coarse lists per query
    (exact-int distance, ties to the smaller list id), ADC-score only
    the code rows of probed lists, exact int64 distances throughout.
    Returns (query_id, rank, vec_id, dist), ties (dist asc, vec_id asc).

    Reads ONLY the partitions owning probed lists; within them the
    per-batch mask drops non-probed lists (row groups are list-sorted,
    so parquet stats prune most of the skip). The (nq, nprobe, M, K)
    distance-table tensor rides via ray.put — no vector data ships."""
    meta = mf.load_meta(out_dir)
    coarse, books = load_ivfpq_model(out_dir)
    cn = np.asarray(coarse, dtype=np.int64)
    bn = [np.asarray(b, dtype=np.int64) for b in books]
    m = len(bn)
    n_lists = cn.shape[0]
    nprobe = clamp_nprobe(nprobe, n_lists)

    qm = _quantize(np.asarray(query_vectors, dtype=np.float64))
    nq = qm.shape[0]
    # probe selection: exact ||q - c||^2, ties toward the smaller list
    diff = qm[:, None, :] - cn[None, :, :]
    cd = np.einsum("qld,qld->ql", diff, diff)
    near = grouped_topk(np.repeat(np.arange(nq), n_lists),
                        np.tile(np.arange(n_lists), nq), cd.ravel(), nprobe,
                        descending=False)
    probe = (near % n_lists).reshape(nq, nprobe)  # 0-based lists

    # dtab[qi, slot, si, code] = ||(q - coarse[list])_sub - book||^2
    resid = (qm[:, None, :] - cn[probe]).reshape(nq * nprobe, cn.shape[1])
    dtab = _adc_tables(resid, bn).reshape(nq, nprobe, m, bn[0].shape[0])
    # slot_of[qi, list] = probe slot or -1
    slot_of = np.full((nq, n_lists), -1, dtype=np.int64)
    slot_of[np.arange(nq)[:, None], probe] = np.arange(nprobe)
    ship = ray.put((dtab, slot_of))

    # a partition whose every coarse list is EMPTY legitimately has no
    # segment file (groupby only yields existing groups); the manifest
    # helper skips partitions outside parts_built and raises on a
    # missing built one
    parts = np.unique(np.unique(probe) % meta["num_partitions"])
    paths = mf.built_segment_paths(out_dir, meta, parts)
    if not paths:
        empty = np.zeros(0, np.int64)
        return _dist_topk(empty, empty, empty, k)

    def local_topk(batch: pa.Table) -> pa.Table:
        dt, so = ray.get(ship)
        lists0 = batch.column("list_id").to_numpy(
            zero_copy_only=False).astype(np.int64) - 1
        ids = batch.column("vec_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        codes = _code_matrix(batch, m)
        # every (query, row) pair whose row lies in a list it probes
        slots = so[:, lists0]
        qi, row = np.nonzero(slots >= 0)
        slot = slots[qi, row]
        d = sum(dt[qi, slot, s, codes[row, s]] for s in range(m))
        return _dist_topk(qi, ids[row], d, k)

    cand = dataset_to_table(
        ray.data.read_parquet(paths)
        .map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)
    )
    return _dist_topk(*(cand.column(c).to_numpy(zero_copy_only=False)
                        for c in ("query_id", "vec_id", "dist")), k)


# --- DuckDB oracle: coarse chain + residual PQ chains + probed ADC ----

def _ivfpq_cte_chain(
    dim: int,
    n_lists: int = IVFPQ_NLISTS,
    c_iters: int = IVFPQ_CITERS,
    m: int = IVFPQ_M,
    k: int = IVFPQ_K,
    r_iters: int = IVFPQ_RITERS,
) -> str:
    """The coarse k-means chain (kmeans._kmeans_cte_chain: q/cfin/afin)
    + the residual table rq + per-subspace residual-PQ chains
    (prefix rp{s}_) ending in rp{s}_cfin / rp{s}_afin."""
    from .kmeans import _kmeans_cte_chain

    if dim % m != 0:
        raise ValueError(f"dim {dim} not divisible by {m}")
    w = dim // m
    parts = [_kmeans_cte_chain(n_lists, c_iters)]
    parts.append(f""",
rq AS MATERIALIZED (
  SELECT q.vec_id, q.i, q.q - c.w AS q
  FROM q JOIN afin a USING (vec_id) JOIN cfin c ON c.c = a.c AND c.i = q.i),
rp_init AS MATERIALIZED (
  SELECT vec_id, CAST(dense_rank() OVER (ORDER BY vec_id) AS BIGINT) AS c
  FROM (SELECT DISTINCT vec_id FROM rq ORDER BY vec_id LIMIT {k}))""")
    for s in range(m):
        lo = s * w
        parts.append(f""",
rp{s}_q AS MATERIALIZED (
  SELECT vec_id, i - {lo} AS i, q FROM rq
  WHERE i > {lo} AND i <= {lo + w}),
rp{s}_c0 AS MATERIALIZED (
  SELECT rp_init.c, q.i, q.q AS w
  FROM rp_init JOIN rp{s}_q q USING (vec_id))""")
        for t in range(1, r_iters + 2):
            parts.append(f""",
rp{s}_d{t} AS MATERIALIZED (
  SELECT q.vec_id, c.c, SUM((q.q - c.w) * (q.q - c.w)) AS d
  FROM rp{s}_q q JOIN rp{s}_c{t - 1} c USING (i) GROUP BY q.vec_id, c.c),
rp{s}_a{t} AS MATERIALIZED (
  SELECT vec_id, c FROM (
    SELECT vec_id, c,
           row_number() OVER (PARTITION BY vec_id ORDER BY d ASC, c ASC) AS rn
    FROM rp{s}_d{t}) WHERE rn = 1)""")
            if t <= r_iters:
                parts.append(f""",
rp{s}_s{t} AS MATERIALIZED (
  SELECT a.c, q.i, SUM(q.q) AS s, COUNT(*) AS n
  FROM rp{s}_a{t} a JOIN rp{s}_q q USING (vec_id) GROUP BY a.c, q.i),
rp{s}_c{t} AS MATERIALIZED (
  SELECT p.c, p.i,
         COALESCE(CASE WHEN s.s % s.n <> 0 AND s.s < 0
                       THEN s.s // s.n - 1 ELSE s.s // s.n END, p.w) AS w
  FROM rp{s}_c{t - 1} p LEFT JOIN rp{s}_s{t} s ON s.c = p.c AND s.i = p.i)""")
        parts.append(f""",
rp{s}_cfin AS MATERIALIZED (SELECT c, i, w FROM rp{s}_c{r_iters}),
rp{s}_afin AS MATERIALIZED (SELECT vec_id, c FROM rp{s}_a{r_iters + 1})""")
    return "".join(parts)


def ivfpq_topk_oracle_sql(
    dim: int,
    query_ids: list[int],
    topk: int,
    *,
    n_lists: int = IVFPQ_NLISTS,
    c_iters: int = IVFPQ_CITERS,
    m: int = IVFPQ_M,
    k: int = IVFPQ_K,
    r_iters: int = IVFPQ_RITERS,
    nprobe: int = IVFPQ_NPROBE,
) -> str:
    """DuckDB mirror of build_ivfpq_index + ivfpq_topk over the pinned
    query vec_ids: probe selection, per-(query, list) residuals and ADC
    all in exact integer arithmetic; query_id = position in query_ids."""
    w = dim // m
    qcase = " ".join(f"WHEN {v} THEN {i}" for i, v in enumerate(query_ids))
    ids = ", ".join(str(v) for v in query_ids)
    per_sub = "\nUNION ALL\n".join(f"""
SELECT p.query_id, a.vec_id, SUM((qr.q - c.w) * (qr.q - c.w)) AS d
FROM iq_probe p
JOIN afin a ON a.c = p.c
JOIN rp{s}_afin pa ON pa.vec_id = a.vec_id
JOIN rp{s}_cfin c ON c.c = pa.c
JOIN iq_res qr ON qr.query_id = p.query_id AND qr.list = p.c
              AND qr.i = c.i + {s * w}
GROUP BY 1, 2""" for s in range(m))
    return _ivfpq_cte_chain(dim, n_lists, c_iters, m, k, r_iters) + f""",
iq_v AS MATERIALIZED (
  SELECT CASE vec_id {qcase} END AS query_id, i, q
  FROM q WHERE vec_id IN ({ids})),
iq_cd AS MATERIALIZED (
  SELECT v.query_id, c.c, SUM((v.q - c.w) * (v.q - c.w)) AS d
  FROM iq_v v JOIN cfin c USING (i) GROUP BY 1, 2),
iq_probe AS MATERIALIZED (
  SELECT query_id, c FROM (
    SELECT query_id, c,
           row_number() OVER (PARTITION BY query_id ORDER BY d ASC, c ASC) AS rn
    FROM iq_cd) WHERE rn <= {nprobe}),
iq_res AS MATERIALIZED (
  SELECT p.query_id, p.c AS list, v.i, v.q - c.w AS q
  FROM iq_probe p
  JOIN iq_v v ON v.query_id = p.query_id
  JOIN cfin c ON c.c = p.c AND c.i = v.i),
iq_adc AS MATERIALIZED (
  SELECT query_id, vec_id, SUM(d) AS dist FROM ({per_sub}) GROUP BY 1, 2),
iq_rank AS (
  SELECT query_id, vec_id, dist,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY dist ASC, vec_id ASC) AS rank
  FROM iq_adc)
SELECT query_id::BIGINT AS query_id, rank::INT AS rank,
       vec_id::BIGINT AS vec_id, dist::BIGINT AS dist
FROM iq_rank WHERE rank <= {topk}"""
