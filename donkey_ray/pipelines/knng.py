"""k-NN graph ANN index via distributed NN-descent + beam-search serving.

Donkey's default ANN index is kgraph — an NN-descent k-NN graph (Dong,
Moses & Li, "Efficient k-nearest neighbor graph construction for generic
similarity measures", WWW 2011 — public paper; SURVEY.md A4 [PK]). This
module is that capability re-expressed Ray-Data-first:

- INIT: two bucketing tables seed the graph through ONE keyed exchange
  each — (a) random-hyperplane LSH buckets (locality: likely-close
  vectors meet early) and (b) splitmix64 random buckets (connectivity:
  the graph never starts disconnected). Within a bucket the seed edges
  are exact top-K when the bucket is small (vectorized all-pairs) and a
  sorted ring otherwise (bounded work for hot buckets).

- NN-DESCENT ROUNDS: the invariant "a neighbor of my neighbor is
  probably my neighbor". Each round: (1) undirect the graph, (2) one
  keyed exchange on src emits all neighbor-of-neighbor candidate pairs
  per node (<= K(2K-1) per node, vectorized triu gather), (3) two
  cogroup joins attach endpoint vectors partition-locally (the
  repartition-join primitive — vectors are NEVER broadcast whole),
  (4) one keyed exchange on src keeps each node's top-K by cosine.
  Every stage is a bounded keyed exchange; nothing materializes the
  vector set or the pair set on the driver.

- ARTIFACT: graph/part-%05d.parquet (src, dst, sim) sorted by src with
  per-partition manifest lineage + meta + _SUCCESS, same resumable
  treatment as the text/IVF indexes.

- SERVING: greedy best-first beam search (the kgraph/HNSW search loop)
  from deterministic spread entry points; per-hop neighbor lookups and
  similarity evaluations are vectorized. Approximate by construction —
  recall is gated in pytest (>= 0.9 @ beam 64 on the fixture corpus)
  and the driver records a rows-only check, never an oracle claim.

Scale posture: build cost per round is O(n * K^2) candidate rows moved
through hash exchanges sized by default_num_partitions(); serving state
per query is O(beam + visited) with graph reads row-group-pruned on the
sorted src column (memoized whole only below _SMALL_GRAPH rows — the
in-sandbox fixture path; the 100 TB path shards the same arrays across
partition-owning actors like the text dictionary)."""

from __future__ import annotations

import heapq
import os
from functools import lru_cache

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from ..functions.scoring import group_ranks
from ..state import manifest as mf
from ..util import dataset_to_table
from .ann import _batch_matrix, _flat_sims, _normalize, _topk_table

FORMAT_VERSION = 1
MAX_BF_BUCKET = 256     # all-pairs init below this bucket size
N_PLANES = 10           # LSH table bits
RANDOM_BUCKETS = 64     # connectivity table bucket count
_SMALL_GRAPH = 1_000_000


def _hyperplanes(dim: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((dim, N_PLANES))


def _splitmix(x: np.ndarray) -> np.ndarray:
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _bucket_edges(ids: np.ndarray, m: np.ndarray, k: int) -> tuple:
    """Seed edges within one bucket: exact top-k for small buckets,
    sorted ring otherwise. Returns (src, dst, sim) arrays."""
    n = len(ids)
    if n < 2:
        e = np.array([], dtype=np.int64)
        return e, e.copy(), np.array([], dtype=np.float64)
    order = np.argsort(ids, kind="stable")
    ids, m = ids[order], m[order]
    if n <= MAX_BF_BUCKET:
        sims = m @ m.T
        np.fill_diagonal(sims, -np.inf)
        kk = min(k, n - 1)
        top = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        src = np.repeat(ids, kk)
        dst = ids[top.ravel()]
        sim = np.take_along_axis(sims, top, axis=1).ravel()
        return src, dst, sim
    nxt = np.roll(np.arange(n), -1)
    sim = np.einsum("ij,ij->i", m, m[nxt])
    return ids, ids[nxt], sim


class _GraphPartWriter(mf.PartitionSegmentWriter):
    """One src-hash partition of (src, dst, sim) edges -> sorted segment
    parquet + manifest entry (shared atomic/resumable writer; used by
    both the distributed map_groups path and the driver-local path)."""

    def __init__(self, out: str) -> None:
        super().__init__(
            out, part_col="__part",
            sort_keys=[("src", "ascending"), ("dst", "ascending")],
            count_field="n_edges", row_group_size=4096, name="knng_write")


def _build_local_exact(
    vecs: ray.data.Dataset, out_dir: str, *, k: int, seed: int,
    num_partitions: int | None,
) -> dict:
    """Driver-local EXACT k-NN graph for small inputs: blocked gram
    tiles bound peak memory to TILE x n doubles; per-src neighbor order
    is (sim desc, dst asc) — deterministic, and the ideal limit the
    distributed NN-descent rounds converge toward. Artifact layout,
    manifests and meta match the distributed path exactly."""
    from ..stages.exchange import add_partition_column, default_num_partitions

    tbl = dataset_to_table(vecs).sort_by([("vec_id", "ascending")])
    ids = tbl.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
    n = len(ids)
    meta_base = {
        "format_version": FORMAT_VERSION,
        "kind": "knn_graph_cosine",
        "k": int(k), "rounds": 0, "seed": int(seed),
        "local_exact": True,
    }
    if n == 0:
        P = num_partitions or 1
        meta = {**meta_base, "num_partitions": P, "n_edges": 0,
                "parts_built": []}
        mf.write_meta(out_dir, meta)
        mf.mark_complete(out_dir)
        return meta
    if n == 1:
        # a single vector still needs to be REACHABLE (sharded serving
        # takes entry points from the graph's src nodes): one self-loop
        P = num_partitions or 1
        writer = _GraphPartWriter(out_dir)
        from ..stages.exchange import add_partition_column

        loop = add_partition_column(pa.table({
            "src": pa.array(ids, pa.int64()),
            "dst": pa.array(ids, pa.int64()),
            "sim": pa.array([1.0], pa.float64()),
        }), ["src"], P)
        res = writer(loop)
        meta = {**meta_base, "num_partitions": P, "n_edges": 1,
                "parts_built": [int(res.column("part")[0].as_py())]}
        mf.write_meta(out_dir, meta)
        mf.mark_complete(out_dir)
        return meta
    m = _normalize(_batch_matrix(tbl, "embedding"))
    kk = min(k, n - 1)
    dsts = np.empty(n * kk, np.int64)
    sims = np.empty(n * kk, np.float64)
    # tile height sized so each TILE x n float64 gram (and its
    # argpartition/lexsort temporaries) stays ~<=64 MB even at the
    # 20k-vector cap, instead of growing linearly with n
    TILE = max(64, min(2048, (64 << 20) // (8 * n)))
    for lo in range(0, n, TILE):
        hi = min(lo + TILE, n)
        g = m[lo:hi] @ m.T
        g[np.arange(hi - lo), np.arange(lo, hi)] = -np.inf
        top = np.argpartition(-g, kk - 1, axis=1)[:, :kk]
        tsim = np.take_along_axis(g, top, axis=1)
        tid = ids[top]
        rows = np.repeat(np.arange(hi - lo), kk)
        ordf = np.lexsort((tid.ravel(), -tsim.ravel(), rows))
        dsts[lo * kk:hi * kk] = tid.ravel()[ordf]
        sims[lo * kk:hi * kk] = tsim.ravel()[ordf]
    edges = pa.table({
        "src": pa.array(np.repeat(ids, kk), pa.int64()),
        "dst": pa.array(dsts, pa.int64()),
        "sim": pa.array(sims, pa.float64()),
    })
    if num_partitions is None:
        num_partitions = max(2, min(default_num_partitions(),
                                    (n * k) // 65536 + 1))
    tagged = add_partition_column(edges, ["src"], num_partitions)
    parts_np = tagged.column("__part").to_numpy(zero_copy_only=False)
    writer = _GraphPartWriter(out_dir)
    entries: list[dict] = []
    for pid in np.unique(parts_np):
        sub = tagged.take(pa.array(np.flatnonzero(parts_np == pid)))
        res = writer(sub)
        entries.append({"part": int(res.column("part")[0].as_py()),
                        "n_edges": int(res.column("n_edges")[0].as_py())})
    meta = {
        **meta_base,
        "num_partitions": int(num_partitions),
        "n_edges": int(sum(e["n_edges"] for e in entries)),
        "parts_built": sorted(e["part"] for e in entries),
    }
    mf.write_meta(out_dir, meta)
    mf.mark_complete(out_dir)
    return meta


LOCAL_EXACT_MAX = 20_000  # vectors; below this the whole NN-descent
# dance is exchange overhead — gram tiles are capped at ~64 MB by the
# adaptive TILE height, so the EXACT graph is computed driver-side


def build_knn_graph(
    ds: ray.data.Dataset,
    out_dir: str,
    *,
    k: int = 8,
    rounds: int = 3,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    seed: int = 42,
    num_partitions: int | None = None,
    local_max_vectors: int = LOCAL_EXACT_MAX,
) -> dict:
    """Build (once; _SUCCESS-resumable) the k-NN graph artifact.

    Inputs at or below ``local_max_vectors`` take a driver-local EXACT
    fast path (blocked gram tiles, same artifact layout/manifest — the
    ideal limit NN-descent converges to); pass 0 to force the
    distributed NN-descent path (tests pin it that way). The dispatch
    mirrors the repo's small-graph fast paths: at fixture scale the
    distributed build is ~100% fixed exchange overhead."""
    from ..stages.exchange import keyed_cogroup_map, keyed_partition_map

    if mf.is_complete(out_dir):
        meta = mf.load_meta(out_dir)
        # params guard (mirrors build_sharded_knn_graph's _PARAMS pin):
        # re-entering with different k/seed — or a different path
        # (exact vs NN-descent rounds) — rebuilds instead of silently
        # serving a stale graph. A cached EXACT graph satisfies any
        # rounds request (it is the limit NN-descent converges to)
        # unless the caller forces the distributed path.
        cached_exact = bool(meta.get("local_exact"))
        ok = (meta.get("k") == int(k) and meta.get("seed") == int(seed)
              and (local_max_vectors != 0 if cached_exact
                   else meta.get("rounds") == int(rounds)))
        if ok:
            return meta
        import shutil

        shutil.rmtree(out_dir)
    os.makedirs(out_dir, exist_ok=True)

    # materialized: every round's two cogroup joins re-read this (O(n·dim)
    # floats — the index input, not a corpus-scale text payload)
    vecs = ds.map_batches(
        lambda b: pa.table({"vec_id": b.column(id_col).cast(pa.int64()),
                            "embedding": b.column(vec_col)}),
        batch_format="pyarrow", zero_copy_batch=True,
    ).materialize()
    n_vecs = vecs.count()
    if local_max_vectors and n_vecs <= local_max_vectors:
        return _build_local_exact(vecs, out_dir, k=k, seed=seed,
                                  num_partitions=num_partitions)
    if num_partitions is None:
        # size exchanges to the data: tiny graphs drown in per-partition
        # block overhead at the default P (O(CPUs)); ~64k edge rows per
        # partition keeps every exchange usefully parallel at scale
        from ..stages.exchange import default_num_partitions

        num_partitions = max(2, min(default_num_partitions(),
                                    (n_vecs * k) // 65536 + 1))

    # ---- init: LSH-bucket + random-bucket seed edges ----
    def tag_buckets(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        m = _normalize(_batch_matrix(batch, "embedding"))
        planes = _hyperplanes(m.shape[1], seed)
        bits = (m @ planes) > 0
        lsh = bits @ (1 << np.arange(N_PLANES)).astype(np.int64)
        rnd = (_splitmix(ids) % np.uint64(RANDOM_BUCKETS)).astype(np.int64)
        two = pa.concat_tables([
            pa.table({"bucket": pa.array(lsh, pa.int64()),
                      "vec_id": batch.column("vec_id").cast(pa.int64()),
                      "embedding": batch.column("embedding")}),
            pa.table({"bucket": pa.array(rnd + (1 << 40), pa.int64()),
                      "vec_id": batch.column("vec_id").cast(pa.int64()),
                      "embedding": batch.column("embedding")}),
        ])
        return two

    def init_edges(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({"src": pa.array([], pa.int64()),
                             "dst": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        part = part.sort_by([("bucket", "ascending"), ("vec_id", "ascending")])
        buckets = part.column("bucket").to_numpy(zero_copy_only=False)
        ids = part.column("vec_id").to_numpy(zero_copy_only=False)
        m = _normalize(_batch_matrix(part, "embedding"))
        cuts = np.flatnonzero(np.diff(buckets)) + 1
        srcs, dsts, sims = [], [], []
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(buckets)]):
            s, d, v = _bucket_edges(ids[lo:hi], m[lo:hi], k)
            srcs.append(s); dsts.append(d); sims.append(v)
        return pa.table({
            "src": pa.array(np.concatenate(srcs), pa.int64()),
            "dst": pa.array(np.concatenate(dsts), pa.int64()),
            "sim": pa.array(np.concatenate(sims), pa.float64()),
        })

    init_edges.__name__ = "knng_init"
    tagged = vecs.map_batches(tag_buckets, batch_format="pyarrow",
                              zero_copy_batch=True)
    graph = keyed_partition_map(tagged, ["bucket"], init_edges,
                                num_partitions=num_partitions)

    def topk_per_src(part: pa.Table) -> pa.Table:
        """(src, dst, sim) rows -> per src: distinct dst, top-k by
        (sim desc, dst asc)."""
        if part.num_rows == 0:
            return part
        s = part.column("src").to_numpy(zero_copy_only=False)
        d = part.column("dst").to_numpy(zero_copy_only=False)
        v = part.column("sim").to_numpy(zero_copy_only=False)
        order = np.lexsort((d, -v, s))
        s, d, v = s[order], d[order], v[order]
        first = np.ones(len(s), dtype=bool)
        first[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
        s, d, v = s[first], d[first], v[first]
        keep = group_ranks(s) < k
        return pa.table({"src": pa.array(s[keep], pa.int64()),
                         "dst": pa.array(d[keep], pa.int64()),
                         "sim": pa.array(v[keep], pa.float64())})

    topk_per_src.__name__ = "knng_topk"
    # each round consumes `graph` TWICE (candidate generation and the
    # union refresh); materializing per round keeps the lineage linear —
    # the graph is O(n*k) edge rows, never corpus-scale
    graph = keyed_partition_map(graph, ["src"], topk_per_src,
                                num_partitions=num_partitions).materialize()

    def undirect(batch: pa.Table) -> pa.Table:
        return pa.concat_tables([
            batch,
            pa.table({"src": batch.column("dst"), "dst": batch.column("src"),
                      "sim": batch.column("sim")}),
        ])

    def nn_pairs(part: pa.Table) -> pa.Table:
        """Per src: all unordered neighbor pairs (the NN-descent
        candidate generator), deduped within the partition."""
        if part.num_rows == 0:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64())})
        part = part.sort_by([("src", "ascending"), ("dst", "ascending")])
        s = part.column("src").to_numpy(zero_copy_only=False)
        d = part.column("dst").to_numpy(zero_copy_only=False)
        starts = np.r_[0, np.flatnonzero(s[1:] != s[:-1]) + 1]
        ends = np.r_[starts[1:], len(s)]
        aa, bb = [], []
        for lo, hi in zip(starts, ends):
            nbrs = np.unique(d[lo:hi])
            n = len(nbrs)
            if n < 2:
                continue
            iu = np.triu_indices(n, 1)
            aa.append(nbrs[iu[0]]); bb.append(nbrs[iu[1]])
        if not aa:
            return pa.table({"a": pa.array([], pa.int64()),
                             "b": pa.array([], pa.int64())})
        av, bv = np.concatenate(aa), np.concatenate(bb)
        if len(av) and av.min() >= 0 and max(av.max(), bv.max()) < (1 << 32):
            key = np.unique(av.astype(np.uint64) << np.uint64(32)
                            | bv.astype(np.uint64))
            av = (key >> np.uint64(32)).astype(np.int64)
            bv = (key & np.uint64(0xFFFFFFFF)).astype(np.int64)
        else:  # wide ids: dedupe via lexsort (no packing assumption)
            order = np.lexsort((bv, av))
            av, bv = av[order], bv[order]
            keep = np.ones(len(av), dtype=bool)
            keep[1:] = (av[1:] != av[:-1]) | (bv[1:] != bv[:-1])
            av, bv = av[keep], bv[keep]
        return pa.table({"a": pa.array(av, pa.int64()),
                         "b": pa.array(bv, pa.int64())})

    nn_pairs.__name__ = "knng_pairs"

    def attach(col_key: str, vec_name: str):
        def fn(cand: pa.Table, emb: pa.Table) -> pa.Table:
            if cand.num_rows == 0:
                return cand.append_column(
                    vec_name, pa.nulls(0, emb.schema.field("embedding").type))
            emb = emb.sort_by([("vec_id", "ascending")])
            eids = emb.column("vec_id").to_numpy(zero_copy_only=False)
            keys = cand.column(col_key).to_numpy(zero_copy_only=False)
            idx = np.searchsorted(eids, keys)
            return cand.append_column(
                vec_name, emb.column("embedding").combine_chunks().take(
                    pa.array(idx, pa.int64())))
        fn.__name__ = f"knng_attach_{col_key}"
        return fn

    for _ in range(rounds):
        und = graph.map_batches(undirect, batch_format="pyarrow",
                                zero_copy_batch=True)
        cand = keyed_partition_map(und, ["src"], nn_pairs,
                                   num_partitions=num_partitions)
        wa = keyed_cogroup_map(cand, vecs, ["a"], ["vec_id"],
                               attach("a", "va"),
                               num_partitions=num_partitions)

        def score(both: pa.Table, emb: pa.Table) -> pa.Table:
            if both.num_rows == 0:
                return pa.table({"src": pa.array([], pa.int64()),
                                 "dst": pa.array([], pa.int64()),
                                 "sim": pa.array([], pa.float64())})
            emb = emb.sort_by([("vec_id", "ascending")])
            eids = emb.column("vec_id").to_numpy(zero_copy_only=False)
            bb = both.column("b").to_numpy(zero_copy_only=False)
            idx = np.searchsorted(eids, bb)
            me = _normalize(_batch_matrix(emb, "embedding"))
            ma = _normalize(_batch_matrix(both, "va"))
            sim = np.einsum("ij,ij->i", ma, me[idx])
            a = both.column("a").to_numpy(zero_copy_only=False)
            return pa.table({
                "src": pa.array(np.concatenate([a, bb]), pa.int64()),
                "dst": pa.array(np.concatenate([bb, a]), pa.int64()),
                "sim": pa.array(np.concatenate([sim, sim]), pa.float64()),
            })

        score.__name__ = "knng_score"
        scored = keyed_cogroup_map(wa, vecs, ["b"], ["vec_id"], score,
                                   num_partitions=num_partitions)
        graph = keyed_partition_map(scored.union(graph), ["src"],
                                    topk_per_src,
                                    num_partitions=num_partitions).materialize()

    # ---- persist, manifest-tracked like the IVF index ----
    from ..stages.exchange import add_partition_column, default_num_partitions

    P = num_partitions or default_num_partitions()
    tagged_g = graph.map_batches(
        lambda b: add_partition_column(b, ["src"], P),
        batch_format="pyarrow", zero_copy_batch=True)
    entries = tagged_g.groupby("__part").map_groups(
        _GraphPartWriter(out_dir), batch_format="pyarrow").take_all()
    meta = {
        "format_version": FORMAT_VERSION,
        "kind": "knn_graph_cosine",
        "k": int(k), "rounds": int(rounds), "seed": int(seed),
        "num_partitions": P,
        "n_edges": int(sum(e["n_edges"] for e in entries)),
        "parts_built": sorted(int(e["part"]) for e in entries),
    }
    mf.write_meta(out_dir, meta)
    mf.mark_complete(out_dir)
    return meta


# ---- serving ----

@lru_cache(maxsize=4)
def _load_graph(index_dir: str):
    """CSR view of the graph: (sorted unique srcs, offsets, dsts)."""
    import pyarrow.dataset as pads

    paths = mf.built_segment_paths(index_dir, mf.load_meta(index_dir))
    if not paths:  # nothing built: a legitimately empty (0-vector) graph
        e = np.array([], dtype=np.int64)
        return e, np.array([0], dtype=np.int64), e.copy()
    t = pads.dataset(paths).to_table(columns=["src", "dst"])
    if t.num_rows > _SMALL_GRAPH:
        raise NotImplementedError(
            "in-process graph serving is gated to small graphs; use "
            "build_sharded_knn_graph + sharded_graph_topk (one resident "
            "actor per disjoint shard) beyond it")
    s = t.column("src").to_numpy(zero_copy_only=False)
    d = t.column("dst").to_numpy(zero_copy_only=False)
    order = np.lexsort((d, s))
    s, d = s[order], d[order]
    srcs, starts = np.unique(s, return_index=True)
    return srcs, np.r_[starts, len(s)], d


@lru_cache(maxsize=4)
def _load_vectors(emb_path: str, id_col: str = "vec_id",
                  vec_col: str = "embedding"):
    t = pq.read_table(emb_path, columns=[id_col, vec_col])
    ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(ids, kind="stable")
    m = _normalize(_batch_matrix(t, vec_col))
    return ids[order], m[order]


def graph_topk(
    index_dir: str,
    emb_path: str,
    query_vectors: np.ndarray,
    *,
    k: int = 10,
    beam: int = 64,
    n_entries: int = 8,
    entry_from_graph: bool = False,
    vectors: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> pa.Table:
    """Beam-search cosine top-k over the persisted k-NN graph. Entry
    points are a deterministic spread of node ids; the loop expands the
    best unexpanded candidate until it scores below the beam's worst
    (the kgraph/HNSW ef-search termination). Returns (query_id, rank,
    vec_id, cos_sim) — same shape as ivf_topk.

    ``entry_from_graph``: spread entries over the GRAPH's nodes instead
    of the vector table's ids — required when the graph covers only a
    shard of the vectors (sharded serving), where table-spread entries
    would mostly be un-expandable out-of-shard nodes."""
    srcs, offs, dsts = _load_graph(index_dir)
    ids, m = vectors if vectors is not None else _load_vectors(emb_path)
    q = _normalize(np.asarray(query_vectors, dtype=np.float64))
    base = srcs if entry_from_graph else ids
    entry_ids = base[:: max(1, len(base) // n_entries)][:n_entries]
    if len(entry_ids) == 0:
        return pa.table({
            "query_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int32()),
            "vec_id": pa.array([], pa.int64()),
            "cos_sim": pa.array([], pa.float64()),
        })
    out = {"query_id": [], "rank": [], "vec_id": [], "cos_sim": []}
    for qi in range(len(q)):
        qv = q[qi]
        pos = np.searchsorted(ids, entry_ids)
        sims = m[pos] @ qv
        visited = set(entry_ids.tolist())
        # candidate max-heap (unexpanded) and result min-heap (beam best)
        cand = [(-s, int(i)) for s, i in zip(sims, entry_ids)]
        heapq.heapify(cand)
        res = [(s, -int(i)) for s, i in zip(sims, entry_ids)]
        heapq.heapify(res)
        while len(res) > beam:
            heapq.heappop(res)
        while cand:
            negs, node = heapq.heappop(cand)
            if len(res) >= beam and -negs < res[0][0]:
                break
            gi = np.searchsorted(srcs, node)
            if gi >= len(srcs) or srcs[gi] != node:
                continue
            nbrs = dsts[offs[gi]:offs[gi + 1]]
            fresh = np.array([x for x in nbrs.tolist() if x not in visited],
                             dtype=np.int64)
            if not len(fresh):
                continue
            visited.update(fresh.tolist())
            fp = np.searchsorted(ids, fresh)
            fs = m[fp] @ qv
            for s, i in zip(fs, fresh):
                heapq.heappush(cand, (-float(s), int(i)))
                heapq.heappush(res, (float(s), -int(i)))
                if len(res) > beam:
                    heapq.heappop(res)
        best = sorted(((s, -ni) for s, ni in res),
                      key=lambda t: (-t[0], t[1]))[:k]
        out["query_id"].extend([qi] * len(best))
        out["rank"].extend(range(1, len(best) + 1))
        out["vec_id"].extend(i for _, i in best)
        out["cos_sim"].extend(s for s, _ in best)
    return pa.table({
        "query_id": pa.array(out["query_id"], pa.int64()),
        "rank": pa.array(out["rank"], pa.int32()),
        "vec_id": pa.array(out["vec_id"], pa.int64()),
        "cos_sim": pa.array(out["cos_sim"], pa.float64()),
    })


# ---- sharded build + serving (the 100 TB path) ----
#
# Donkey's fleet shape: vectors hash-split into S disjoint shards, each
# shard owns its OWN k-NN graph (built independently — NN-descent or the
# local exact path per shard), and a query fans out to every shard's
# resident server, merging the per-shard beams. Disjoint shards mean the
# merge needs no dedup, per-server memory is O(|shard|), and S scales
# with the corpus while per-query work stays O(S x beam).


def _shard_dir(out_dir: str, s: int) -> str:
    return os.path.join(out_dir, f"shard={s:03d}")


def shard_of(ids: np.ndarray, n_shards: int) -> np.ndarray:
    """Deterministic shard assignment (splitmix64 of vec_id)."""
    return (_splitmix(ids.astype(np.uint64)) % np.uint64(n_shards)).astype(
        np.int64)


def build_sharded_knn_graph(
    ds: ray.data.Dataset,
    out_dir: str,
    *,
    n_shards: int = 4,
    k: int = 8,
    rounds: int = 3,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
    seed: int = 42,
    local_max_vectors: int = LOCAL_EXACT_MAX,
) -> dict:
    """Build (once; per-shard resumable) S disjoint shard graphs under
    ``out_dir``. A killed build re-enters and skips _SUCCESS-complete
    shards — lineage is per shard, then per partition inside a shard.

    Resume safety: the build parameters are pinned to a _PARAMS.json
    written BEFORE any shard builds; re-entering with different
    parameters (above all n_shards — shard membership depends on it)
    discards every partial artifact instead of mixing shard layouts.
    Read amplification: the input is scanned ONCE into a shard=N
    partitioned vector spill; each shard build reads only its own
    partition (partition-pruned), not the whole dataset again. Shard
    builds run sequentially here (each is internally parallel); on a
    real cluster they can be launched concurrently — they share no
    state."""
    import shutil

    params = {"format_version": FORMAT_VERSION, "n_shards": int(n_shards),
              "k": int(k), "rounds": int(rounds), "seed": int(seed)}
    if mf.is_complete(out_dir):
        meta = mf.load_meta(out_dir)
        if all(meta.get(kk) == vv for kk, vv in params.items()):
            return meta
        shutil.rmtree(out_dir)  # complete but built under other params
    params_path = os.path.join(out_dir, "_PARAMS.json")
    if os.path.exists(params_path):
        import json as _json

        with open(params_path) as f:
            if _json.load(f) != params:
                shutil.rmtree(out_dir)  # partial build, other params
    os.makedirs(out_dir, exist_ok=True)
    mf.atomic_write_json(params_path, params)

    # ---- ONE input scan: spill vectors partitioned by shard ----
    vec_dir = os.path.join(out_dir, "vecs")
    vec_marker = os.path.join(out_dir, "_VECS_SUCCESS")
    if not os.path.exists(vec_marker):
        shutil.rmtree(vec_dir, ignore_errors=True)

        def tag(batch: pa.Table) -> pa.Table:
            ids = batch.column(id_col).to_numpy(
                zero_copy_only=False).astype(np.int64)
            return pa.table({
                "vec_id": batch.column(id_col).cast(pa.int64()),
                "embedding": batch.column(vec_col),
                "shard": pa.array(shard_of(ids, n_shards), pa.int64()),
            })

        tag.__name__ = "knng_shard_tag"
        ds.map_batches(tag, batch_format="pyarrow",
                       zero_copy_batch=True).write_parquet(
            vec_dir, partition_cols=["shard"])
        mf.atomic_write_bytes(vec_marker, b"")

    shard_metas = []
    for s in range(n_shards):
        part_dir = os.path.join(vec_dir, f"shard={s}")
        if os.path.isdir(part_dir):
            sub = ray.data.read_parquet(
                part_dir, columns=["vec_id", "embedding"])
        else:  # no vectors hashed to this shard
            sub = ray.data.from_arrow(pa.table({
                "vec_id": pa.array([], pa.int64()),
                "embedding": pa.array([], pa.list_(pa.float64())),
            }))
        sm = build_knn_graph(
            sub, _shard_dir(out_dir, s), k=k, rounds=rounds,
            vec_col="embedding", id_col="vec_id", seed=seed,
            local_max_vectors=local_max_vectors,
        )
        shard_metas.append({"shard": s, "n_edges": sm["n_edges"]})
    meta = {
        "format_version": FORMAT_VERSION,
        "kind": "sharded_knn_graph_cosine",
        "n_shards": int(n_shards),
        "k": int(k), "rounds": int(rounds), "seed": int(seed),
        "n_edges": int(sum(m["n_edges"] for m in shard_metas)),
        "shards": shard_metas,
    }
    mf.write_meta(out_dir, meta)
    mf.mark_complete(out_dir)
    return meta


class _GraphShardServer:
    """One shard's resident search server (donkey's per-node searcher):
    graph CSR + normalized vectors load ONCE in __init__ (actor state,
    not per query); every query is a local beam search over this shard's
    nodes only. RETAINED vectors are the shard members' only — O(N/S)
    per actor; the full table is read transiently at startup because the
    sandbox stores embeddings as one file (a production deployment
    pre-shards the vector store by the same hash and reads only its
    slice). Declared plain and wrapped with ray.remote at use time so
    the class stays unit-testable in-process."""

    def __init__(self, shard_dir: str, emb_path: str,
                 shard: int | None = None,
                 n_shards: int | None = None) -> None:
        self.shard_dir = shard_dir
        self.emb_path = emb_path
        # EXACT shards (built by the driver-local gram path) serve by
        # exhaustive scoring of the resident members — the vectors are
        # already in actor memory, n is <= LOCAL_EXACT_MAX by
        # construction, and it makes the sharded answer honestly exact
        # instead of beam-approximate (a shard component unreachable
        # from the spread entry points can otherwise break exactness).
        self.exact = bool(mf.load_meta(shard_dir).get("local_exact"))
        if not self.exact:
            _load_graph(shard_dir)  # warm: actor state, not per query
        ids, m = _load_vectors(emb_path)
        if shard is not None and n_shards:
            mask = shard_of(ids, n_shards) == shard
            self.vectors = (ids[mask].copy(), m[mask].copy())
            _load_vectors.cache_clear()  # drop the transient full table
        else:
            self.vectors = (ids, m)

    def _exact_topk(self, query_vectors: np.ndarray, k: int) -> pa.Table:
        ids, m = self.vectors
        q = _normalize(np.asarray(query_vectors, dtype=np.float64))
        return _topk_table(*_flat_sims(ids, m @ q.T), k)

    def topk(self, query_vectors: np.ndarray, k: int, beam: int) -> pa.Table:
        if self.exact:
            return self._exact_topk(query_vectors, k)
        return graph_topk(self.shard_dir, self.emb_path, query_vectors,
                          k=k, beam=beam, entry_from_graph=True,
                          vectors=self.vectors)


def sharded_graph_topk(
    out_dir: str,
    emb_path: str,
    query_vectors: np.ndarray,
    *,
    k: int = 10,
    beam: int = 64,
) -> pa.Table:
    """Fan-out / merge over the shard servers: every query runs on all S
    shards concurrently (one actor per shard, state resident), and the
    disjoint per-shard beams merge by (cos_sim desc, vec_id asc) — no
    dedup needed. At 100 TB the actors are long-lived placement-spread
    processes; here they spin up per call and are killed after."""
    import ray

    meta = mf.load_meta(out_dir)
    n_shards = int(meta["n_shards"])
    # SPREAD: one resident server per shard, each on its own node on a
    # real cluster (per-actor memory O(|shard|)); no-op single-node
    Server = ray.remote(_GraphShardServer).options(
        scheduling_strategy="SPREAD")
    actors = [Server.remote(_shard_dir(out_dir, s), emb_path,
                            shard=s, n_shards=n_shards)
              for s in range(n_shards)]
    try:
        tables = ray.get([a.topk.remote(query_vectors, k, beam)
                          for a in actors])
    finally:
        for a in actors:
            ray.kill(a)
    allt = pa.concat_tables(tables)
    return _topk_table(*(allt.column(c).to_numpy(zero_copy_only=False)
                         for c in ("query_id", "vec_id", "cos_sim")), k)
