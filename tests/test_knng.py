"""NN-descent k-NN graph: build determinism/resume, recall vs brute
force, and beam-search serving shape."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.01"
EMB = f"{SF_DIR}/embeddings.parquet"


@pytest.fixture(scope="module")
def graph_index(ray_session, tmp_path_factory):
    import ray.data

    from donkey_ray.pipelines.knng import build_knn_graph

    out = str(tmp_path_factory.mktemp("knng") / "idx")
    meta = build_knn_graph(
        ray.data.read_parquet(EMB, columns=["vec_id", "embedding"]),
        out, k=16, rounds=2, local_max_vectors=0,  # pin the DISTRIBUTED path
    )
    return out, meta


def _brute_topk(qv: np.ndarray, k: int) -> list[list[int]]:
    t = pq.read_table(EMB, columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_numpy(zero_copy_only=False)
    m = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True)
    q = qv / np.linalg.norm(qv, axis=1, keepdims=True)
    sims = q @ m.T
    out = []
    for row in sims:
        top = np.lexsort((ids, -row))[:k]
        out.append(ids[top].tolist())
    return out


def test_graph_artifact_shape(graph_index):
    out, meta = graph_index
    assert meta["kind"] == "knn_graph_cosine"
    assert meta["n_edges"] > 0
    from donkey_ray.state import manifest as mf

    seg = pq.read_table(mf.segment_path(out, meta["parts_built"][0]))
    assert seg.column_names == ["src", "dst", "sim"]
    # no self-loops; per-src degree <= k
    s = seg.column("src").to_numpy(zero_copy_only=False)
    d = seg.column("dst").to_numpy(zero_copy_only=False)
    assert (s != d).all()
    _, counts = np.unique(s, return_counts=True)
    assert counts.max() <= meta["k"]


def test_recall_at_10(graph_index):
    from donkey_ray.pipelines.knng import graph_topk

    out, _ = graph_index
    t = pq.read_table(EMB, columns=["vec_id", "embedding"])
    by_id = dict(zip(t.column("vec_id").to_pylist(),
                     t.column("embedding").to_pylist()))
    qids = [0, 7, 42, 99, 123, 250, 499]
    qv = np.asarray([by_id[i] for i in qids], dtype=np.float64)
    got = graph_topk(out, EMB, qv, k=10, beam=64)
    want = _brute_topk(qv, 10)
    hits = total = 0
    for qi in range(len(qids)):
        g = {r["vec_id"] for r in got.to_pylist() if r["query_id"] == qi}
        hits += len(g & set(want[qi]))
        total += len(want[qi])
    assert hits / total >= 0.9, f"recall {hits}/{total}"


def test_build_resume_is_noop(graph_index, ray_session):
    import ray.data

    from donkey_ray.pipelines.knng import build_knn_graph

    out, meta = graph_index
    files_before = sorted(
        os.path.join(r, f) for r, _, fs in os.walk(out) for f in fs
    )
    meta2 = build_knn_graph(
        ray.data.read_parquet(EMB, columns=["vec_id", "embedding"]),
        out, k=16, rounds=2,
    )
    assert meta2 == meta
    files_after = sorted(
        os.path.join(r, f) for r, _, fs in os.walk(out) for f in fs
    )
    assert files_before == files_after


def test_serving_shape_and_tiebreak(graph_index):
    from donkey_ray.pipelines.knng import graph_topk

    out, _ = graph_index
    t = pq.read_table(EMB, columns=["vec_id", "embedding"])
    qv = np.asarray(t.column("embedding").to_pylist()[:2], dtype=np.float64)
    res = graph_topk(out, EMB, qv, k=5, beam=32)
    assert res.column_names == ["query_id", "rank", "vec_id", "cos_sim"]
    df = res.to_pylist()
    for qi in (0, 1):
        rows = [r for r in df if r["query_id"] == qi]
        assert [r["rank"] for r in rows] == list(range(1, len(rows) + 1))
        sims = [r["cos_sim"] for r in rows]
        assert sims == sorted(sims, reverse=True)
        # a query that IS a corpus vector must find itself first
        assert rows[0]["vec_id"] == t.column("vec_id")[qi].as_py()
        assert rows[0]["cos_sim"] == pytest.approx(1.0)


def test_local_exact_path(ray_session, tmp_path):
    """Small inputs take the driver-local EXACT path: same artifact
    layout/meta shape, recall 1.0 vs brute force through serving."""
    import ray.data

    from donkey_ray.pipelines.knng import build_knn_graph, graph_topk

    out = str(tmp_path / "idx_local")
    meta = build_knn_graph(
        ray.data.read_parquet(EMB, columns=["vec_id", "embedding"]),
        out, k=16, rounds=2,
    )
    assert meta.get("local_exact") is True
    assert meta["n_edges"] > 0
    t = pq.read_table(EMB, columns=["vec_id", "embedding"])
    qv = np.asarray(t.column("embedding").to_pylist()[:5], dtype=np.float64)
    res = graph_topk(out, EMB, qv, k=10, beam=64)
    want = _brute_topk(qv, 10)
    got = {qi: [] for qi in range(5)}
    for r in res.to_pylist():
        got[r["query_id"]].append(r["vec_id"])
    hits = sum(len(set(got[qi]) & set(want[qi])) for qi in range(5))
    assert hits / 50.0 >= 0.95  # exact graph: beam search near-perfect


def test_sharded_build_and_serving(ray_session, tmp_path):
    """Sharded graph (the 100 TB serving path): disjoint hash shards,
    one resident server per shard, fan-out/merge. With the per-shard
    EXACT local build, the merged top-k must EQUAL brute force (a
    disjoint cover of exact per-shard answers is globally exact)."""
    import ray.data

    from donkey_ray.pipelines.knng import (
        build_sharded_knn_graph,
        shard_of,
        sharded_graph_topk,
    )

    out = str(tmp_path / "sharded")
    meta = build_sharded_knn_graph(
        ray.data.read_parquet(EMB, columns=["vec_id", "embedding"]),
        out, n_shards=3, k=16, rounds=2,
    )
    assert meta["n_shards"] == 3
    # disjoint cover: every vector belongs to exactly one shard
    t = pq.read_table(EMB, columns=["vec_id"])
    ids = t.column("vec_id").to_numpy(zero_copy_only=False)
    sh = shard_of(ids.astype(np.int64), 3)
    assert len(np.unique(sh)) == 3

    t2 = pq.read_table(EMB, columns=["vec_id", "embedding"])
    qv = np.asarray(t2.column("embedding").to_pylist()[:4], dtype=np.float64)
    res = sharded_graph_topk(out, EMB, qv, k=10, beam=64)
    want = _brute_topk(qv, 10)
    got = {qi: [] for qi in range(4)}
    for r in res.to_pylist():
        got[r["query_id"]].append(r["vec_id"])
    assert [got[qi] for qi in range(4)] == want

    # resume: a second call returns the same meta without rebuilding
    meta2 = build_sharded_knn_graph(
        ray.data.read_parquet(EMB, columns=["vec_id", "embedding"]),
        out, n_shards=3, k=16, rounds=2,
    )
    assert meta2 == meta


def test_sharded_param_change_rebuilds(ray_session, tmp_path):
    """REGRESSION (review finding): shard membership depends on
    n_shards; re-entering an artifact built under different parameters
    must discard it, not mix shard layouts."""
    import ray.data

    from donkey_ray.pipelines.knng import (
        build_sharded_knn_graph,
        sharded_graph_topk,
    )

    out = str(tmp_path / "resharded")
    m3 = build_sharded_knn_graph(
        ray.data.read_parquet(EMB, columns=["vec_id", "embedding"]),
        out, n_shards=3, k=16, rounds=2,
    )
    assert m3["n_shards"] == 3
    m4 = build_sharded_knn_graph(
        ray.data.read_parquet(EMB, columns=["vec_id", "embedding"]),
        out, n_shards=4, k=16, rounds=2,
    )
    assert m4["n_shards"] == 4  # rebuilt, not served stale
    t = pq.read_table(EMB, columns=["vec_id", "embedding"])
    qv = np.asarray(t.column("embedding").to_pylist()[:2], dtype=np.float64)
    res = sharded_graph_topk(out, EMB, qv, k=10, beam=64)
    want = _brute_topk(qv, 10)
    got = {qi: [] for qi in range(2)}
    for r in res.to_pylist():
        got[r["query_id"]].append(r["vec_id"])
    assert [got[qi] for qi in range(2)] == want


def test_single_vector_shard_is_reachable(ray_session, tmp_path):
    """REGRESSION (review finding): a shard holding exactly ONE vector
    must still serve it (self-loop artifact keeps the node a graph src
    for entry-point selection)."""
    import ray.data

    from donkey_ray.pipelines.knng import (
        build_sharded_knn_graph,
        shard_of,
        sharded_graph_topk,
    )

    # find ids giving some shard exactly one member at n_shards=4
    rng = np.random.default_rng(11)
    ids = np.arange(64, dtype=np.int64)
    sh = shard_of(ids, 4)
    counts = np.bincount(sh, minlength=4)
    lonely_shard = None
    keep = None
    for s in range(4):
        members = np.flatnonzero(sh == s)
        if len(members) >= 1:
            # keep exactly ONE member of shard s plus all other shards
            keep = np.r_[members[:1], np.flatnonzero(sh != s)]
            lonely_shard = s
            break
    assert lonely_shard is not None
    kept_ids = ids[np.sort(keep)]
    vecs = rng.standard_normal((len(kept_ids), 8))
    lone_id = int(ids[np.flatnonzero(sh == lonely_shard)[0]])
    lone_pos = int(np.flatnonzero(kept_ids == lone_id)[0])
    tbl = pa.table({
        "vec_id": pa.array(kept_ids, pa.int64()),
        "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64())),
    })
    emb_path = str(tmp_path / "emb.parquet")
    pq.write_table(tbl, emb_path)
    out = str(tmp_path / "lonely")
    build_sharded_knn_graph(
        ray.data.from_arrow(tbl), out, n_shards=4, k=8, rounds=1,
    )
    res = sharded_graph_topk(out, emb_path, vecs[lone_pos][None, :], k=1,
                             beam=32)
    rows = res.to_pylist()
    assert rows and rows[0]["vec_id"] == lone_id
    assert rows[0]["cos_sim"] == pytest.approx(1.0)


def test_knn_graph_param_change_rebuilds(ray_session, tmp_path):
    """REGRESSION (ADVICE r2): build_knn_graph's resume ignored build
    parameters — re-entering a complete artifact with a different k (or
    forcing the distributed path over a cached exact graph) must rebuild
    instead of silently serving the stale artifact."""
    import ray.data

    from donkey_ray.pipelines.knng import build_knn_graph

    rng = np.random.default_rng(5)
    tbl = pa.table({
        "vec_id": pa.array(range(40), pa.int64()),
        "embedding": pa.array(
            rng.standard_normal((40, 8)).tolist(), pa.list_(pa.float64())),
    })
    out = str(tmp_path / "pguard")
    m1 = build_knn_graph(ray.data.from_arrow(tbl), out, k=4)
    assert m1["k"] == 4 and m1["local_exact"] is True
    # different k: rebuilt, not served stale
    m2 = build_knn_graph(ray.data.from_arrow(tbl), out, k=6)
    assert m2["k"] == 6
    # unchanged params: resume is still a no-op returning the cached meta
    m3 = build_knn_graph(ray.data.from_arrow(tbl), out, k=6)
    assert m3 == m2
    # an exact cache satisfies any rounds request...
    m4 = build_knn_graph(ray.data.from_arrow(tbl), out, k=6, rounds=5)
    assert m4 == m2
    # ...but NOT a forced-distributed request
    m5 = build_knn_graph(ray.data.from_arrow(tbl), out, k=6, rounds=2,
                         local_max_vectors=0)
    assert not m5.get("local_exact")


def test_exact_shard_server_ignores_beam(ray_session, tmp_path):
    """ADVICE r2 medium: a shard built by the local EXACT path serves by
    exhaustive scoring of its resident members, so the sharded answer is
    exact by construction — even at beam=1 (beam search over the same
    graph could miss a component unreachable from the entry spread)."""
    import ray.data

    from donkey_ray.pipelines.knng import (
        _GraphShardServer,
        _shard_dir,
        build_sharded_knn_graph,
        sharded_graph_topk,
    )

    out = str(tmp_path / "exact_shards")
    build_sharded_knn_graph(
        ray.data.read_parquet(EMB, columns=["vec_id", "embedding"]),
        out, n_shards=3, k=8, rounds=2,
    )
    srv = _GraphShardServer(_shard_dir(out, 0), EMB, shard=0, n_shards=3)
    assert srv.exact is True
    t = pq.read_table(EMB, columns=["vec_id", "embedding"])
    qv = np.asarray(t.column("embedding").to_pylist()[:3], dtype=np.float64)
    res = sharded_graph_topk(out, EMB, qv, k=10, beam=1)
    want = _brute_topk(qv, 10)
    got = {qi: [] for qi in range(3)}
    for r in res.to_pylist():
        got[r["query_id"]].append(r["vec_id"])
    assert [got[qi] for qi in range(3)] == want


def test_missing_graph_segment_raises(ray_session, tmp_path):
    """A built graph partition whose segment is gone is an integrity
    error, not a smaller graph: beam search over the rest would drop
    that partition's edges with no symptom. (A fresh dir: _load_graph
    is cached per index dir.)"""
    import ray.data

    from donkey_ray.pipelines.knng import build_knn_graph, graph_topk
    from donkey_ray.state import manifest as mf

    rng = np.random.default_rng(4)
    vecs = rng.standard_normal((80, 8))
    emb = str(tmp_path / "emb.parquet")
    pq.write_table(pa.table({
        "vec_id": pa.array(range(80), pa.int64()),
        "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64())),
    }), emb)
    out = str(tmp_path / "graph_lost_segment")
    meta = build_knn_graph(
        ray.data.read_parquet(emb, columns=["vec_id", "embedding"]), out,
        k=4, num_partitions=2)
    assert meta["parts_built"] == [0, 1]
    os.unlink(mf.segment_path(out, 1))
    with pytest.raises(FileNotFoundError, match="missing"):
        graph_topk(out, emb, vecs[:2], k=5)
