"""IVF ANN index: exactness at full probe, recall at partial probe,
resume, and pruned reads."""

import os

import numpy as np
import pyarrow as pa
import pytest

from donkey_ray.pipelines.ann import brute_force_topk
from donkey_ray.pipelines.ivf import build_ivf_index, ivf_topk
from donkey_ray.state import manifest as mf


@pytest.fixture(scope="module")
def vec_ds(ray_session):
    import ray.data

    rng = np.random.default_rng(31)
    # clustered data so IVF lists are meaningful: 8 gaussian blobs
    centers = rng.standard_normal((8, 24)) * 4
    vecs = np.vstack([
        centers[i % 8] + rng.standard_normal(24) for i in range(600)
    ])
    tbl = pa.table(
        {"vec_id": pa.array(range(600), pa.int64()),
         "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64()))}
    )
    return ray.data.from_arrow(tbl), vecs


@pytest.fixture(scope="module")
def built_ivf(vec_ds, tmp_path_factory):
    ds, vecs = vec_ds
    out = str(tmp_path_factory.mktemp("ivf") / "index")
    meta = build_ivf_index(ds, out, n_lists=16, num_partitions=4, sample_mod=2)
    return ds, vecs, out, meta


def test_meta_and_layout(built_ivf):
    _, vecs, out, meta = built_ivf
    assert meta["n_vecs"] == 600 and meta["dim"] == 24
    assert meta["parts_built"] == [0, 1, 2, 3]
    assert os.path.exists(os.path.join(out, "centroids.parquet"))
    assert mf.is_complete(out)


def test_full_probe_is_exact(built_ivf):
    ds, vecs, out, _ = built_ivf
    q = vecs[[0, 17, 333]]
    want = brute_force_topk(ds, q, k=10)
    got = ivf_topk(out, q, k=10, nprobe=None)
    assert got.column("vec_id").to_pylist() == want.column("vec_id").to_pylist()
    np.testing.assert_allclose(
        got.column("cos_sim").to_pylist(),
        want.column("cos_sim").to_pylist(), atol=1e-12,
    )


def test_partial_probe_recall(built_ivf):
    ds, vecs, out, _ = built_ivf
    rng = np.random.default_rng(5)
    q = vecs[rng.choice(600, size=20, replace=False)]
    want = brute_force_topk(ds, q, k=10)
    got = ivf_topk(out, q, k=10, nprobe=4)
    hits = 0
    for qi in range(20):
        w = {r["vec_id"] for r in want.to_pylist() if r["query_id"] == qi}
        g = {r["vec_id"] for r in got.to_pylist() if r["query_id"] == qi}
        hits += len(w & g)
    recall = hits / (20 * 10)
    assert recall >= 0.9, recall


def test_resume_rebuilds_only_missing_partition(vec_ds, tmp_path):
    ds, _ = vec_ds
    out = str(tmp_path / "ivf")
    build_ivf_index(ds, out, n_lists=8, num_partitions=4, sample_mod=2)
    hashes = {p: mf.file_sha256(mf.segment_path(out, p)) for p in range(4)}
    os.unlink(os.path.join(out, "_SUCCESS"))
    os.unlink(mf.manifest_path(out, 2))
    os.unlink(mf.segment_path(out, 2))
    meta2 = build_ivf_index(ds, out, n_lists=8, num_partitions=4, sample_mod=2)
    assert meta2["parts_skipped_on_resume"] == [0, 1, 3]
    after = {p: mf.file_sha256(mf.segment_path(out, p)) for p in range(4)}
    assert after == hashes  # byte-identical (deterministic writer)


def test_missing_segment_raises(vec_ds, tmp_path):
    """A built partition whose segment is gone is an integrity error for
    both IVF readers (ivf_topk and the kNN-eval prober), not an empty
    list: serving the rest returns a plausible wrong top-k."""
    from donkey_ray.pipelines.ann import _IVFNeighborProber

    ds, vecs = vec_ds
    out = str(tmp_path / "ivf")
    build_ivf_index(ds, out, n_lists=16, num_partitions=4, sample_mod=2)
    os.unlink(mf.segment_path(out, 1))
    with pytest.raises(FileNotFoundError, match="missing"):
        ivf_topk(out, vecs[[0]], k=5, nprobe=None)
    prober = _IVFNeighborProber(out, 5, None, "embedding", "vec_id", "label")
    batch = pa.table({
        "vec_id": pa.array([0], pa.int64()),
        "label": pa.array([0], pa.int64()),
        "embedding": pa.array(vecs[[0]].tolist(), pa.list_(pa.float64())),
    })
    with pytest.raises(FileNotFoundError, match="missing"):
        prober(batch)


def test_reader_under_tiny_budget_answers_exactly(built_ivf, monkeypatch):
    """A reader budget smaller than one partition evicts on every load,
    so a reused reader re-reads every partition on every call; it must
    answer exactly like the default budget: ivf_topk, a reused reader at
    every nprobe (and brute force at nprobe=None), and a reused kNN-eval
    prober with its leave-one-out."""
    from donkey_ray.pipelines import ivf
    from donkey_ray.pipelines.ann import _IVFNeighborProber

    ds, vecs, out, _ = built_ivf
    qids = [0, 17, 333, 599]
    q = vecs[qids]
    batch = pa.table({
        "vec_id": pa.array(qids, pa.int64()),
        "label": pa.array([0, 1, 2, 3], pa.int64()),
        "embedding": pa.array(q.tolist(), pa.list_(pa.float64())),
    })

    def answers():
        reader = ivf.IVFReader(out)
        hits = [reader.topk(q, 10, n) for n in (None, 4, 1, None)]
        edges = []
        for n in (None, 4):
            prober = _IVFNeighborProber(out, 5, n, "embedding", "vec_id",
                                        "label")
            edges += [prober(batch), prober(batch.slice(1))]
        tables = [ivf_topk(out, q, k=10, nprobe=n) for n in (None, 4)]
        return reader, hits, edges, tables

    _, want_hits, want_edges, want_tables = answers()
    monkeypatch.setattr(ivf, "PART_CACHE_BYTES", 1)
    reader, hits, edges, tables = answers()
    assert reader._parts.total == 0 and not reader._parts._d  # all evicted
    for got, want in zip(hits, want_hits):
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
    for got, want in zip(edges + tables, want_edges + want_tables):
        assert got.equals(want)
    brute = brute_force_topk(ds, q, k=10)
    assert tables[0].column("vec_id").equals(brute.column("vec_id"))
    np.testing.assert_allclose(tables[0].column("cos_sim").to_numpy(),
                               brute.column("cos_sim").to_numpy(), atol=1e-12)
    # leave-one-out at full probe: brute force over the other vectors
    m = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    nbr = edges[0].column("nbr_id").to_numpy()
    for i, v in enumerate(qids):
        s = m @ m[v]
        s[v] = -np.inf
        assert nbr[i * 5:(i + 1) * 5].tolist() == \
            np.lexsort((np.arange(600), -s))[:5].tolist()


def test_reader_shared_by_threads_under_eviction(built_ivf, monkeypatch):
    """One reader searched from several threads at once (an in-process
    VectorServer behind the threaded HTTP frontend) while a budget of
    about one partition evicts on nearly every load: every answer equals
    the single-threaded one and the cache stays within its budget."""
    import sys
    import threading

    from donkey_ray.pipelines import ivf

    _, vecs, out, _ = built_ivf
    monkeypatch.setattr(ivf, "PART_CACHE_BYTES", 40_000)
    reader = ivf.IVFReader(out)
    cases = [(vecs[[i, i + 1]], n) for i, n in
             zip(range(0, 48, 6), (None, 4, 1, 2) * 2)]
    want = [reader.topk(q, 10, n) for q, n in cases]
    errors: list = []

    def worker(seed):
        try:
            for j in range(40):
                c = (seed + j) % len(cases)
                q, nprobe = cases[c]
                for g, w in zip(reader.topk(q, 10, nprobe), want[c]):
                    np.testing.assert_array_equal(g, w)
        except Exception as ex:  # reported by the main thread
            errors.append(ex)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert reader._parts.total <= reader._parts.budget


@pytest.mark.parametrize("nprobe", [0, -1])
def test_nprobe_below_one_raises(built_ivf, nprobe):
    from donkey_ray.pipelines.ann import _IVFNeighborProber

    _, vecs, out, _ = built_ivf
    with pytest.raises(ValueError, match="nprobe"):
        ivf_topk(out, vecs[[0]], k=5, nprobe=nprobe)
    with pytest.raises(ValueError, match="nprobe"):
        _IVFNeighborProber(out, 5, nprobe, "embedding", "vec_id", "label")


def test_pq_train_encode_search(vec_ds):
    """PQ: (1) fused training equals M independent pinned k-means runs
    over the sliced sub-vectors; (2) codes equal per-subspace integer
    assignment recomputed in numpy; (3) training and encoding are block
    -layout invariant; (4) ADC top-k has usable recall vs exact L2 on
    clustered data and exact self-consistency on reordered input."""
    import ray.data

    from donkey_ray.pipelines.kmeans import _assign_ids, _quantize, kmeans_fit
    from donkey_ray.pipelines.pq import (
        pq_encode, pq_search, pq_train)
    from donkey_ray.util import dataset_to_table

    ds, vecs = vec_ds
    m, k = 4, 16
    books = pq_train(ds, m=m, k=k, iterations=2)
    assert len(books) == m and all(len(b) == k for b in books)

    # (1) fused == per-subspace kmeans_fit over sliced datasets
    w = vecs.shape[1] // m
    for s in range(m):
        sub_tbl = pa.table({
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array(vecs[:, s * w:(s + 1) * w].tolist(),
                                  pa.list_(pa.float64())),
        })
        ref = kmeans_fit(ray.data.from_arrow(sub_tbl), k=k, iterations=2)
        assert books[s] == ref, f"subspace {s}"

    # (2) + (3): codes match reference assignment; layout invariant
    enc = dataset_to_table(pq_encode(ds, books)).sort_by("vec_id")
    q = _quantize(vecs)
    for s in range(m):
        ref_codes = _assign_ids(q[:, s * w:(s + 1) * w],
                                np.asarray(books[s], np.int64)) + 1
        got = [c[s] for c in enc.column("codes").to_pylist()]
        assert got == list(ref_codes), f"subspace {s}"
    books7 = pq_train(ds.repartition(7), m=m, k=k, iterations=2)
    assert books7 == books
    enc5 = dataset_to_table(pq_encode(ds.repartition(5), books)
                            ).sort_by("vec_id")
    assert enc.equals(enc5)

    # (4) ADC quality on clustered blobs: PQ quantization collapses
    # WITHIN-blob detail (same codes -> tied distances), so the right
    # bar is blob-level: results must come from the query's own blob
    # (vec i belongs to blob i % 8 by construction)
    rng = np.random.default_rng(9)
    qidx = rng.choice(len(vecs), size=10, replace=False)
    res = pq_search(pq_encode(ds, books), books, vecs[qidx], k=10)
    same_blob = 0
    for q_, v in zip(res.column("query_id").to_pylist(),
                     res.column("vec_id").to_pylist()):
        same_blob += (v % 8) == (int(qidx[q_]) % 8)
    assert same_blob / (10 * len(qidx)) >= 0.9, same_blob
    res5 = pq_search(pq_encode(ds.repartition(5), books), books,
                     vecs[qidx], k=10)
    assert res.equals(res5)


def test_pq_index_artifact(vec_ds, tmp_path):
    """Persisted PQ index: artifact search == direct pq_search over a
    fresh encode; layout has books + segments + manifests + _SUCCESS;
    a rebuild call reuses the artifact (no segment rewrite)."""
    import json
    import os
    import time

    from donkey_ray.pipelines.pq import (
        build_pq_index, load_pq_books, pq_encode, pq_index_topk, pq_search)
    from donkey_ray.state import manifest as mf

    ds, vecs = vec_ds
    out = str(tmp_path / "pq_idx")
    meta = build_pq_index(ds, out, m=4, k=16, num_partitions=4)
    assert meta["n_vecs"] == len(vecs)
    assert meta["parts_built"] == [0, 1, 2, 3]
    assert mf.is_complete(out)
    assert os.path.exists(os.path.join(out, "books.json"))

    books = load_pq_books(out)
    q = vecs[[0, 17, 333]]
    got = pq_index_topk(out, q, k=10)
    want = pq_search(pq_encode(ds, books), books, q, k=10)
    assert got.equals(want)

    # resume: a second build call must not rewrite any segment
    mtimes = {p: os.path.getmtime(mf.segment_path(out, p))
              for p in meta["parts_built"]}
    time.sleep(0.05)
    meta2 = build_pq_index(ds, out, m=4, k=16, num_partitions=4)
    assert meta2["n_vecs"] == meta["n_vecs"]
    for p, t0 in mtimes.items():
        assert os.path.getmtime(mf.segment_path(out, p)) == t0

    # the artifact is genuinely compressed: code bytes << raw vector bytes
    seg_bytes = sum(os.path.getsize(mf.segment_path(out, p))
                    for p in meta["parts_built"])
    raw_bytes = vecs.size * 8
    assert seg_bytes < raw_bytes / 4
