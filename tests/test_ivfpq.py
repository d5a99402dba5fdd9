"""IVF-PQ (IVFADC): equality with an independent numpy reference of the
pinned spec at every nprobe, artifact resume, layout invariance, and
probe monotonicity."""

import os

import numpy as np
import pyarrow as pa
import pytest

from donkey_ray.pipelines.ivfpq import (
    build_ivfpq_index,
    ivfpq_topk,
    ivfpq_train,
    load_ivfpq_model,
)
from donkey_ray.state import manifest as mf

DIM = 24
N = 400
NLISTS = 4
M = 4
K = 8


@pytest.fixture(scope="module")
def vec_ds(ray_session):
    import ray.data

    rng = np.random.default_rng(77)
    centers = rng.standard_normal((NLISTS, DIM)) * 4
    vecs = np.vstack([
        centers[i % NLISTS] + rng.standard_normal(DIM) for i in range(N)
    ])
    tbl = pa.table(
        {"vec_id": pa.array(range(N), pa.int64()),
         "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64()))}
    )
    return ray.data.from_arrow(tbl), vecs


@pytest.fixture(scope="module")
def built(vec_ds, tmp_path_factory):
    ds, vecs = vec_ds
    out = str(tmp_path_factory.mktemp("ivfpq") / "index")
    meta = build_ivfpq_index(ds, out, n_lists=NLISTS, m=M, k=K,
                             num_partitions=4)
    return ds, vecs, out, meta


# --- independent reference implementation of the pinned spec ----------

def _ref_quantize(v):
    return np.floor(np.asarray(v, np.float64) * 10**6 + 0.5).astype(np.int64)


def _ref_assign(q, cents):
    d = ((q[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    return np.argmin(d, axis=1)


def _ref_topk(vecs, coarse, books, queries, k, nprobe):
    """Sequential IVFADC on the pinned-int model: probe, residual ADC."""
    cn = np.asarray(coarse, np.int64)
    bn = [np.asarray(b, np.int64) for b in books]
    m = len(bn)
    w = cn.shape[1] // m
    q_all = _ref_quantize(vecs)
    lists = _ref_assign(q_all, cn)
    resid = q_all - cn[lists]
    codes = np.stack([
        _ref_assign(resid[:, s * w:(s + 1) * w], bn[s]) for s in range(m)
    ], axis=1)
    qm = _ref_quantize(queries)
    rows = []
    for qi in range(len(qm)):
        cd = ((qm[qi][None, :] - cn) ** 2).sum(axis=1)
        probe = np.lexsort((np.arange(len(cn)), cd))[:nprobe]
        cand = np.flatnonzero(np.isin(lists, probe))
        dists = np.empty(len(cand), np.int64)
        for j, vi in enumerate(cand):
            r = qm[qi] - cn[lists[vi]]
            dists[j] = sum(
                ((r[s * w:(s + 1) * w] - bn[s][codes[vi, s]]) ** 2).sum()
                for s in range(m)
            )
        order = np.lexsort((cand, dists))[:k]
        for rank, j in enumerate(order, start=1):
            rows.append((qi, rank, int(cand[j]), int(dists[j])))
    return rows


def _got_rows(tbl):
    return list(zip(tbl.column("query_id").to_pylist(),
                    tbl.column("rank").to_pylist(),
                    tbl.column("vec_id").to_pylist(),
                    tbl.column("dist").to_pylist()))


def test_meta_and_layout(built):
    _, _, out, meta = built
    assert meta["n_vecs"] == N and meta["dim"] == DIM
    assert meta["parts_built"] == [0, 1, 2, 3]
    assert os.path.exists(os.path.join(out, "coarse.json"))
    assert mf.is_complete(out)


@pytest.mark.parametrize("nprobe", [1, 2, NLISTS])
def test_matches_reference_at_every_nprobe(built, nprobe):
    _, vecs, out, _ = built
    coarse, books = load_ivfpq_model(out)
    q = vecs[[0, 123, 399]]
    got = _got_rows(ivfpq_topk(out, q, k=10, nprobe=nprobe))
    want = _ref_topk(vecs, coarse, books, q, k=10, nprobe=nprobe)
    assert got == want


def test_probe_monotonicity(built):
    # growing nprobe can only improve (or keep) each query's best dist
    _, vecs, out, _ = built
    q = vecs[[5, 200]]
    best = None
    for nprobe in (1, 2, NLISTS):
        tbl = ivfpq_topk(out, q, k=1, nprobe=nprobe)
        d = tbl.column("dist").to_pylist()
        if best is not None:
            assert all(b2 <= b1 for b1, b2 in zip(best, d))
        best = d


def test_resume_skips_done_parts(vec_ds, built, tmp_path_factory):
    ds, vecs, orig_out, _ = built
    out = str(tmp_path_factory.mktemp("ivfpq_resume") / "index")
    build_ivfpq_index(ds, out, n_lists=NLISTS, m=M, k=K, num_partitions=4)
    # simulate a crash: lose one partition + the completion markers
    os.unlink(mf.segment_path(out, 2))
    os.unlink(os.path.join(out, "manifest", "part-00002.json"))
    os.unlink(os.path.join(out, "_SUCCESS"))
    meta = build_ivfpq_index(ds, out, n_lists=NLISTS, m=M, k=K,
                             num_partitions=4)
    assert meta["parts_skipped_on_resume"] == [0, 1, 3]
    assert meta["parts_built"] == [0, 1, 2, 3]
    q = vecs[[0, 123, 399]]
    assert _got_rows(ivfpq_topk(out, q, k=10)) == \
        _got_rows(ivfpq_topk(orig_out, q, k=10))


def test_layout_invariance(vec_ds, built):
    ds, _, out, _ = built
    coarse, books = load_ivfpq_model(out)
    c2, b2 = ivfpq_train(ds.repartition(7), n_lists=NLISTS, m=M, k=K)
    assert c2 == coarse and b2 == books


def test_missing_segment_raises(vec_ds, tmp_path_factory):
    ds, vecs = vec_ds
    out = str(tmp_path_factory.mktemp("ivfpq_missing") / "index")
    build_ivfpq_index(ds, out, n_lists=NLISTS, m=M, k=K, num_partitions=4)
    os.unlink(mf.segment_path(out, 1))
    with pytest.raises(FileNotFoundError, match="missing"):
        ivfpq_topk(out, vecs[[0]], k=5, nprobe=None)


@pytest.mark.parametrize("nprobe", [0, -1])
def test_nprobe_below_one_raises(built, nprobe):
    _, vecs, out, _ = built
    with pytest.raises(ValueError, match="nprobe"):
        ivfpq_topk(out, vecs[[0]], k=5, nprobe=nprobe)


def test_empty_coarse_list_is_served(ray_session, tmp_path):
    """REGRESSION (review finding): a coarse list left empty by k-means
    (collapsed/duplicate-heavy vectors) writes no segment file for its
    partition; querying must consult meta['parts_built'] and serve from
    the occupied lists instead of raising FileNotFoundError."""
    import ray.data

    # two EXACT duplicate point sets, n_lists=4 -> every copy of a point
    # lands in one list, so at least one coarse list stays empty
    base = np.vstack([np.zeros(DIM), np.ones(DIM) * 9])
    vecs = np.vstack([base[i % 2] for i in range(64)])
    tbl = pa.table(
        {"vec_id": pa.array(range(64), pa.int64()),
         "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64()))}
    )
    out = str(tmp_path / "idx_empty")
    meta = build_ivfpq_index(ray.data.from_arrow(tbl), out,
                             n_lists=4, m=M, k=4, num_partitions=4)
    assert len(meta["parts_built"]) < 4  # an empty partition exists
    res = ivfpq_topk(out, vecs[:2], k=5)  # nprobe=None probes ALL lists
    got = {r["query_id"] for r in res.to_pylist()}
    assert got == {0, 1}
    assert res.num_rows == 10
