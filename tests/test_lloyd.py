"""The one pinned-integer Lloyd loop (kmeans.lloyd_fit) behind kmeans_fit,
pq_train and ivfpq_train: block layout with empty blocks, and the
too-few-rows contract."""

import numpy as np
import pyarrow as pa
import pytest

from donkey_ray.pipelines.ivfpq import ivfpq_train
from donkey_ray.pipelines.kmeans import kmeans_fit
from donkey_ray.pipelines.pq import pq_train

DIM = 8


def _table(n: int) -> pa.Table:
    rng = np.random.default_rng(41)
    centers = rng.standard_normal((4, DIM)) * 5
    vecs = centers[np.arange(n) % 4] + rng.standard_normal((n, DIM))
    return pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64())),
    })


def _fits(ds):
    return (kmeans_fit(ds, k=4, iterations=3),
            pq_train(ds, m=4, k=8, iterations=2),
            ivfpq_train(ds, n_lists=4, c_iters=2, m=4, k=8, r_iters=2))


def test_empty_blocks_give_the_same_books(ray_session):
    import ray.data

    tbl = _table(120)
    empty = tbl.slice(0, 0)
    gappy = ray.data.from_arrow(
        [empty, tbl.slice(0, 50), empty, tbl.slice(50), empty])
    assert gappy.num_blocks() == 5
    assert _fits(gappy) == _fits(ray.data.from_arrow(tbl))


@pytest.mark.parametrize("trainer, n, need", [
    ("kmeans_fit", 0, 4),
    ("kmeans_fit", 3, 4),
    ("pq_train", 5, 8),
    ("ivfpq_train", 5, 8),
])
def test_fewer_than_k_rows_raises(ray_session, trainer, n, need):
    import ray.data

    ds = ray.data.from_arrow(_table(n))
    fit = {
        "kmeans_fit": lambda: kmeans_fit(ds, k=4),
        "pq_train": lambda: pq_train(ds, m=4, k=8),
        "ivfpq_train": lambda: ivfpq_train(ds, n_lists=4, m=4, k=8),
    }[trainer]
    with pytest.raises(ValueError,
                       match=f"^{trainer} needs >= {need} rows, got {n}$"):
        fit()
