"""The one per-group top-k kernel (``scoring.grouped_topk`` and
``scoring.group_ranks``) against a per-group ``topk_order`` loop: same
row indices in (group asc, rank) order on tie-heavy scores, duplicate
ids within a group, k = 0, an int k, a per-group k, ascending uint64
keys and empty input."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from donkey_ray.functions.scoring import group_ranks, grouped_topk, topk_order

# few distinct values per column, so ties and repeated ids are common
rows = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6),
                          st.integers(0, 3)), max_size=60)


def _columns(rs):
    a = np.array(rs, dtype=np.int64).reshape(-1, 3)
    return a[:, 0], a[:, 1], a[:, 2]


def _loop(groups, ids, keys, k_of):
    """Reference: each group's rows through ``topk_order``, group asc."""
    out = []
    for g in np.unique(groups):
        m = np.flatnonzero(groups == g)
        out.extend(m[topk_order(ids[m], keys[m], k_of(g))])
    return np.asarray(out, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(rows, st.integers(0, 7))
def test_grouped_topk_matches_per_group_loop(rs, k):
    g, ids, raw = _columns(rs)
    scores = raw / 2.0  # float scores, tie-heavy
    got = grouped_topk(g, ids, scores, k)
    assert np.array_equal(got, _loop(g, ids, scores, lambda _: k))
    # the kept rows are each group's prefix: ranks 0..k-1 in order
    ranks = group_ranks(g[got])
    assert (ranks < k).all()
    assert np.array_equal(ranks, [int((g[got][:i] == x).sum())
                                  for i, x in enumerate(g[got])])


@settings(max_examples=200, deadline=None)
@given(rows, st.lists(st.integers(0, 5), min_size=5, max_size=5))
def test_grouped_topk_per_group_k(rs, ks):
    g, ids, raw = _columns(rs)
    scores = raw.astype(np.float64)
    got = grouped_topk(g, ids, scores, np.asarray(ks)[g])
    assert np.array_equal(got, _loop(g, ids, scores, lambda x: ks[x]))


@settings(max_examples=200, deadline=None)
@given(rows, st.integers(0, 7))
def test_grouped_topk_ascending_uint64(rs, k):
    g, ids, raw = _columns(rs)
    # values near 2^64 cannot be negated: the ascending path must not try
    z = (np.uint64(2**64 - 4) + raw.astype(np.uint64)).astype(np.uint64)
    got = grouped_topk(g, ids, z, k, descending=False)
    want = []
    for x in np.unique(g):
        m = np.flatnonzero(g == x)
        want.extend(m[np.lexsort((ids[m], z[m]))[:k]])
    assert np.array_equal(got, np.asarray(want, dtype=np.int64))


def test_grouped_topk_empty_and_k_zero():
    e = np.zeros(0, np.int64)
    assert grouped_topk(e, e, e.astype(float), 3).size == 0
    assert group_ranks(e).size == 0
    g = np.array([0, 0, 1])
    assert grouped_topk(g, np.arange(3), np.ones(3), 0).size == 0
    assert np.array_equal(group_ranks(np.array([2, 2, 5, 7, 7, 7])),
                          [0, 1, 0, 0, 1, 2])
