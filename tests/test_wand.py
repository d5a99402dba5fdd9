"""Block-max WAND (``QueryEngine(mode="wand")``) against the exact scorer
and the brute-force oracle, bit for bit: same docs, same order, same
float64 scores, on a corpus where ties are the rule."""

import itertools

import numpy as np
import pyarrow as pa
import pytest

from donkey_ray.oracle import BM25Oracle
from donkey_ray.pipelines.build import build_index
from donkey_ray.stages.score import QueryEngine

TIE_WORDS = [f"w{c}aaa" for c in "abcdefghijkl"]
TIE_QUERIES = [" ".join(ws) for n in (2, 3)
               for ws in itertools.combinations(TIE_WORDS, n)]


def _zipf_corpus(n_docs: int, vocab: list[str], lo: int, hi: int,
                 seed: int) -> pa.Table:
    """``n_docs`` en docs of lo..hi tokens drawn Zipf(1) from ``vocab``."""
    rng = np.random.default_rng(seed)
    p = 1.0 / np.arange(1, len(vocab) + 1)
    lens = rng.integers(lo, hi + 1, n_docs)
    toks = rng.choice(len(vocab), size=int(lens.sum()), p=p / p.sum())
    words = np.asarray(vocab)[toks]
    return pa.table({
        "repo": ["r"] * n_docs,
        "path": [f"d{i}" for i in range(n_docs)],
        "commit": ["c"] * n_docs,
        "lang": ["en"] * n_docs,
        "content": [" ".join(ws) for ws in
                    np.split(words, np.cumsum(lens)[:-1])],
    })


@pytest.fixture(scope="module")
def tie_indexes(ray_session, tmp_path_factory):
    """Few distinct (tf, dl) pairs, so many docs tie: one index with
    salted hot terms, and a 2-member federation of its two halves
    (interleaved doc ids). Yields the oracle's top-50 per query too."""
    import ray.data

    n = 6000
    corpus = _zipf_corpus(n, TIE_WORDS, 4, 6, seed=7)
    root = tmp_path_factory.mktemp("ties")
    one = str(root / "one")
    build_index(ray.data.from_arrow(corpus), one, num_partitions=4,
                sample_mod=4)
    fed = []
    for half in (0, 1):
        d = str(root / f"fed{half}")
        build_index(ray.data.from_arrow(corpus.take(list(range(half, n, 2)))),
                    d, num_partitions=4, sample_mod=4)
        fed.append(d)
    oracle = BM25Oracle.from_corpus(corpus)
    want = {q: oracle.topk(q, 50) for q in TIE_QUERIES}
    return {"one": one, "fed": fed}, want


@pytest.mark.parametrize("which", ["one", "fed"])
def test_wand_ties_equal_exact_and_oracle(tie_indexes, which):
    """Every 2- and 3-word query: WAND, exact and the oracle agree bit
    for bit, so WAND adds each doc's scores in the same term order."""
    dirs, want = tie_indexes
    ex = QueryEngine(dirs[which], mode="exact")
    wd = QueryEngine(dirs[which], mode="wand")
    # the hot terms are salted: their postings span several runs
    assert len(QueryEngine(dirs[which]).term_runs(TIE_WORDS[0])) > 1
    for q in TIE_QUERIES:
        for k in (1, 10, 50):
            # the oracle's order is total, so its top-k is a prefix
            assert wd.topk(q, k) == ex.topk(q, k) == want[q][:k], (q, k)


def test_wand_skips_blocks_of_a_common_term(ray_session, tmp_path):
    """One common term plus two rare ones: the rare terms' blocks set
    the windows, so most of the common term's blocks are never decoded,
    and the result still equals exact's."""
    import ray.data

    corpus = _zipf_corpus(30000, [f"t{i}" for i in range(2000)], 4, 15,
                          seed=3)
    out = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(corpus), out, num_partitions=4)
    q = "t0 t1000 t1500"
    wd = QueryEngine(out, mode="wand")
    got = wd.topk(q, 10)
    total = sum(len(r["block_last_doc"]) for t in q.split()
                for r in wd.term_runs(t))
    assert got == QueryEngine(out, mode="exact").topk(q, 10)
    assert 0 < wd.blocks_decoded < total
