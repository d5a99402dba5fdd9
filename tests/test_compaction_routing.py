"""Compaction keeps salted hot terms reachable, and every index writer
(build, merge, prune) routes terms by the one rule the query engine
reads with (``functions.hashing``).

The members are built with hot-term detection on a corpus where one term
is in every doc, and that term is chosen so that its home partition lies
outside its salted partitions at P=16 and P=8 (the compact and reshard
defaults): an unsalted compaction would strand every one of its
postings where the engine never looks.
"""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from donkey_ray.functions.hashing import salted_parts, term_partition
from donkey_ray.oracle import BM25Oracle
from donkey_ray.pipelines.build import build_index
from donkey_ray.pipelines.incremental import merge_indexes
from donkey_ray.pipelines.prune import prune_index
from donkey_ray.stages.score import QueryEngine
from donkey_ray.state import manifest as mf

N_DOCS = 400


def _stranded_term() -> str:
    """A term whose home partition is outside its salted partitions at
    both P=16 and P=8 (salt_bits=4)."""
    for i in range(10_000):
        t = f"hot{i}"
        if all(term_partition(t, p) not in salted_parts(t, p, 4)
               for p in (16, 8)):
            return t
    raise AssertionError("no stranded term")


HOT = _stranded_term()
QUERIES = [HOT, f"{HOT} value3", "value3 tok2", f"self {HOT} tok5"]


def _corpus() -> pa.Table:
    content = [" ".join([HOT] * (1 + i % 3) + [f"self value{i} tok{i % 7}"])
               for i in range(N_DOCS)]
    return pa.table({
        "repo": ["r"] * N_DOCS,
        "path": [f"p{i}.py" for i in range(N_DOCS)],
        "commit": ["c"] * N_DOCS,
        "lang": ["simple"] * N_DOCS,
        "content": content,
    })


def _build_members(base, positions: bool) -> list[str]:
    import ray.data

    corpus = _corpus()
    dirs = []
    for half in (0, 1):
        d = str(base / f"member{half}")
        meta = build_index(
            ray.data.from_arrow(corpus.take(list(range(half, N_DOCS, 2)))),
            d, num_partitions=4, sample_mod=2, detect_hot=True,
            positions=positions)
        assert HOT in meta["hot_terms"]
        dirs.append(d)
    return dirs


@pytest.fixture(scope="module")
def members(ray_session, tmp_path_factory):
    return _build_members(tmp_path_factory.mktemp("hotm"), positions=False)


def _assert_serves_like_members(out_dirs, member_dirs):
    oracle = BM25Oracle.from_corpus(_corpus())
    fed = QueryEngine(member_dirs)
    eng = QueryEngine(out_dirs)
    for q in QUERIES:
        got = eng.topk(q, 1000)
        want = oracle.topk(q, 1000)
        assert len(got) == len(want) > 0, q
        for ref in (fed.topk(q, 1000), want):
            assert [d for d, _ in got] == [d for d, _ in ref], q
            np.testing.assert_allclose([s for _, s in got],
                                       [s for _, s in ref], atol=1e-9)


def _assert_routing_invariant(index_dir: str) -> None:
    """Every (part, term) row of every segment file lies in one of the
    partitions the engine reads for that term."""
    eng = QueryEngine(index_dir)
    n_rows = 0
    for part in eng.metas[0]["parts_built"]:
        terms = pq.read_table(mf.segment_path(index_dir, part),
                              columns=["term"]).column("term").to_pylist()
        for t in terms:
            assert part in eng._candidate_parts(0, t), (index_dir, part, t)
        n_rows += len(terms)
    assert n_rows > 0


def test_merge_keeps_hot_terms(members, tmp_path):
    out = str(tmp_path / "merged")
    meta = merge_indexes(members, out, num_partitions=16)
    assert HOT in meta["hot_terms"]
    _assert_serves_like_members(out, members)


def test_server_compact_keeps_hot_terms(members, tmp_path):
    import shutil

    from donkey_ray.serve import IndexServer

    base = str(tmp_path / "idx")
    shutil.copytree(members[0], base)
    shutil.copytree(members[1], base + "_delta_0")
    srv = IndexServer(base)
    assert srv.ping()["n_indexes"] == 2
    srv.compact(str(tmp_path / "compacted"))  # default partition count
    assert srv.ping()["n_indexes"] == 1
    _assert_serves_like_members(str(tmp_path / "compacted"), members)


def test_reshard_keeps_hot_terms(members, tmp_path):
    import shutil

    from donkey_ray.serve import reshard

    work = []
    for i, d in enumerate(members):
        c = str(tmp_path / f"shard{i}")
        shutil.copytree(d, c)
        work.append(c)
    outs = reshard(work, 2, str(tmp_path / "re"))  # default partitions
    assert len(outs) == 2
    _assert_serves_like_members(outs, members)


def test_positional_merge_keeps_hot_phrases(ray_session, tmp_path):
    pos = _build_members(tmp_path, positions=True)
    out = str(tmp_path / "merged")
    merge_indexes(pos, out, num_partitions=16)
    before, after = QueryEngine(pos), QueryEngine(out)
    for q in (f"{HOT} self", f"{HOT} {HOT}", f"self value7 tok0"):
        want = before.phrase_topk(q, 1000)
        assert want, q
        assert after.phrase_topk(q, 1000) == want, q


def test_writers_route_by_the_engine_rule(members, tmp_path):
    """Build (salted), merge of salted members, and prune all write
    each term only where QueryEngine._candidate_parts looks."""
    merged = str(tmp_path / "merged")
    merge_indexes(members, merged, num_partitions=16)
    pruned = str(tmp_path / "pruned")
    prune_index(members[0], pruned, keep_frac=0.5)
    for d in (members[0], merged, pruned):
        _assert_routing_invariant(d)
    assert mf.load_meta(pruned)["hot_terms"] == []


def test_prune_keeps_analyzer_lang(ray_session, tiny_corpus, tmp_path):
    import ray.data

    src = str(tmp_path / "stem")
    build_index(ray.data.from_arrow(tiny_corpus), src, num_partitions=2,
                analyzer_lang="stem")
    meta = prune_index(src, str(tmp_path / "pruned"), keep_frac=0.5)
    assert meta["analyzer_lang"] == "stem"
    assert mf.load_meta(str(tmp_path / "pruned"))["analyzer_lang"] == "stem"
    assert os.path.exists(os.path.join(str(tmp_path / "pruned"), "_SUCCESS"))
