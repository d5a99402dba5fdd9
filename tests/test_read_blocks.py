"""Block sizing of the build-lifecycle reads (``sources.corpus``
``blocks_for_bytes`` / ``read_block_count``), and what a build's block
layout may and may not change in the index it writes."""

import os

import pyarrow.dataset as pads
import pyarrow.parquet as pq

from donkey_ray.oracle import BM25Oracle
from donkey_ray.pipelines import build as build_mod
from donkey_ray.pipelines.build import build_index
from donkey_ray.sources import corpus as corpus_mod
from donkey_ray.sources.corpus import (MIN_BLOCK_BYTES, blocks_for_bytes,
                                       read_block_count)
from donkey_ray.stages.score import QueryEngine
from donkey_ray.synth import make_corpus, make_queries


def test_blocks_for_bytes_rule():
    # a tiny input is one block, however many CPUs
    assert blocks_for_bytes(1, 64) == 1
    assert blocks_for_bytes(MIN_BLOCK_BYTES, 64) == 1
    assert blocks_for_bytes(MIN_BLOCK_BYTES + 1, 64) == 2
    assert blocks_for_bytes(10 * MIN_BLOCK_BYTES, 64) == 10
    # a huge input is capped at 2 x CPUs
    assert blocks_for_bytes(10**15, 4) == 8
    assert blocks_for_bytes(10**15, 1) == 2
    # never below one block, even for no bytes or no CPUs
    for n in (0, 1, MIN_BLOCK_BYTES - 1, 10**15):
        for cpus in (0, 1, 3, 64):
            assert 1 <= blocks_for_bytes(n, cpus) <= max(1, 2 * cpus)


def _write_corpus(tmp_path, n, seed, files=1):
    corpus = make_corpus(n, seed=seed)
    d = tmp_path / "corpus"
    d.mkdir()
    step = -(-n // files)
    for i in range(files):
        pq.write_table(corpus.slice(i * step, step),
                       str(d / f"part-{i:02d}.parquet"), row_group_size=50)
    return corpus, str(d)


def test_read_block_count_uses_on_disk_bytes(ray_session, tmp_path,
                                             monkeypatch):
    """A small corpus is one block; with every byte over the minimum the
    count is capped at 2 x the session's CPUs (4 in the test session)."""
    import ray

    _, d = _write_corpus(tmp_path, 40, seed=3)
    files = pads.dataset(d).files
    assert read_block_count(d) == read_block_count(files) == 1
    monkeypatch.setattr(corpus_mod, "MIN_BLOCK_BYTES", 1)
    cpus = int(ray.cluster_resources()["CPU"])
    assert read_block_count(d) == 2 * cpus


def test_build_lifecycle_reads_by_the_rule(ray_session, tmp_path,
                                           monkeypatch):
    """Every build-lifecycle read of a small input is one block: the
    corpus read, the file-sampled hot pass (16 files: every 8th is
    read), and prune's docs and segment reads. ``build_index`` passes
    ``override_num_blocks`` through untouched, and only the corpus read
    takes it."""
    import ray.data

    from donkey_ray.pipelines.prune import prune_index

    corpus, d = _write_corpus(tmp_path, 160, seed=4, files=16)
    passed, reads = [], []
    real_read_corpus = build_mod.read_corpus
    real_read_parquet = ray.data.read_parquet

    def spy_read_corpus(path, **kw):
        passed.append(kw.get("override_num_blocks"))
        return real_read_corpus(path, **kw)

    def spy_read_parquet(paths, **kw):
        n = 1 if isinstance(paths, str) else len(paths)
        reads.append((n, kw.get("override_num_blocks")))
        return real_read_parquet(paths, **kw)

    monkeypatch.setattr(build_mod, "read_corpus", spy_read_corpus)
    monkeypatch.setattr(ray.data, "read_parquet", spy_read_parquet)
    auto = str(tmp_path / "auto")
    meta = build_index(d, auto, num_partitions=2, query_lang="code")
    assert passed == [None] and reads == [(1, 1), (2, 1)]
    reads.clear()
    build_index(d, str(tmp_path / "forced"), num_partitions=2,
                override_num_blocks=3)
    assert passed == [None, 3] and reads == [(1, 3), (2, 1)]
    reads.clear()
    prune_index(auto, str(tmp_path / "pruned"), keep_frac=1.0)
    n_docs_files = len(os.listdir(os.path.join(auto, "docs")))
    assert reads == [(n_docs_files, 1), (len(meta["parts_built"]), 1)]
    oracle = BM25Oracle.from_corpus(corpus)
    eng = QueryEngine(auto)
    for q in make_queries(20).column("text").to_pylist():
        assert eng.topk(q, 10) == oracle.topk(q, 10, lang="code"), q


def test_block_layout_moves_only_the_hot_set(ray_session, tmp_path):
    """The same path corpus at 1 and 8 blocks: the per-batch cutoff of
    ``detect_hot_terms`` may give different hot sets (so different
    salted routing), but the docs rows, the stats and the postings are
    the same, and every query's top-k, hot terms included, equals the
    oracle's bit for bit on both."""
    # on this corpus the two hot sets differ (30 terms at 1 block, 32 at 8)
    corpus, d = _write_corpus(tmp_path, 600, seed=12)
    oracle = BM25Oracle.from_corpus(corpus)
    metas, engines, docs = {}, {}, {}
    for blocks in (1, 8):
        out = str(tmp_path / f"idx{blocks}")
        metas[blocks] = build_index(d, out, num_partitions=4, sample_mod=2,
                                    query_lang="code",
                                    override_num_blocks=blocks)
        engines[blocks] = QueryEngine(out)
        docs[blocks] = pads.dataset(os.path.join(out, "docs")).to_table() \
            .sort_by("doc_id")
    assert docs[1].equals(docs[8])
    for key in ("n_docs", "total_len", "lang_stats", "n_postings"):
        assert metas[1][key] == metas[8][key], key
    hot = sorted(set(metas[1]["hot_terms"]) | set(metas[8]["hot_terms"]))
    assert hot
    texts = [str(t) for t in make_queries(40).column("text").to_pylist()]
    texts += hot + [" ".join(hot[i:i + 3]) for i in range(0, len(hot), 3)]
    for q in texts:
        want = oracle.topk(q, 10, lang="code")
        for blocks, eng in engines.items():
            assert eng.topk(q, 10) == want, (blocks, q)

