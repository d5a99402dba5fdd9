"""End-to-end conformance (SURVEY.md section 5.3/5.4): build + query must be
rank- AND score-identical to the brute-force oracle, deterministic across
partition counts, and resumable."""

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from donkey_ray.oracle import BM25Oracle
from donkey_ray.pipelines.build import build_index
from donkey_ray.pipelines.query import score_queries
from donkey_ray.stages.score import QueryEngine
from donkey_ray.synth import COMMON_TOKEN, make_corpus, make_queries
from donkey_ray.state import manifest as mf


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    corpus = make_corpus(300, seed=42)
    out = str(tmp_path_factory.mktemp("idx") / "index")
    import ray.data

    meta = build_index(
        ray.data.from_arrow(corpus),
        out,
        num_partitions=8,
        query_lang="code",
        sample_mod=4,  # small corpus: sample 1/4 so hot detection fires
    )
    oracle = BM25Oracle.from_corpus(corpus)
    return corpus, out, meta, oracle


def test_meta_stats_match_oracle(built):
    _, _, meta, oracle = built
    assert meta["n_docs"] == oracle.n_docs
    assert meta["total_len"] == oracle.total_len
    assert abs(meta["avgdl"] - oracle.avgdl) < 1e-12


def test_hot_term_detected_and_salted(built):
    _, out, meta, _ = built
    assert COMMON_TOKEN in meta["hot_terms"]
    engine = QueryEngine(out)
    # the salted hot term should appear in more than one partition run
    runs = engine.term_runs(COMMON_TOKEN)
    assert len(runs) >= 2
    assert engine.term_df(COMMON_TOKEN) == 300  # appears in every doc


def test_docs_sha256_invariant(built):
    corpus, out, _, _ = built
    import hashlib

    expect = sorted(
        hashlib.sha256(c.encode()).hexdigest()
        for c in corpus["content"].to_pylist()
    )
    docs = pads.dataset(os.path.join(out, "docs")).to_table(
        columns=["content_sha256"]
    )
    got = sorted(docs.column("content_sha256").to_pylist())
    assert got == expect


@pytest.mark.parametrize("mode", ["exact", "wand"])
def test_topk_identical_to_oracle(built, mode):
    _, out, _, oracle = built
    engine = QueryEngine(out, mode=mode)
    queries = make_queries(60)
    for row in queries.to_pylist():
        got = engine.topk(row["text"], int(row["k"]))
        want = oracle.topk(row["text"], int(row["k"]), lang="code")
        assert [d for d, _ in got] == [d for d, _ in want], (mode, row["text"])
        np.testing.assert_allclose(
            [s for _, s in got], [s for _, s in want], rtol=0, atol=1e-9
        )


def test_and_topk_identical_to_oracle(built):
    """Conjunctive (AND) mode: posting-list intersection + summed BM25
    must be rank- and score-identical to the brute-force conjunctive
    oracle, including multi-term, absent-term and single-term queries."""
    _, out, _, oracle = built
    engine = QueryEngine(out)
    queries = make_queries(60)
    for row in queries.to_pylist():
        got = engine.and_topk(row["text"], int(row["k"]))
        want = oracle.and_topk(row["text"], int(row["k"]), lang="code")
        assert [d for d, _ in got] == [d for d, _ in want], row["text"]
        np.testing.assert_allclose(
            [s for _, s in got], [s for _, s in want], rtol=0, atol=1e-9
        )
        # AND results are a subset of the disjunctive candidate set and
        # every result doc matches every distinct term
        for d, _ in got:
            for t in set(__import__("donkey_ray.functions.tokenize", fromlist=["get_tokenizer"]).get_tokenizer("code").tokenize(row["text"])):
                assert d in oracle.postings.get(t, {}), (d, t)


def test_prefix_topk_identical_to_oracle(built):
    """Prefix expansion (sharded-dictionary range scan) must return
    exactly the vocabulary terms with that prefix, and prefix_topk must
    equal the brute-force oracle scored over the expanded term set."""
    _, out, _, oracle = built
    engine = QueryEngine(out)
    vocab = sorted(oracle.postings)
    prefixes = sorted({t[:2] for t in vocab}) + ["zzq", vocab[0]]
    for p in prefixes:
        want_terms = [t for t in vocab if t.startswith(p)]
        assert engine.expand_prefix(p, max_terms=10_000) == want_terms, p
        got = engine.prefix_topk(p, 10, max_terms=10_000)
        want = oracle.topk(" ".join(want_terms), 10, lang="code") if want_terms else []
        assert [d for d, _ in got] == [d for d, _ in want], p
        np.testing.assert_allclose(
            [s for _, s in got], [s for _, s in want], rtol=0, atol=1e-9
        )
    with pytest.raises(ValueError, match="more than"):
        engine.expand_prefix(vocab[0], max_terms=0)


def test_wand_equals_exact_on_many_queries(built):
    _, out, _, _ = built
    ex = QueryEngine(out, mode="exact")
    wd = QueryEngine(out, mode="wand")
    queries = make_queries(120)
    for row in queries.to_pylist():
        assert wd.topk(row["text"], int(row["k"])) == ex.topk(
            row["text"], int(row["k"]))  # bit for bit


def test_score_queries_pipeline(built, ray_session):
    _, out, _, oracle = built
    q = make_queries(20)
    from donkey_ray.util import dataset_to_table

    res = dataset_to_table(score_queries(out, q, batch_size=8))
    want = oracle.run_queries(q, lang="code")
    got = res.sort_by([("query_id", "ascending"), ("rank", "ascending")])
    want = want.sort_by([("query_id", "ascending"), ("rank", "ascending")])
    assert got.column("doc_id").to_pylist() == want.column("doc_id").to_pylist()
    np.testing.assert_allclose(
        got.column("score").to_pylist(), want.column("score").to_pylist(), atol=1e-9
    )


def test_partition_count_invariance(ray_session, tmp_path):
    """Different P (and hot detection on/off) -> identical query results."""
    import ray.data

    corpus = make_corpus(150, seed=7)
    oracle = BM25Oracle.from_corpus(corpus)
    queries = make_queries(30)
    for i, (P, detect) in enumerate([(2, False), (13, True)]):
        out = str(tmp_path / f"idx{i}")
        build_index(
            ray.data.from_arrow(corpus), out,
            num_partitions=P, detect_hot=detect, sample_mod=4, query_lang="code",
        )
        engine = QueryEngine(out)
        for row in queries.to_pylist():
            got = engine.topk(row["text"], int(row["k"]))
            want = oracle.topk(row["text"], int(row["k"]), lang="code")
            assert [d for d, _ in got] == [d for d, _ in want]


def test_federated_rejects_mismatched_indexes(built, tmp_path):
    """Indexes built with differing query_lang (or segment format) must be
    refused for federated querying — silently mixing tokenizers/codecs
    would corrupt results."""
    import json
    import shutil

    _, out, _, _ = built
    clone = str(tmp_path / "clone")
    shutil.copytree(out, clone)
    mp = mf.meta_path(clone)
    with open(mp) as f:
        meta = json.load(f)
    meta["query_lang"] = "simple"
    with open(mp, "w") as f:
        json.dump(meta, f)
    with pytest.raises(ValueError, match="query_lang"):
        QueryEngine([out, clone])


def test_resume_skips_done_partitions(ray_session, tmp_path):
    import ray.data

    corpus = make_corpus(120, seed=11)
    out = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(corpus), out, num_partitions=6,
                detect_hot=False, query_lang="code")
    seg_hashes = {
        p: mf.file_sha256(p) for p in glob.glob(os.path.join(out, "segments", "*"))
    }
    # simulate a crash after partition 2: drop _SUCCESS, meta, and the
    # manifests+segments of partitions 3..5
    os.unlink(os.path.join(out, "_SUCCESS"))
    os.unlink(mf.meta_path(out))
    for part in (3, 4, 5):
        os.unlink(mf.manifest_path(out, part))
        os.unlink(mf.segment_path(out, part))
    meta2 = build_index(ray.data.from_arrow(corpus), out, num_partitions=6,
                        detect_hot=False, query_lang="code")
    assert meta2["parts_skipped_on_resume"] == [0, 1, 2]
    after = {
        p: mf.file_sha256(p) for p in glob.glob(os.path.join(out, "segments", "*"))
    }
    assert after == seg_hashes  # byte-identical final index


def test_resume_rejects_corrupt_segment(ray_session, tmp_path):
    import ray.data

    corpus = make_corpus(80, seed=13)
    out = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(corpus), out, num_partitions=4,
                detect_hot=False, query_lang="code")
    target = mf.segment_path(out, 1)
    good = mf.file_sha256(target)
    with open(target, "ab") as f:
        f.write(b"corruption")
    os.unlink(os.path.join(out, "_SUCCESS"))
    meta2 = build_index(ray.data.from_arrow(corpus), out, num_partitions=4,
                        detect_hot=False, query_lang="code")
    assert 1 not in meta2["parts_skipped_on_resume"]
    assert mf.file_sha256(target) == good  # rebuilt cleanly


def test_completed_build_is_noop(ray_session, tmp_path):
    import time

    import ray.data

    corpus = make_corpus(80, seed=17)
    out = str(tmp_path / "idx")
    m1 = build_index(ray.data.from_arrow(corpus), out, num_partitions=4,
                     query_lang="code", detect_hot=False)
    t0 = time.monotonic()
    m2 = build_index(ray.data.from_arrow(corpus), out, num_partitions=4,
                     query_lang="code", detect_hot=False)
    assert time.monotonic() - t0 < 1.0  # manifest short-circuit, no Ray work
    assert m1["n_postings"] == m2["n_postings"]


def _fragment_corpus(tmp_path, n=90, frags=3, seed=29):
    import pyarrow.parquet as pq

    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    full = make_corpus(n, seed=seed)
    step = n // frags
    for i in range(frags):
        pq.write_table(full.slice(i * step, step),
                       str(corpus_dir / f"part-{i}.parquet"))
    return full, str(corpus_dir)


def _docs_table(out):
    return pads.dataset(os.path.join(out, "docs")).to_table().sort_by("doc_id")


def _assert_docs_are_corpus(out, corpus):
    import hashlib

    docs = _docs_table(out)
    ids = docs.column("doc_id").to_pylist()
    assert len(ids) == corpus.num_rows == len(set(ids))
    assert sorted(docs.column("content_sha256").to_pylist()) == sorted(
        hashlib.sha256(c.encode()).hexdigest()
        for c in corpus["content"].to_pylist())


def test_single_scan_resume_rewrites_docs(ray_session, tmp_path):
    """The extract map writes one docs file per batch. A resume after
    losing ``_SUCCESS`` and a docs file, batched differently, leaves
    exactly the corpus rows in docs/ (no stale or duplicate file)."""
    full, corpus_dir = _fragment_corpus(tmp_path)
    out = str(tmp_path / "idx")
    kw = dict(num_partitions=4, detect_hot=False, query_lang="code",
              batch_size=30)
    m1 = build_index(corpus_dir, out, override_num_blocks=3, **kw)
    docs_files = sorted(glob.glob(os.path.join(out, "docs", "*.parquet")))
    assert len(docs_files) == 3  # one per extract batch
    _assert_docs_are_corpus(out, full)
    first = _docs_table(out)
    os.unlink(os.path.join(out, "_SUCCESS"))
    os.unlink(docs_files[1])
    m2 = build_index(corpus_dir, out, override_num_blocks=2, **kw)
    _assert_docs_are_corpus(out, full)
    assert _docs_table(out).equals(first)
    assert m2["parts_skipped_on_resume"] == m1["parts_built"]
    for key in ("n_docs", "total_len", "n_postings", "lang_stats"):
        assert m2[key] == m1[key], key


def test_resume_with_all_segments_restores_docs(ray_session, tmp_path):
    """Every partition done but ``_SUCCESS`` and docs/ gone: the same
    pipeline runs with drop_done removing every posting, and the docs
    come back."""
    import shutil

    import ray.data

    corpus = make_corpus(60, seed=23)
    out = str(tmp_path / "idx")
    m1 = build_index(ray.data.from_arrow(corpus), out, num_partitions=4,
                     detect_hot=False, query_lang="code")
    first = _docs_table(out)
    segs = {p: mf.file_sha256(p)
            for p in glob.glob(os.path.join(out, "segments", "*"))}
    os.unlink(os.path.join(out, "_SUCCESS"))
    shutil.rmtree(os.path.join(out, "docs"))
    m2 = build_index(ray.data.from_arrow(corpus), out, num_partitions=4,
                     detect_hot=False, query_lang="code")
    assert m2["parts_skipped_on_resume"] == m1["parts_built"]
    assert _docs_table(out).equals(first)
    assert {p: mf.file_sha256(p) for p in segs} == segs
    for key in ("n_docs", "total_len", "n_postings", "lang_stats"):
        assert m2[key] == m1[key], key


def test_extract_postings_docs_write_is_idempotent(tmp_path):
    """A retried extract task rewrites the same docs file: same name,
    same rows, no second file."""
    import pyarrow.parquet as pq

    from donkey_ray.stages.extract import extract_postings

    batch = make_corpus(40, seed=3)
    docs_dir = str(tmp_path / "docs")
    os.makedirs(docs_dir)
    kw = dict(num_partitions=4, docs_dir=docs_dir)
    p1 = extract_postings(batch, **kw)
    files = os.listdir(docs_dir)
    assert len(files) == 1
    rows = pq.read_table(os.path.join(docs_dir, files[0]))
    p2 = extract_postings(batch, **kw)
    assert os.listdir(docs_dir) == files
    assert pq.read_table(os.path.join(docs_dir, files[0])).equals(rows)
    assert p1.equals(p2)
    assert rows.num_rows == 40
    # without a docs dir: postings only, nothing written
    assert extract_postings(batch, num_partitions=4).equals(p1)


def test_null_content_row_has_zero_doc_len(ray_session, tmp_path):
    """A null-content row has no tokens: its doc_len is 0, and the
    per-lang totals still sum to the segment-derived total_len."""
    import ray.data

    corpus = make_corpus(40, seed=5)
    for name, value in (("lang", "en"), ("content", None)):
        col = corpus[name].to_pylist()
        col[7] = value
        corpus = corpus.set_column(corpus.schema.get_field_index(name),
                                   name, pa.array(col, pa.string()))
    out = str(tmp_path / "idx")
    meta = build_index(ray.data.from_arrow(corpus), out, num_partitions=4,
                       detect_hot=False)
    docs = _docs_table(out).to_pylist()
    null_rows = [r for r in docs if r["content_sha256"] is None]
    assert len(null_rows) == 1 and null_rows[0]["doc_len"] == 0
    assert null_rows[0]["lang"] == "en"
    assert meta["n_docs"] == 40
    assert sum(s["total_len"] for s in meta["lang_stats"].values()) \
        == meta["total_len"]


def test_complete_build_does_not_read_corpus(ray_session, tmp_path):
    """A complete index returns its meta before the corpus is listed:
    the corpus may be gone."""
    import shutil

    _full, corpus_dir = _fragment_corpus(tmp_path, n=30)
    out = str(tmp_path / "idx")
    m1 = build_index(corpus_dir, out, num_partitions=2, detect_hot=False)
    shutil.rmtree(corpus_dir)
    assert build_index(corpus_dir, out, num_partitions=2,
                       detect_hot=False) == m1


def test_atomic_write_parquet_failure_leaves_nothing(tmp_path):
    """A parquet write that raises leaves neither a tmp file nor the
    target behind."""
    target = str(tmp_path / "d" / "t.parquet")
    with pytest.raises(Exception):
        mf.atomic_write_parquet(target, pa.table({"x": [1, 2]}),
                                compression="no-such-codec")
    assert os.listdir(tmp_path / "d") == []


def test_pluggable_scorer(built):
    """The scorer registry is a real extension point: a custom monotone
    scorer changes rankings coherently and stays WAND==exact."""
    import numpy as np

    from donkey_ray.functions import scoring

    class TfOnlyScorer:
        """idf = 1 for present terms; raw tf saturation weight."""

        name = "tf-only"

        @staticmethod
        def idf(df, n_docs):
            return np.ones_like(np.asarray(df, dtype=np.float64))

        @staticmethod
        def tf_weight(tf, dl, avgdl):
            tf = np.asarray(tf, dtype=np.float64)
            return tf / (tf + 1.0)  # increasing in tf, constant in dl

    scoring.register_scorer("tf-only", TfOnlyScorer)
    _, out, _, _ = built
    ex = QueryEngine(out, mode="exact", scorer="tf-only")
    wd = QueryEngine(out, mode="wand", scorer="tf-only")
    bm = QueryEngine(out, mode="exact")
    diverged = False
    for row in make_queries(40).to_pylist():
        got_ex = ex.topk(row["text"], int(row["k"]))
        got_wd = wd.topk(row["text"], int(row["k"]))
        assert got_wd == got_ex  # pruning stays exact, bit for bit
        if [d for d, _ in got_ex] != [d for d, _ in bm.topk(row["text"], int(row["k"]))]:
            diverged = True
    assert diverged  # the custom scorer actually changes rankings


def test_unknown_scorer_rejected(built):
    _, out, _, _ = built
    with pytest.raises(KeyError, match="unknown scorer"):
        QueryEngine(out, scorer="nope")


def test_scatter_gather_equals_engine(built):
    """The distributed scatter-gather path must be rank/score-identical
    to the per-actor engine on a hot-term (salted) corpus — including
    absent terms, duplicated terms, and k > matches."""
    from donkey_ray.pipelines.query import scatter_gather_topk
    from donkey_ray.util import dataset_to_table

    _, out, _, _ = built
    queries = make_queries(40)
    want = (
        dataset_to_table(score_queries(out, queries, mode="exact"))
        .sort_by([("query_id", "ascending"), ("rank", "ascending")])
    )
    got = scatter_gather_topk(out, queries).sort_by(
        [("query_id", "ascending"), ("rank", "ascending")]
    )
    assert got.column("query_id").equals(want.column("query_id"))
    assert got.column("rank").equals(want.column("rank"))
    assert got.column("doc_id").equals(want.column("doc_id"))
    g = np.asarray(got.column("score"))
    w = np.asarray(want.column("score"))
    assert np.allclose(g, w, rtol=0, atol=1e-9)


@pytest.fixture(scope="module")
def lost_segment(built, tmp_path_factory):
    """A copy of the built index with partition 1's segment deleted, and
    a cold query term that routes to partition 1 alone."""
    import shutil

    _, out, _, oracle = built
    d = str(tmp_path_factory.mktemp("lost") / "index")
    shutil.copytree(out, d)
    os.remove(mf.segment_path(d, 1))
    eng = QueryEngine(out)
    term = next(t for t in sorted(oracle.postings)
                if eng._candidate_parts(0, t) == [1])
    return d, term


def test_engine_refuses_a_missing_segment(lost_segment):
    """QueryEngine raises instead of serving a top-k without the lost
    partition's postings."""
    d, term = lost_segment
    for mode in ("exact", "wand"):
        with pytest.raises(FileNotFoundError, match="part-00001"):
            QueryEngine(d, mode=mode).topk(term, 5)


def test_scatter_gather_refuses_a_missing_segment(lost_segment):
    from donkey_ray.pipelines.query import scatter_gather_topk

    d, term = lost_segment
    queries = pa.table({"query_id": pa.array([0], pa.int64()),
                        "text": pa.array([term]),
                        "k": pa.array([5], pa.int32())})
    with pytest.raises(FileNotFoundError, match="part-00001"):
        scatter_gather_topk(d, queries)


def test_merge_refuses_a_missing_segment(lost_segment, tmp_path):
    """merge_indexes (under compact and reshard) reads segments back as
    postings: a lost segment raises instead of writing a complete
    index without its postings."""
    from donkey_ray.pipelines.incremental import merge_indexes

    d, _ = lost_segment
    with pytest.raises(FileNotFoundError, match="part-00001"):
        merge_indexes([d], str(tmp_path / "merged"), num_partitions=2)
    assert not mf.is_complete(str(tmp_path / "merged"))


def test_not_topk_excludes_negated_docs(built):
    """Boolean NOT: matches the positive-only engine ranking with every
    doc containing a negated term removed BEFORE truncation; absent
    negation degenerates to the plain query; self-negation is empty."""
    corpus, out, _, oracle = built
    engine = QueryEngine(out)
    # negated term: a mid-frequency token drawn from the corpus itself
    from donkey_ray.functions.tokenize import get_tokenizer

    toks = get_tokenizer("code").tokenize(corpus.column("content")[0].as_py())
    neg = next(t for t in toks if t != COMMON_TOKEN and engine.term_runs(t))
    pos, k = COMMON_TOKEN, 10
    got = engine.not_topk(pos, neg, k)
    # brute force: full positive ranking, filter, truncate
    full = engine.topk(pos, 10**6)
    neg_docs = set()
    for row in engine.term_runs(neg):
        from donkey_ray.functions.codec import decode_blocked_deltas

        neg_docs.update(
            decode_blocked_deltas(
                row["doc_ids"], int(row["df"]), engine.block_size
            ).tolist()
        )
    assert neg_docs, "fixture term must occur"
    want = [(d, s) for d, s in full if d not in neg_docs][:k]
    assert [d for d, _ in got] == [d for d, _ in want]
    assert np.allclose([s for _, s in got], [s for _, s in want])
    assert engine.not_topk(pos, "zzzabsent", k) == engine.topk(pos, k)
    assert engine.not_topk(pos, pos, k) == []


def test_rerank_cosine_two_stage(built, tmp_path):
    """Stage-2 results are a subset of the stage-1 candidate set, ranked
    by tf-idf cosine (desc, doc asc), and every cosine is in [0, 1]."""
    import pyarrow.parquet as pq

    from donkey_ray.pipelines.query import rerank_cosine
    from donkey_ray.util import dataset_to_table

    corpus, out, _, _ = built
    # texts straight from the corpus via the docs table's doc_id mapping
    docs_tbl = pads.dataset(os.path.join(out, "docs")).to_table(
        columns=["doc_id", "repo", "path"])
    # map (repo, path) -> content
    key_to_content = {
        (r, p): c for r, p, c in zip(
            corpus.column("repo").to_pylist(),
            corpus.column("path").to_pylist(),
            corpus.column("content").to_pylist(),
        )
    }
    texts = pa.table({
        "doc_id": docs_tbl.column("doc_id"),
        "text": pa.array(
            [key_to_content[(r, p)] for r, p in zip(
                docs_tbl.column("repo").to_pylist(),
                docs_tbl.column("path").to_pylist())], pa.string()),
    })
    queries = make_queries(10)
    res = rerank_cosine(out, queries, texts, candidates=20, k=5)
    q20 = queries.set_column(
        queries.column_names.index("k"), "k",
        pa.array([20] * queries.num_rows, pa.int32()),
    )
    stage1 = dataset_to_table(score_queries(out, q20, mode="exact"))
    s1 = {}
    for r in stage1.to_pylist():
        s1.setdefault(r["query_id"], set()).add(r["doc_id"])
    for r in res.to_pylist():
        assert 0.0 <= r["cos_sim"] <= 1.0 + 1e-12
        assert r["doc_id"] in s1[r["query_id"]]
    # per query: rank ordering follows (cos desc, doc asc)
    rows = res.to_pylist()
    for qid in {r["query_id"] for r in rows}:
        mine = [r for r in rows if r["query_id"] == qid]
        keys = [(-r["cos_sim"], r["doc_id"]) for r in
                sorted(mine, key=lambda r: r["rank"])]
        assert keys == sorted(keys)


def _lev_dp(a: str, b: str) -> int:
    dp = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        prev, dp[0] = dp[0], i
        for j, cb in enumerate(b, 1):
            prev, dp[j] = dp[j], min(
                dp[j] + 1, dp[j - 1] + 1, prev + (ca != cb)
            )
    return dp[len(b)]


def test_levenshtein1_matches_dp():
    from donkey_ray.pipelines.fuzzy import levenshtein1

    rng = np.random.default_rng(17)
    alphabet = "abc"
    for _ in range(3000):
        la, lb = rng.integers(0, 7, 2)
        a = "".join(rng.choice(list(alphabet), la))
        b = "".join(rng.choice(list(alphabet), lb))
        assert levenshtein1(a, b) == (_lev_dp(a, b) <= 1), (a, b)


def test_fuzzy_expansion_complete(built):
    """expand_fuzzy must return EXACTLY the dictionary terms within edit
    distance 1 — the padded-trigram + short-terms candidate scheme is
    provably complete for max_edit=1; verify against brute force over
    the full vocabulary, including typo'd, short, and absent probes."""
    from donkey_ray.pipelines.fuzzy import expand_fuzzy, fuzzy_topk

    _, out, _, oracle = built
    vocab = sorted(oracle.postings)
    probes = [vocab[0], vocab[len(vocab) // 2], COMMON_TOKEN]
    # synthesize 1-edit typos: deletion, substitution, insertion
    t = vocab[len(vocab) // 3]
    probes += [t[1:], "z" + t[1:], t[:3] + "z" + t[3:], "zz", "a", "zzzznope"]
    for q in probes:
        want = sorted(v for v in vocab if _lev_dp(q, v) <= 1)
        got = expand_fuzzy(out, q)
        assert got == want, q
    # fuzzy_topk over a typo == plain topk over the union of its matches
    engine = QueryEngine(out)
    q = "z" + COMMON_TOKEN[1:]
    matches = expand_fuzzy(out, q)
    assert COMMON_TOKEN in matches
    got = fuzzy_topk(out, q, 10)
    want = engine.topk(" ".join(matches), 10)
    assert got == pytest.approx(want)


def test_wildcard_expansion_complete(built):
    """expand_substring must return EXACTLY the dictionary terms with the
    probe as suffix/substring — verify against brute force over the full
    vocabulary at probe lengths that exercise both the gram-equality path
    (len(probe_padded) >= 3) and the substring-scan fallback."""
    from donkey_ray.pipelines.fuzzy import expand_substring, wildcard_topk

    _, out, _, oracle = built
    vocab = sorted(oracle.postings)
    t = vocab[len(vocab) // 2]
    for s in [t[-3:], t[-2:], t[-1:], "zz", COMMON_TOKEN]:
        want = sorted(v for v in vocab if v.endswith(s))
        assert expand_substring(out, s, "suffix") == want, ("suffix", s)
    for s in [t[1:4], t[:2], t[-1:], "zq", COMMON_TOKEN]:
        want = sorted(v for v in vocab if s in v)
        assert expand_substring(out, s, "contains") == want, ("contains", s)
    # wildcard_topk over '*mid*' == plain topk over the matched expansion
    engine = QueryEngine(out)
    mid = COMMON_TOKEN[1:-1]
    matches = expand_substring(out, mid, "contains")
    assert COMMON_TOKEN in matches
    got = wildcard_topk(out, f"*{mid}*", 10)
    want = engine.topk(" ".join(matches), 10)
    assert got == pytest.approx(want)
    # trailing-star dispatch equals the sharded-dictionary prefix path
    assert wildcard_topk(out, t[:2] + "*", 10) == pytest.approx(
        engine.prefix_topk(t[:2], 10, max_terms=4096)
    )


def test_fielded_topk_combines_untruncated_fields(built, tmp_path):
    """fielded_topk == weighted sum of per-field score_all hit sets,
    truncated only after combination — verified against a by-hand numpy
    combine of the two engines' untruncated outputs, on two field
    indexes sharing the doc_id space (content, and a 'repo' field)."""
    import ray.data

    from donkey_ray.pipelines.query import fielded_topk

    corpus, out, _, oracle = built
    # second field: index the repo column as content over the same ids
    field_tbl = corpus.set_column(
        corpus.schema.get_field_index("content"), "content",
        corpus.column("repo").cast(pa.string()),
    )
    out2 = str(tmp_path / "field_repo")
    build_index(ray.data.from_arrow(field_tbl), out2,
                num_partitions=4, query_lang="code", id_col=None)
    e1, e2 = QueryEngine(out), QueryEngine(out2)
    repo_term = field_tbl.column("content")[0].as_py().lower()
    cq, sq, w1, w2 = COMMON_TOKEN, repo_term, 1.0, 3.0
    acc: dict[int, float] = {}
    for eng, q, w in ((e1, cq, w1), (e2, sq, w2)):
        res = eng.score_all(q)
        assert res is not None
        docs, scores = res
        for d, s in zip(docs.tolist(), (scores * w).tolist()):
            acc[d] = acc.get(d, 0.0) + s
    want = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    got = fielded_topk(
        {"content": out, "repo": out2}, {"content": cq, "repo": sq},
        {"content": w1, "repo": w2}, 10,
    )
    assert [d for d, _ in got] == [d for d, _ in want]
    assert [s for _, s in got] == pytest.approx([s for _, s in want])
    # empty/absent field queries contribute nothing
    assert fielded_topk({"content": out}, {"content": ""}, {}, 10) == []


def test_prf_topk_matches_reference(built):
    """PRF (two-pass Rocchio-style expansion) vs an independent
    dict-based reference: stage-1 BM25 top-N feedback docs, expansion
    term pick by integer-exact tf-idf (summed feedback tf x quantized
    idf, ties term asc, originals excluded), stage-2 boosted BM25."""
    import math

    from donkey_ray.functions import scoring
    from donkey_ray.functions.tokenize import get_tokenizer
    from donkey_ray.pipelines.query import prf_topk

    corpus, out, _, oracle = built
    from donkey_ray.functions.hashing import doc_id_from_key

    ids = [
        doc_id_from_key(r, p, c)
        for r, p, c in zip(corpus.column("repo").to_pylist(),
                           corpus.column("path").to_pylist(),
                           corpus.column("commit").to_pylist())
    ]
    texts = pa.table({"doc_id": pa.array(ids, pa.int64()),
                      "text": corpus.column("content").cast(pa.string())})
    text_by_id = dict(zip(ids, corpus.column("content").to_pylist()))

    queries = make_queries(10, seed=7)
    got = prf_topk(out, queries, texts, feedback_docs=5,
                   expansion_terms=3, expansion_weight=0.5, k=8)

    tok = get_tokenizer("code")
    expect = []
    for row in queries.to_pylist():
        fb = oracle.topk(row["text"], 5, lang="code")
        orig = set(tok.tokenize(row["text"]))
        from collections import Counter

        ftf: Counter = Counter()
        for d, _ in fb:
            ftf.update(tok.tokenize(text_by_id[d]))
        cand = []
        for t, tfs in ftf.items():
            if t in orig:
                continue
            df = len(oracle.postings.get(t, {}))
            idf6 = math.floor(
                math.log((oracle.n_docs + 1.0) / (df + 1.0)) * 1e6 + 0.5)
            cand.append((-tfs * idf6, t))
        cand.sort()
        exp_terms = [t for _, t in cand[:3]]
        # stage 2: weighted disjunctive BM25 over orig(1.0) + exp(0.5)
        weights = {t: 1.0 for t in orig}
        weights.update({t: 0.5 for t in exp_terms})
        scores: dict[int, float] = {}
        for t, w in weights.items():
            plist = oracle.postings.get(t)
            if not plist:
                continue
            w_idf = w * float(scoring.idf(len(plist), oracle.n_docs))
            for d, tf in plist.items():
                scores[d] = scores.get(d, 0.0) + w_idf * float(
                    scoring.tf_weight(tf, oracle.dl[d], oracle.avgdl))
        if scores:
            i = np.fromiter(scores.keys(), np.int64, len(scores))
            v = np.fromiter(scores.values(), np.float64, len(scores))
            order = scoring.topk_order(i, v, 8)
            for r, j in enumerate(order, start=1):
                expect.append((int(row["query_id"]), r, int(i[j]),
                               float(v[j])))

    got_rows = list(zip(got.column("query_id").to_pylist(),
                        got.column("rank").to_pylist(),
                        got.column("doc_id").to_pylist()))
    exp_rows = [(q, r, d) for q, r, d, _ in expect]
    assert got_rows == exp_rows
    assert got.column("score").to_pylist() == pytest.approx(
        [s for _, _, _, s in expect])


def test_bool_topk_matches_reference(built):
    """Nested boolean DSL vs an independent set-based reference over the
    oracle's dict postings: OR loosest, AND/NOT tighter left-assoc,
    implicit AND, parens, parity-flip scoring under NOT's right operand,
    score-0 pure-filter matches, malformed -> []."""
    import re

    from donkey_ray.functions import scoring
    from donkey_ray.functions.tokenize import get_tokenizer

    corpus, out, _, oracle = built
    engine = QueryEngine(out)
    tok = get_tokenizer("code")

    terms = sorted(t for t, p in oracle.postings.items()
                   if 5 <= len(p) <= 150)
    a, b, c, d2 = terms[0], terms[7], terms[13], terms[21]
    exprs = [
        f"{a} AND ({b} OR {c})",
        f"{a} OR {b} NOT {c}",
        f"({a} OR {b}) NOT ({c} AND {d2})",
        f"{a} {b}",                        # implicit AND
        f"{a} NOT ({b} NOT {c})",          # parity 2: c scores again
        f"zzzneverseen AND {a}",           # absent term annihilates AND
        f"{COMMON_TOKEN} NOT {COMMON_TOKEN}",  # self-negation: empty
        f"{a} OR ({b} AND {c}) OR {d2}",
        # COMMON_TOKEN is in every doc: these always produce hits
        f"{COMMON_TOKEN} AND ({a} OR {b})",
        f"{COMMON_TOKEN} NOT {a}",
        f"({COMMON_TOKEN} NOT {a}) OR {b}",
    ]

    def ref_bool(expr, k):
        toks = [s if s in ("(", ")", "AND", "OR", "NOT") else ("atom", s)
                for s in re.findall(r"\(|\)|[^\s()]+", expr)]
        pos: set[str] = set()

        def unary(i, par):
            if i < len(toks) and toks[i] == "(":
                node, i = orx(i + 1, par)
                assert toks[i] == ")"
                return node, i + 1
            assert isinstance(toks[i], tuple)
            ts = tok.tokenize(toks[i][1])
            if par == 0:
                pos.update(ts)
            sets = [set(oracle.postings.get(t, {})) for t in ts]
            if not sets:
                return set(), i + 1
            out = sets[0]
            for s in sets[1:]:
                out &= s
            return out, i + 1

        def andx(i, par):
            node, i = unary(i, par)
            while i < len(toks) and (toks[i] in ("AND", "NOT")
                                     or toks[i] == "("
                                     or isinstance(toks[i], tuple)):
                if toks[i] == "AND":
                    r, i = unary(i + 1, par)
                    node = node & r
                elif toks[i] == "NOT":
                    r, i = unary(i + 1, par ^ 1)
                    node = node - r
                else:
                    r, i = unary(i, par)
                    node = node & r
            return node, i

        def orx(i, par):
            node, i = andx(i, par)
            while i < len(toks) and toks[i] == "OR":
                r, i = andx(i + 1, par)
                node = node | r
            return node, i

        matched, end = orx(0, 0)
        assert end == len(toks)
        if not matched:
            return []
        scores = {d: 0.0 for d in matched}
        for t in pos:
            plist = oracle.postings.get(t)
            if not plist:
                continue
            w_idf = float(scoring.idf(len(plist), oracle.n_docs))
            for d in matched & plist.keys():
                scores[d] += w_idf * float(scoring.tf_weight(
                    plist[d], oracle.dl[d], oracle.avgdl))
        i_arr = np.fromiter(scores.keys(), np.int64, len(scores))
        v_arr = np.fromiter(scores.values(), np.float64, len(scores))
        order = scoring.topk_order(i_arr, v_arr, k)
        return [(int(i_arr[j]), float(v_arr[j])) for j in order]

    hit_any = 0
    for expr in exprs:
        got = engine.bool_topk(expr, 12)
        want = ref_bool(expr, 12)
        assert [d for d, _ in got] == [d for d, _ in want], expr
        assert [s for _, s in got] == pytest.approx(
            [s for _, s in want]), expr
        hit_any += bool(got)
    assert hit_any >= 6  # the fixture corpus must exercise real matches

    for bad in ["(", f"{a} AND", f"OR {a}", f"({a} OR {b}", "", ") junk ("]:
        assert engine.bool_topk(bad, 10) == []


def test_bm25f_topk_matches_reference(built, tmp_path):
    """BM25F vs an independent dict reference: per-field normalized,
    weighted tfs blend BEFORE the single saturation; idf over the union
    doc set; and the saturation ceiling separates it from fielded_topk's
    per-field score sum."""
    import ray.data

    from donkey_ray.pipelines.query import bm25f_topk

    corpus, out, _, oracle = built
    field_tbl = corpus.set_column(
        corpus.schema.get_field_index("content"), "content",
        corpus.column("repo").cast(pa.string()),
    )
    out2 = str(tmp_path / "bm25f_repo")
    build_index(ray.data.from_arrow(field_tbl), out2,
                num_partitions=4, query_lang="code", id_col=None)
    oracle2 = BM25Oracle.from_corpus(field_tbl)
    weights = {"content": 1.0, "repo": 3.0}
    repo_term = field_tbl.column("content")[0].as_py().lower()
    queries = [f"{COMMON_TOKEN} {repo_term}", repo_term, COMMON_TOKEN,
               "zzzneverseen", f"{COMMON_TOKEN} {COMMON_TOKEN}"]

    from donkey_ray.functions import scoring
    from donkey_ray.functions.tokenize import get_tokenizer

    tok = get_tokenizer("code")
    n = max(oracle.n_docs, oracle2.n_docs)
    oracles = {"content": (oracle, weights["content"]),
               "repo": (oracle2, weights["repo"])}

    def ref(text, k):
        scores: dict[int, float] = {}
        for t in sorted(set(tok.tokenize(text))):
            union: set[int] = set()
            for o, _ in oracles.values():
                union |= set(o.postings.get(t, {}))
            if not union:
                continue
            idf = float(scoring.idf(len(union), n))
            for d in union:
                tfw = 0.0
                for o, w in oracles.values():  # sorted field order
                    plist = o.postings.get(t, {})
                    if d in plist:
                        tfw += (w * plist[d]) / (
                            1 - scoring.B + scoring.B * o.dl[d] / o.avgdl)
                scores[d] = scores.get(d, 0.0) + (
                    idf * tfw * (scoring.K1 + 1) / (tfw + scoring.K1))
        if not scores:
            return []
        i = np.fromiter(scores.keys(), np.int64, len(scores))
        v = np.fromiter(scores.values(), np.float64, len(scores))
        order = scoring.topk_order(i, v, k)
        return [(int(i[j]), float(v[j])) for j in order]

    idx = {"content": out, "repo": out2}
    hit_any = 0
    for text in queries:
        got = bm25f_topk(idx, weights, text, 12)
        want = ref(text, 12)
        assert [d for d, _ in got] == [d for d, _ in want], text
        assert [s for _, s in got] == pytest.approx(
            [s for _, s in want]), text
        hit_any += bool(got)
    assert hit_any == 4  # only zzzneverseen is empty

    # saturation ceiling: every per-term contribution < idf * (k1 + 1)
    got = bm25f_topk(idx, weights, COMMON_TOKEN, 5)
    idf_c = float(scoring.idf(oracle.n_docs, n))  # COMMON in every doc
    assert all(s < idf_c * (scoring.K1 + 1) + 1e-12 for _, s in got)


def test_search_eval_matches_reference(built):
    """Retrieval metrics vs an oracle-derived reference: qrels are the
    conjunctive match sets; p@k / MRR / nDCG recomputed independently."""
    import math

    from donkey_ray.pipelines.query import search_eval

    _, out, _, oracle = built
    queries = make_queries(12, seed=3)
    got = search_eval(out, queries, k=8).sort_by("query_id")

    for i, row in enumerate(queries.to_pylist()):
        run = [d for d, _ in oracle.topk(row["text"], 8, lang="code")]
        rel = {d for d, _ in
               oracle.and_topk(row["text"], 10 ** 9, lang="code")}
        p = sum(d in rel for d in run) / 8
        first = next((r for r, d in enumerate(run, 1) if d in rel), None)
        dcg = sum(1 / math.log2(r + 1)
                  for r, d in enumerate(run, 1) if d in rel)
        idcg = sum(1 / math.log2(r + 1)
                   for r in range(1, min(len(rel), 8) + 1))
        assert got.column("n_rel")[i].as_py() == len(rel)
        assert got.column("p_at_k")[i].as_py() == pytest.approx(p)
        assert got.column("mrr")[i].as_py() == pytest.approx(
            1 / first if first else 0.0)
        assert got.column("ndcg")[i].as_py() == pytest.approx(
            dcg / idcg if idcg else 0.0)

    # a single-term query's run is entirely relevant by construction
    single = pa.table({"query_id": pa.array([0], pa.int64()),
                       "text": pa.array([COMMON_TOKEN], pa.string()),
                       "k": pa.array([8], pa.int32())})
    se = search_eval(out, single, k=8)
    assert se.column("p_at_k")[0].as_py() == 1.0
    assert se.column("mrr")[0].as_py() == 1.0


def test_jsonl_and_text_dir_sources(ray_session, tmp_path):
    """Raw-ingest adapters: a JSONL corpus and a source-file tree both
    land in the corpus shape; the JSONL-built index answers queries
    identically to the parquet-built one."""
    import json as _json

    import ray.data

    from donkey_ray.sources.corpus import (
        read_corpus_jsonl, read_corpus_text_dir)

    corpus = make_corpus(80, seed=19)
    jl = tmp_path / "corpus.jsonl"
    with open(jl, "w") as f:
        for row in corpus.to_pylist():
            f.write(_json.dumps(row) + "\n")
    got = (
        read_corpus_jsonl(str(jl))
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    want = (
        corpus.to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    )
    assert got.equals(want[got.columns.tolist()])

    # lang filter pushes through
    langs = sorted(set(corpus.column("lang").to_pylist()))[:1]
    flt = read_corpus_jsonl(str(jl), langs=langs).to_pandas()
    assert set(flt["lang"]) == set(langs)
    assert len(flt) == want[want.lang.isin(langs)].shape[0]

    # missing required key fails fast
    bad = tmp_path / "bad.jsonl"
    with open(bad, "w") as f:
        f.write(_json.dumps({"repo": "r", "path": "p"}) + "\n")
    with pytest.raises(Exception, match="missing"):
        read_corpus_jsonl(str(bad)).materialize()

    # end-to-end: index built from the JSONL answers like the parquet one
    out_a = str(tmp_path / "idx_jsonl")
    out_b = str(tmp_path / "idx_table")
    build_index(read_corpus_jsonl(str(jl)), out_a, num_partitions=4,
                query_lang="code", detect_hot=False)
    build_index(ray.data.from_arrow(corpus), out_b, num_partitions=4,
                query_lang="code", detect_hot=False)
    ea, eb = QueryEngine(out_a), QueryEngine(out_b)
    for row in make_queries(15, seed=2).to_pylist():
        assert ea.topk(row["text"], 10) == eb.topk(row["text"], 10)

    # text-dir tree: relative paths, extension lang map, content intact
    root = tmp_path / "tree"
    (root / "pkg").mkdir(parents=True)
    (root / "pkg" / "a.py").write_text("def alpha(): return 1\n")
    (root / "b.rs").write_text("fn beta() -> u32 { 2 }\n")
    (root / "notes.txt").write_text("plain text\n")
    td = (
        read_corpus_text_dir(str(root), repo="r1", commit="c1")
        .to_pandas()
        .sort_values("path")
        .reset_index(drop=True)
    )
    assert td["path"].tolist() == ["b.rs", "notes.txt", "pkg/a.py"]
    assert td["lang"].tolist() == ["rust", "simple", "python"]
    assert td["content"][2] == "def alpha(): return 1\n"
    assert set(td["repo"]) == {"r1"} and set(td["commit"]) == {"c1"}


def test_mmr_topk_matches_reference(built):
    """MMR diversification vs an independent greedy reference over
    synthetic per-doc embeddings, plus the defining behavior: a
    candidate identical-in-embedding to an already-selected doc is
    demoted below a slightly-less-relevant but novel one."""
    from donkey_ray.pipelines.query import mmr_topk

    corpus, out, _, oracle = built
    ids = sorted(oracle.dl)
    rng = np.random.default_rng(77)
    emb = {d: rng.standard_normal(8) for d in ids}
    # make the BM25 top-2 docs for COMMON_TOKEN embedding-identical
    top2 = [d for d, _ in oracle.topk(COMMON_TOKEN, 2, lang="code")]
    emb[top2[1]] = emb[top2[0]].copy()
    emb_tbl = pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([list(emb[d]) for d in ids],
                              pa.list_(pa.float64())),
    })
    queries = make_queries(8, seed=13)
    lam, c, k = 0.5, 20, 6
    got = mmr_topk(out, emb_tbl, queries, c=c, k=k, lam=lam)

    def ref(text):
        hits = oracle.topk(text, c, lang="code")
        if not hits:
            return []
        ids_c = np.array([d for d, _ in hits], dtype=np.int64)
        rel = np.array([s for _, s in hits])
        m = np.stack([emb[int(d)] for d in ids_c])
        m = m / np.linalg.norm(m, axis=1, keepdims=True)
        sims = m @ m.T
        chosen, avail, outr = [], np.ones(len(ids_c), bool), []
        for rank in range(1, min(k, len(ids_c)) + 1):
            obj = (lam * rel - (1 - lam) * sims[:, chosen].max(axis=1)
                   if chosen else lam * rel)
            oa = np.where(avail, obj, -np.inf)
            b = np.lexsort((ids_c, -oa))[0]
            chosen.append(b)
            avail[b] = False
            outr.append((rank, int(ids_c[b]), float(obj[b])))
        return outr

    gq = got.column("query_id").to_pylist()
    rows = list(zip(got.column("rank").to_pylist(),
                    got.column("doc_id").to_pylist(),
                    got.column("mmr").to_pylist()))
    for qrow in queries.to_pylist():
        qid = int(qrow["query_id"])
        mine = [r for r, g in zip(rows, gq) if g == qid]
        want = ref(qrow["text"])
        assert [(r, d) for r, d, _ in mine] == [(r, d) for r, d, _ in want]
        assert [s for _, _, s in mine] == pytest.approx(
            [s for _, _, s in want])

    # the embedding-duplicate of the rank-1 doc must NOT be pick 2
    cq = pa.table({"query_id": pa.array([0], pa.int64()),
                   "text": pa.array([COMMON_TOKEN], pa.string()),
                   "k": pa.array([6], pa.int32())})
    res = mmr_topk(out, emb_tbl, cq, c=c, k=3, lam=lam)
    picks = res.column("doc_id").to_pylist()
    assert picks[0] == top2[0]
    assert picks[1] != top2[1]  # exact duplicate demoted


def test_passage_topk_matches_reference(ray_session, tmp_path):
    """MaxP passage retrieval vs a brute reference: chunk with the
    pinned rule, score chunks with the chunk-corpus BM25 oracle,
    collapse to best chunk per parent (score desc, chunk asc), rank
    parents (score desc, parent asc)."""
    import ray.data

    from donkey_ray.pipelines.analyze import chunk_docs
    from donkey_ray.pipelines.query import passage_topk

    corpus = make_corpus(80, seed=29)
    texts = corpus.column("content").to_pylist()
    docs = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    size, stride, shift = 120, 80, 1000
    chunks = (
        chunk_docs(ray.data.from_arrow(docs), size=size, stride=stride)
        .to_pandas()
    )
    cid = (chunks.doc_id * shift + chunks.chunk_id).astype("int64")
    chunk_corpus = pa.table({
        "repo": pa.array(["p"] * len(chunks), pa.string()),
        "path": pa.array(cid.astype(str).tolist(), pa.string()),
        "commit": pa.array([""] * len(chunks), pa.string()),
        "lang": pa.array(["code"] * len(chunks), pa.string()),
        "content": pa.array(chunks.chunk_text.tolist(), pa.string()),
        "doc_id": pa.array(cid.tolist(), pa.int64()),
    })
    out = str(tmp_path / "pidx")
    build_index(ray.data.from_arrow(chunk_corpus), out, num_partitions=4,
                query_lang="code", id_col="doc_id", detect_hot=False)
    chunk_oracle = BM25Oracle.from_corpus(chunk_corpus, id_col="doc_id")

    queries = make_queries(10, seed=21)
    queries = queries.set_column(
        queries.column_names.index("k"), "k",
        pa.array([6] * queries.num_rows, pa.int32()),
    )  # the per-row k column wins over the default param
    got = passage_topk(out, queries, k=6, shift=shift)
    rows = list(zip(got.column("query_id").to_pylist(),
                    got.column("rank").to_pylist(),
                    got.column("doc_id").to_pylist(),
                    got.column("chunk_id").to_pylist(),
                    got.column("score").to_pylist()))
    any_multi = 0
    for qrow in queries.to_pylist():
        qid = int(qrow["query_id"])
        hits = chunk_oracle.topk(qrow["text"], 10 ** 9, lang="code")
        best: dict[int, tuple[int, float]] = {}
        for c, s in hits:  # oracle order: score desc, id asc
            p = c // shift
            if p not in best:
                best[p] = (c % shift, s)
        want = sorted(best.items(), key=lambda kv: (-kv[1][1], kv[0]))[:6]
        mine = [(r, d, c, s) for q, r, d, c, s in rows if q == qid]
        assert [(d, c) for _, d, c, _ in mine] == [
            (p, c) for p, (c, _) in want], qrow["text"]
        assert [s for *_, s in mine] == pytest.approx(
            [s for _, (_, s) in want])
        any_multi += sum(c > 0 for _, _, c, _ in mine)
    assert any_multi > 0  # non-first chunks actually win sometimes


def test_bool_topk_random_expressions(built):
    """Property test: random boolean expression trees over real vocab
    terms — engine bool_topk must equal a set-based evaluation of the
    SAME tree (sidestepping the parser) for match set, scoring terms,
    and scores."""
    import random

    from donkey_ray.functions import scoring

    _, out, _, oracle = built
    engine = QueryEngine(out)
    rng = random.Random(123)
    vocab = sorted(t for t, p in oracle.postings.items() if len(p) >= 3)
    terms_pool = [vocab[i] for i in
                  rng.sample(range(len(vocab)), min(12, len(vocab)))]

    def gen(depth):
        if depth == 0 or rng.random() < 0.4:
            return ("atom", rng.choice(terms_pool))
        op = rng.choice(["and", "or", "not"])
        return (op, gen(depth - 1), gen(depth - 1))

    def render(node, parent=None):
        if node[0] == "atom":
            return node[1]
        sym = {"and": "AND", "or": "OR", "not": "NOT"}[node[0]]
        s = f"{render(node[1], node[0])} {sym} {render(node[2], node[0])}"
        # parenthesize everything so precedence never reinterprets
        return f"({s})"

    def ev(node, parity, pos):
        if node[0] == "atom":
            if parity == 0:
                pos.add(node[1])
            return set(oracle.postings.get(node[1], {}))
        left = ev(node[1], parity, pos)
        right = ev(node[2], parity ^ (node[0] == "not"), pos)
        return {"and": left & right, "or": left | right,
                "not": left - right}[node[0]]

    for _ in range(40):
        tree = gen(3)
        expr = render(tree)
        pos: set[str] = set()
        matched = ev(tree, 0, pos)
        got = engine.bool_topk(expr, 15)
        if not matched:
            assert got == []
            continue
        scores = {d: 0.0 for d in matched}
        for t in pos:
            plist = oracle.postings.get(t)
            if not plist:
                continue
            w_idf = float(scoring.idf(len(plist), oracle.n_docs))
            for d in matched & plist.keys():
                scores[d] += w_idf * float(scoring.tf_weight(
                    plist[d], oracle.dl[d], oracle.avgdl))
        i = np.fromiter(scores.keys(), np.int64, len(scores))
        v = np.fromiter(scores.values(), np.float64, len(scores))
        order = scoring.topk_order(i, v, 15)
        want = [(int(i[j]), float(v[j])) for j in order]
        assert [d for d, _ in got] == [d for d, _ in want], expr
        assert [s for _, s in got] == pytest.approx(
            [s for _, s in want]), expr


def test_prune_index(built, tmp_path):
    """Static pruning: per-term top-ceil(frac*df) postings by (tf desc,
    doc asc) survive; scores match a reference over the pruned dict
    postings (pruned idf, original dl/avgdl/N); keep_frac=1 is lossless;
    the artifact is genuinely smaller and every vocab term survives."""
    from donkey_ray.functions import scoring
    from donkey_ray.pipelines.prune import prune_index
    from donkey_ray.state import manifest as mf_

    corpus, out, meta, oracle = built
    pr = str(tmp_path / "pruned")
    pmeta = prune_index(out, pr, keep_frac=0.5)
    assert pmeta["n_postings"] < meta["n_postings"]
    assert pmeta["n_docs"] == meta["n_docs"]
    assert pmeta["avgdl"] == meta["avgdl"]
    assert mf_.is_complete(pr)

    # pruned reference postings from the oracle's dicts
    pruned: dict[str, dict[int, int]] = {}
    for t, plist in oracle.postings.items():
        kn = max(1, int(np.ceil(0.5 * len(plist) - 1e-9)))
        keep = sorted(plist.items(), key=lambda kv: (-kv[1], kv[0]))[:kn]
        pruned[t] = dict(keep)
    assert all(len(p) >= 1 for p in pruned.values())

    eng = QueryEngine(pr)
    # vocabulary preserved, per-term df = pruned count
    for t in list(oracle.postings)[::7]:
        assert eng.term_df(t) == len(pruned[t]), t

    def ref(text, k):
        scores: dict[int, float] = {}
        from donkey_ray.functions.tokenize import get_tokenizer

        for t in sorted(set(get_tokenizer("code").tokenize(text))):
            plist = pruned.get(t)
            if not plist:
                continue
            w_idf = float(scoring.idf(len(plist), oracle.n_docs))
            for d, tf in plist.items():
                scores[d] = scores.get(d, 0.0) + w_idf * float(
                    scoring.tf_weight(tf, oracle.dl[d], oracle.avgdl))
        if not scores:
            return []
        i = np.fromiter(scores.keys(), np.int64, len(scores))
        v = np.fromiter(scores.values(), np.float64, len(scores))
        order = scoring.topk_order(i, v, k)
        return [(int(i[j]), float(v[j])) for j in order]

    for row in make_queries(25, seed=6).to_pylist():
        got = eng.topk(row["text"], int(row["k"]))
        want = ref(row["text"], int(row["k"]))
        assert [d for d, _ in got] == [d for d, _ in want], row["text"]
        assert [s for _, s in got] == pytest.approx(
            [s for _, s in want]), row["text"]

    # keep_frac = 1.0 -> lossless: identical results to the full index
    full = str(tmp_path / "pruned_full")
    prune_index(out, full, keep_frac=1.0)
    ef, e0 = QueryEngine(full), QueryEngine(out)
    for row in make_queries(15, seed=8).to_pylist():
        assert ef.topk(row["text"], 10) == pytest.approx(
            e0.topk(row["text"], 10))

    with pytest.raises(ValueError, match="keep_frac"):
        prune_index(out, str(tmp_path / "bad"), keep_frac=0.0)


def test_tiered_topk(built, tmp_path):
    """Tiered serving: ample queries answer from the pruned tier-1 with
    tier-1 scores; queries tier-1 cannot fill to k fall back to the
    full index (tier 2, full-index scores); absent terms yield no rows."""
    from donkey_ray.pipelines.prune import prune_index
    from donkey_ray.pipelines.query import tiered_topk

    corpus, out, _, oracle = built
    pr = str(tmp_path / "tier1")
    prune_index(out, pr, keep_frac=0.5)
    e1, e2 = QueryEngine(pr), QueryEngine(out)

    rare = min((t for t in oracle.postings if 2 <= len(oracle.postings[t]) < 8),
               key=lambda t: (len(oracle.postings[t]), t))
    queries = pa.table({
        "query_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array([COMMON_TOKEN, rare, "zzznever"], pa.string()),
        "k": pa.array([8, 8, 8], pa.int32()),
    })
    got = tiered_topk(pr, out, queries, k=8)
    rows = got.to_pylist()

    q0 = [r for r in rows if r["query_id"] == 0]
    assert len(q0) == 8 and all(r["tier"] == 1 for r in q0)
    assert [(r["doc_id"], r["score"]) for r in q0] == pytest.approx(
        e1.topk(COMMON_TOKEN, 8))

    q1 = [r for r in rows if r["query_id"] == 1]
    assert q1 and all(r["tier"] == 2 for r in q1)  # df < 8 -> fallback
    assert [(r["doc_id"], r["score"]) for r in q1] == pytest.approx(
        e2.topk(rare, 8))
    assert len(q1) == len(oracle.postings[rare])

    assert not [r for r in rows if r["query_id"] == 2]


def test_topk_exact_merge_matches_per_doc_reference():
    """PROPERTY: the score merge _topk_exact uses must be BIT-identical
    to a plain per-doc accumulation in list order over random
    sorted-unique runs — float addition order is part of the spec."""
    import numpy as np

    from donkey_ray.functions import scoring

    rng = np.random.default_rng(33)
    for trial in range(50):
        n_terms = rng.integers(1, 5)
        per_ids, per_scores = [], []
        universe = rng.choice(np.arange(10_000), size=2_000, replace=False)
        for _ in range(n_terms):
            m = int(rng.integers(1, 1500))
            ids = np.sort(rng.choice(universe, size=m, replace=False)).astype(np.int64)
            per_ids.append(ids)
            per_scores.append(rng.standard_normal(m))
        # reference: each doc's contributions added one by one, in list
        # order, starting from 0.0 (as the oracle does)
        acc: dict[int, float] = {}
        for ids, sc in zip(per_ids, per_scores):
            for d, x in zip(ids.tolist(), sc.tolist()):
                acc[d] = acc.get(d, 0.0) + x
        uq = np.array(sorted(acc), dtype=np.int64)
        ref = np.array([acc[d] for d in uq.tolist()])
        # the SHIPPED merge helper _topk_exact uses
        uniq, sums = scoring.merge_scored_runs(per_ids, per_scores)
        assert np.array_equal(uniq, uq)
        assert np.array_equal(sums, ref)  # BIT-identical, not approx
        # and the ranked heads agree under the pinned tie-break
        k = int(rng.integers(1, 20))
        assert np.array_equal(scoring.topk_order(uniq, sums, k),
                              scoring.topk_order(uq, ref, k))

def test_auto_partition_count_and_identical_results(ray_session, tmp_path):
    """VERDICT r3 item 6: num_partitions=None self-sizes from the
    hot-pass token estimate — a pure function of the DATA (pinned: same
    corpus -> same P on any cluster), persisted for resume — and query
    results are identical to an explicitly partitioned build."""
    import ray.data

    from donkey_ray.pipelines.build import (auto_partition_count,
                                            build_index)
    from donkey_ray.stages.score import QueryEngine
    from donkey_ray.synth import make_corpus, make_queries

    # the pure sizing function
    assert auto_partition_count(0) == 16         # no estimate -> default
    assert auto_partition_count(1) == 1
    assert auto_partition_count(32_000_000) == 1
    assert auto_partition_count(32_000_001) == 2
    assert auto_partition_count(10**15) == 1 << 18   # capped

    corpus = make_corpus(200, seed=31)
    auto_dir = str(tmp_path / "auto")
    meta = build_index(ray.data.from_arrow(corpus), auto_dir,
                       num_partitions=None, query_lang="code",
                       sample_mod=4)
    assert meta["num_partitions"] >= 1
    # estimate recorded alongside the hot set for resume stability
    import json
    with open(auto_dir + "/hot_terms.json") as f:
        rec = json.load(f)
    assert rec["est_total_tokens"] > 0
    assert rec["n_sample_tokens"] > 0

    exp_dir = str(tmp_path / "explicit")
    build_index(ray.data.from_arrow(corpus), exp_dir,
                num_partitions=7, query_lang="code", sample_mod=4)
    ea, ee = QueryEngine(auto_dir), QueryEngine(exp_dir)
    for row in make_queries(10).to_pylist():
        assert ea.topk(row["text"], int(row["k"])) == \
            ee.topk(row["text"], int(row["k"]))


def test_lang_stats_in_meta_and_engine(ray_session, tmp_path):
    """Per-lang collection stats (SURVEY §1.2): meta['lang_stats'] sums
    exactly to the segment-derived global total_len/n_docs, matches a
    direct docs-table recompute, and the federated engine sums member
    stats per lang."""
    import collections

    import pyarrow.dataset as pads
    import ray.data

    from donkey_ray.pipelines.build import build_index
    from donkey_ray.stages.score import QueryEngine
    from donkey_ray.synth import make_corpus

    corpus = make_corpus(150, seed=13)
    out = str(tmp_path / "ls")
    meta = build_index(ray.data.from_arrow(corpus), out,
                       num_partitions=4, query_lang="code")
    ls = meta["lang_stats"]
    assert ls and sum(s["n_docs"] for s in ls.values()) == meta["n_docs"]
    assert sum(s["total_len"] for s in ls.values()) == meta["total_len"]

    d = pads.dataset(out + "/docs").to_table(columns=["lang", "doc_len"])
    agg = collections.defaultdict(lambda: [0, 0])
    for lg, dl in zip(d.column("lang").to_pylist(),
                      d.column("doc_len").to_pylist()):
        agg[lg][0] += 1
        agg[lg][1] += dl
    for lg, (n, tot) in agg.items():
        assert ls[lg]["n_docs"] == n and ls[lg]["total_len"] == tot

    eng = QueryEngine(out)
    assert eng.lang_stats == ls
