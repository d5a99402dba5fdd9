"""Phrase-query conformance (positional index).

The positional build + ``QueryEngine.phrase_topk`` must be rank- AND
score-identical to a naive Python re-implementation over the raw texts,
including OVERLAPPING occurrences ('rep rep' in 'rep rep rep' = tf 2),
across partition counts, through multi-block posting runs
(> BLOCK_SIZE postings per term) and salted hot-term runs.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pytest

from donkey_ray import schemas
from donkey_ray.functions.codec import decode_runs
from donkey_ray.functions.scoring import BM25Scorer
from donkey_ray.pipelines.build import build_index
from donkey_ray.stages.encode import encode_partition_table
from donkey_ray.stages.extract import PostingsExtractor
from donkey_ray.stages.score import QueryEngine, _TermPostings


def _corpus(texts: list[str]) -> pa.Table:
    n = len(texts)
    return pa.table(
        {
            "repo": pa.array(["r"] * n),
            "path": pa.array([f"f{i}" for i in range(n)]),
            "commit": pa.array(["c"] * n),
            "lang": pa.array(["en"] * n),
            "content": pa.array(texts),
            # spread ids across the int64 space so hot-term salting (keyed
            # by the TOP doc_id bits) actually produces multiple runs
            "doc_id": pa.array(
                [((i % 16) << 59) | (1000 + 7 * i) for i in range(n)],
                pa.int64(),
            ),
        }
    )


def _naive_phrase_topk(texts, doc_ids, phrase, k=10):
    terms = re.findall(r"[a-z0-9]+", phrase.lower())
    toks = [re.findall(r"[a-z0-9]+", t.lower()) for t in texts]
    dls = [len(t) for t in toks]
    n_docs = len(texts)
    avgdl = sum(dls) / n_docs
    sc = BM25Scorer()
    hits = {}
    for d, tk in enumerate(toks):
        tf = sum(
            1
            for i in range(len(tk) - len(terms) + 1)
            if tk[i: i + len(terms)] == terms
        )
        if tf:
            hits[doc_ids[d]] = (tf, dls[d])
    if not hits:
        return []
    idf = float(sc.idf(len(hits), n_docs))
    out = [
        (doc, idf * float(sc.tf_weight(np.float64(tf), np.float64(dl), avgdl)))
        for doc, (tf, dl) in hits.items()
    ]
    out.sort(key=lambda x: (-x[1], x[0]))
    return out[:k]


def _texts(n: int, seed: int = 7) -> list[str]:
    """Every doc contains 'common' (hot candidate); > BLOCK_SIZE docs
    contain 'alpha beta' so those runs span multiple blocks."""
    rng = np.random.default_rng(seed)
    noise = ["x", "y", "z", "w", "q"]
    texts = []
    for i in range(n):
        words = ["common"]
        words += [noise[int(j)] for j in rng.integers(0, len(noise), 10)]
        if i % 2 == 0:
            words.insert(int(rng.integers(1, len(words))), "alpha beta")
        if i % 5 == 0:
            words.append("rep rep rep")
        if i % 3 == 0:
            words.append("common alpha")
        rng.shuffle(words)
        texts.append(" ".join(words))
    return texts


PHRASES = [
    "alpha beta",
    "rep rep",            # overlapping: tf 2 per 'rep rep rep'
    "common alpha",       # crosses the salted hot-term runs
    "alpha gamma",        # zero matches
    "common",             # single-word degenerate case
    "rep rep rep",
]


@pytest.fixture(scope="module")
def built_pos(ray_session, tmp_path_factory):
    import ray.data

    texts = _texts(300)
    corpus = _corpus(texts)
    out = str(tmp_path_factory.mktemp("pidx") / "index")
    meta = build_index(
        ray.data.from_arrow(corpus),
        out,
        num_partitions=4,
        id_col="doc_id",
        positions=True,
        sample_mod=2,
    )
    doc_ids = corpus.column("doc_id").to_pylist()
    return texts, doc_ids, out, meta


def test_positions_roundtrip_no_shuffle():
    """Extractor cells -> segment encode -> _TermPostings decode must
    reproduce every token position (pure kernel path, no Ray)."""
    texts = ["b a c a b a", "a a a a", "c b a"]
    ex = PostingsExtractor(1, id_col="doc_id", positions=True)
    batch = _corpus(texts)
    postings = ex(batch)
    seg, _ = encode_partition_table(postings)
    assert "poss" in seg.column_names and "block_pos_boff" in seg.column_names
    terms = seg.column("term").to_pylist()
    row = {n: seg.column(n)[terms.index("a")].as_py() for n in seg.column_names}
    (run,) = decode_runs([(row["doc_ids"], row["tfs"], row["dls"], row["df"])],
                         schemas.BLOCK_SIZE)
    pp = _TermPostings([(*run, row)], schemas.BLOCK_SIZE, BM25Scorer(),
                       len(texts), 1.0)
    docs_rep, pos = pp.positions_for(np.arange(len(pp.docs)))
    got = {}
    for d, p in zip(docs_rep.tolist(), pos.tolist()):
        got.setdefault(d, []).append(p)
    doc_ids = batch.column("doc_id").to_pylist()
    for i, t in enumerate(texts):
        want = [j for j, w in enumerate(t.split()) if w == "a"]
        assert sorted(got[doc_ids[i]]) == want


def test_meta_records_positions(built_pos):
    *_, meta = built_pos
    assert meta["positions"] is True


def test_phrase_matches_naive(built_pos):
    texts, doc_ids, out, _ = built_pos
    eng = QueryEngine(out)
    for phrase in PHRASES:
        got = eng.phrase_topk(phrase, 10)
        want = _naive_phrase_topk(texts, doc_ids, phrase, 10)
        assert [d for d, _ in got] == [d for d, _ in want], phrase
        np.testing.assert_allclose(
            [s for _, s in got], [s for _, s in want], rtol=1e-12,
            err_msg=phrase,
        )


def test_phrase_through_salted_hot_runs(built_pos):
    texts, doc_ids, out, meta = built_pos
    assert "common" in meta["hot_terms"]  # every doc contains it
    eng = QueryEngine(out)
    runs = eng.term_runs("common")
    assert len(runs) > 1  # actually salted into multiple runs
    got = eng.phrase_topk("common alpha", 10)
    want = _naive_phrase_topk(texts, doc_ids, "common alpha", 10)
    assert [d for d, _ in got] == [d for d, _ in want]


def test_multiblock_runs_exercised(built_pos):
    _, _, out, _ = built_pos
    eng = QueryEngine(out)
    total_df = sum(int(r["df"]) for r in eng.term_runs("alpha"))
    assert total_df > schemas.BLOCK_SIZE  # positions decode crossed blocks


def test_deterministic_across_partition_counts(built_pos, tmp_path_factory):
    import ray.data

    texts, doc_ids, out, _ = built_pos
    out3 = str(tmp_path_factory.mktemp("pidx3") / "index")
    build_index(
        ray.data.from_arrow(_corpus(texts)),
        out3,
        num_partitions=3,
        id_col="doc_id",
        positions=True,
        detect_hot=False,
    )
    a, b = QueryEngine(out), QueryEngine(out3)
    for phrase in PHRASES:
        assert a.phrase_topk(phrase, 10) == b.phrase_topk(phrase, 10)


def _naive_near_topk(texts, doc_ids, query, k=10, window=4):
    """Reference for QueryEngine.near_topk: doc matches iff it contains
    every distinct query term and some position p of the FIRST term has,
    for every other term, an occurrence q with |q - p| < window; scored
    as summed per-term BM25 (global df)."""
    terms = list(dict.fromkeys(re.findall(r"[a-z0-9]+", query.lower())))
    toks = [re.findall(r"[a-z0-9]+", t.lower()) for t in texts]
    dls = [len(t) for t in toks]
    n_docs = len(texts)
    avgdl = sum(dls) / n_docs
    sc = BM25Scorer()
    dfs = {t: sum(1 for tk in toks if t in tk) for t in terms}
    out = []
    for d, tk in enumerate(toks):
        if not terms or not all(t in tk for t in terms):
            continue
        pos = {}
        for i, w in enumerate(tk):
            pos.setdefault(w, []).append(i)
        if not any(
            all(
                any(abs(q - p) < window for q in pos[t])
                for t in terms[1:]
            )
            for p in pos[terms[0]]
        ):
            continue
        score = sum(
            float(sc.idf(dfs[t], n_docs))
            * float(sc.tf_weight(np.float64(len(pos[t])), np.float64(dls[d]), avgdl))
            for t in terms
        )
        out.append((doc_ids[d], score))
    out.sort(key=lambda x: (-x[1], x[0]))
    return out[:k]


NEAR_QUERIES = [
    # (query, window)
    ("alpha beta", 1),     # |q-p| < 1 is impossible for distinct terms
    ("alpha beta", 2),     # adjacency either side
    ("alpha beta", 5),
    ("common beta", 3),    # hot (salted multi-run) anchor
    ("beta common", 3),    # anchor order matters
    ("x y z", 4),          # three terms
    ("alpha gamma", 4),    # zero matches (absent term)
    ("common", 4),         # single-term degenerate
    ("rep rep", 4),        # duplicated -> single distinct term
]


def test_near_matches_naive(built_pos):
    texts, doc_ids, out, _ = built_pos
    eng = QueryEngine(out)
    for query, window in NEAR_QUERIES:
        got = eng.near_topk(query, 10, window=window)
        want = _naive_near_topk(texts, doc_ids, query, 10, window=window)
        assert [d for d, _ in got] == [d for d, _ in want], (query, window)
        np.testing.assert_allclose(
            [s for _, s in got], [s for _, s in want], rtol=1e-12,
            err_msg=f"{query} w={window}",
        )


def test_near_window_widens_monotonically(built_pos):
    """A larger window can only ADD matching docs, never drop one."""
    texts, doc_ids, out, _ = built_pos
    eng = QueryEngine(out)
    prev: set[int] = set()
    for window in (1, 2, 4, 8, 10_000):
        docs = {d for d, _ in eng.near_topk("alpha beta", 10_000, window=window)}
        assert prev <= docs, window
        prev = docs
    # unbounded window == plain conjunctive AND over the terms
    both = {
        d
        for d, tk in zip(
            doc_ids, (re.findall(r"[a-z0-9]+", t.lower()) for t in texts)
        )
        if "alpha" in tk and "beta" in tk
    }
    assert prev == both


def test_phrase_requires_positional_index(ray_session, tmp_path_factory):
    import ray.data

    out = str(tmp_path_factory.mktemp("plain") / "index")
    build_index(
        ray.data.from_arrow(_corpus(["a b c", "b c d"])),
        out,
        num_partitions=2,
        id_col="doc_id",
        detect_hot=False,
    )
    eng = QueryEngine(out)
    with pytest.raises(ValueError, match="positions"):
        eng.phrase_topk("a b", 5)
    with pytest.raises(ValueError, match="positions"):
        eng.near_topk("a b", 5)


def test_positional_compaction(built_pos, tmp_path_factory):
    """Merging positional delta indexes must preserve positions: phrase
    and proximity results on the COMPACTED index equal the single-index
    results (per-posting pos cells round-trip through the merge shuffle)."""
    import ray.data

    from donkey_ray.pipelines.incremental import merge_indexes

    texts, doc_ids, out, _ = built_pos
    halves = []
    for parity in (0, 1):
        sel = [i for i in range(len(texts)) if i % 2 == parity]
        half = str(tmp_path_factory.mktemp(f"ph{parity}") / "index")
        corpus = _corpus(texts).take(sel)
        build_index(
            ray.data.from_arrow(corpus),
            half,
            num_partitions=3,
            id_col="doc_id",
            positions=True,
            detect_hot=False,
        )
        halves.append(half)
    merged = str(tmp_path_factory.mktemp("pmerged") / "index")
    meta = merge_indexes(halves, merged, num_partitions=4)
    assert meta["positions"] is True
    a, b = QueryEngine(out), QueryEngine(merged)
    for phrase in PHRASES:
        assert a.phrase_topk(phrase, 10) == b.phrase_topk(phrase, 10), phrase
    for query, window in NEAR_QUERIES:
        assert a.near_topk(query, 10, window=window) == b.near_topk(
            query, 10, window=window
        ), (query, window)


def test_merge_rejects_mixed_positionality(built_pos, tmp_path_factory):
    import ray.data

    from donkey_ray.pipelines.incremental import merge_indexes

    _, _, out, _ = built_pos
    plain = str(tmp_path_factory.mktemp("mixp") / "index")
    build_index(
        ray.data.from_arrow(_corpus(["a b", "b c"])),
        plain,
        num_partitions=2,
        id_col="doc_id",
        detect_hot=False,
    )
    with pytest.raises(ValueError, match="positional"):
        merge_indexes([out, plain], str(tmp_path_factory.mktemp("mo") / "i"))


def test_sloppy_topk_pinned_spec(built_pos):
    """sloppy_topk (VERDICT r3 missing item 6): dyadic 2^-gap weights
    over adjacent-pair position matches, all-terms-present candidates,
    phrase-style pseudo-term scoring — checked against a per-doc naive
    reference, plus the serve-path kind."""
    import numpy as np

    from donkey_ray.stages.score import QueryEngine

    texts, doc_ids, index_dir, _meta = built_pos
    eng = QueryEngine(index_dir)
    tok = eng._tok

    def naive(query, slop, k=10):
        terms = tok.tokenize(query)
        tfw = {}
        for did, text in zip(doc_ids, texts):
            toks = tok.tokenize(text)
            if any(t not in toks for t in set(terms)):
                continue
            pos = {}
            for i, t in enumerate(toks):
                pos.setdefault(t, []).append(i)
            w = 0.0
            for a, b in zip(terms, terms[1:]):
                for p in pos.get(a, ()):
                    for q in pos.get(b, ()):
                        g = q - p - 1
                        if 0 <= g <= slop:
                            w += 2.0 ** -g
            if w > 0:
                tfw[did] = w
        if not tfw:
            return []
        df = len(tfw)
        idf = eng.scorer.idf(df, eng.n_docs)
        out = []
        for did, w in tfw.items():
            dl = float(len(tok.tokenize(texts[doc_ids.index(did)])))
            s = float(idf * eng.scorer.tf_weight(
                np.array([w]), np.array([dl]), eng.avgdl)[0])
            out.append((did, s))
        out.sort(key=lambda t: (-t[1], t[0]))
        return out[:k]

    for query, slop in [("alpha beta", 0), ("alpha beta", 2),
                        ("common alpha", 3), ("rep rep", 1),
                        ("common alpha beta", 2), ("zzznope alpha", 2),
                        ("alpha gamma", 3)]:
        got = eng.sloppy_topk(query, 10, slop=slop)
        want = naive(query, slop)
        assert got == pytest.approx(want), (query, slop, got, want)

    with pytest.raises(ValueError, match=">= 2"):
        eng.sloppy_topk("alpha", 5)

    # serve path: kind="sloppy" with slop riding the window param
    from donkey_ray.serve import IndexServer

    srv = IndexServer(index_dir)
    hits = srv.search("alpha beta", 5, kind="sloppy", window=2)
    assert [(h["doc_id"], h["score"]) for h in hits] == \
        pytest.approx(eng.sloppy_topk("alpha beta", 5, slop=2))


def test_out_of_range_window_and_min_match_rejected(built_pos, tmp_path):
    """near_topk window < 1 and msm_topk min_match < 1 raise ValueError
    (one-term queries included) instead of answering [], and the HTTP
    frontend maps them to 400."""
    import json
    import shutil
    import urllib.error
    import urllib.request

    from donkey_ray.httpserve import start_http_frontend
    from donkey_ray.serve import IndexServer

    _, _, out, _ = built_pos
    eng = QueryEngine(out)
    for query in ("alpha beta", "alpha"):
        for window in (0, -3):
            with pytest.raises(ValueError, match="window"):
                eng.near_topk(query, 10, window=window)
    with pytest.raises(ValueError, match="min_match"):
        eng.msm_topk("alpha beta", 10, 0)
    assert eng.near_topk("alpha beta", 10, window=2)
    assert eng.msm_topk("alpha beta", 10, 1) == eng.topk("alpha beta", 10)

    wdir = str(tmp_path / "idx")
    shutil.copytree(out, wdir)
    srv, port = start_http_frontend(primary=IndexServer(wdir))
    try:
        for body in ({"kind": "near", "window": 0},
                     {"kind": "msm", "min_match": 0}):
            req = urllib.request.Request(
                f"http://127.0.0.1:{port}/search", method="POST",
                data=json.dumps({"text": "alpha beta", "k": 5,
                                 **body}).encode(),
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as ex:
                urllib.request.urlopen(req, timeout=30)
            assert ex.value.code == 400, body
    finally:
        srv.shutdown()
