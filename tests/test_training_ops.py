"""Training-data pipeline ops: dedup family, ANN, text analysis."""

import numpy as np
import pyarrow as pa
import pytest

from donkey_ray.functions import minhash as mh
from donkey_ray.functions.textstats import fingerprint, lang_id, quality_metrics, shingles
from donkey_ray.util import dataset_to_table


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy cat",   # near-dup of 0
        "completely different content about spark and ray data",
        "the quick brown fox jumps over the lazy dog",   # exact dup of 0
        "der hund und die katze ist hier",
        "el perro y la casa es grande",
        "short",
        "",
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    return ray.data.from_arrow(tbl), texts


def test_exact_dedup(docs_ds):
    from donkey_ray.pipelines.dedup import exact_dedup, exact_dedup_groups

    ds, texts = docs_ds
    groups = dataset_to_table(exact_dedup_groups(ds))
    assert groups.num_rows == len(set(texts))
    by_hash = {r["content_sha256"]: r for r in groups.to_pylist()}
    import hashlib

    h0 = hashlib.sha256(texts[0].encode()).hexdigest()
    assert by_hash[h0]["doc_id"] == 0 and by_hash[h0]["n_dups"] == 2
    survivors = dataset_to_table(exact_dedup(ds))
    assert sorted(survivors.column("doc_id").to_pylist()) == [0, 1, 2, 4, 5, 6, 7]


def test_ngram_jaccard_pairs_match_bruteforce(docs_ds):
    from donkey_ray.pipelines.dedup import ngram_jaccard_pairs

    ds, texts = docs_ds
    got = dataset_to_table(ngram_jaccard_pairs(ds, n=1, threshold=0.5))
    got_pairs = {
        (r["doc_a"], r["doc_b"]): r["jaccard"] for r in got.to_pylist()
    }
    # brute force over distinct-token sets
    sets = [set(shingles(t, 1)) for t in texts]
    want = {}
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            if sets[i] and sets[j]:
                jac = len(sets[i] & sets[j]) / len(sets[i] | sets[j])
                if jac >= 0.5:
                    want[(i, j)] = jac
    assert got_pairs.keys() == want.keys()
    for k in want:
        assert got_pairs[k] == pytest.approx(want[k])
    assert (0, 3) in want  # exact dup pair found


def test_minhash_neardup(docs_ds):
    from donkey_ray.pipelines.dedup import minhash_neardup_pairs

    ds, texts = docs_ds
    got = dataset_to_table(minhash_neardup_pairs(ds, n=3, threshold=0.5))
    pairs = {(r["doc_a"], r["doc_b"]): r["jaccard"] for r in got.to_pylist()}
    assert (0, 3) in pairs and pairs[(0, 3)] == 1.0  # exact dup
    assert (0, 1) in pairs  # near dup shares most 3-gram shingles
    assert all(j >= 0.5 for j in pairs.values())


def test_minhash_estimates_jaccard():
    rng = np.random.default_rng(3)
    a = np.unique(rng.integers(0, 2**60, 400, dtype=np.uint64))
    b = np.concatenate([a[:300], np.unique(rng.integers(0, 2**60, 100, dtype=np.uint64))])
    b = np.unique(b)
    true = mh.jaccard(np.sort(a), np.sort(b))
    est = mh.estimate_jaccard(mh.minhash_signature(a), mh.minhash_signature(b))
    assert abs(true - est) < 0.15


def test_simhash_neardup(docs_ds):
    from donkey_ray.pipelines.dedup import simhash_neardup_pairs

    ds, texts = docs_ds
    got = dataset_to_table(simhash_neardup_pairs(ds, max_hamming=10))
    pairs = {(r["doc_a"], r["doc_b"]): r["min(hamming)"] for r in got.to_pylist()}
    assert pairs[(0, 3)] == 0  # identical text -> identical simhash
    assert (0, 1) in pairs  # near-dup within small hamming distance


def test_ann_brute_force(ray_session):
    import ray.data

    from donkey_ray.pipelines.ann import brute_force_topk, embedding_neardup_pairs

    rng = np.random.default_rng(5)
    vecs = rng.standard_normal((100, 16))
    vecs[7] = vecs[3] * 2.0  # same direction -> cos 1.0
    tbl = pa.table(
        {
            "vec_id": pa.array(range(100), pa.int64()),
            "embedding": pa.array(vecs.tolist(), pa.list_(pa.float32())),
        }
    )
    ds = ray.data.from_arrow(tbl)
    q = np.asarray(
        pa.Table.from_arrays([tbl.column("embedding")], ["e"]).column("e").to_pylist(),
        dtype=np.float64,
    )[[3]]
    res = brute_force_topk(ds, q, k=5)
    rows = res.to_pylist()
    assert rows[0]["rank"] == 1 and rows[0]["vec_id"] == 3
    assert rows[1]["vec_id"] == 7 and rows[1]["cos_sim"] == pytest.approx(1.0)
    # compare against direct numpy on float32-roundtripped vectors
    v32 = np.asarray(tbl.column("embedding").to_pylist(), dtype=np.float64)
    vn = v32 / np.linalg.norm(v32, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q)
    sims = vn @ qn.T
    order = np.lexsort((np.arange(100), -sims[:, 0]))[:5]
    assert [r["vec_id"] for r in rows] == list(order)

    pairs = embedding_neardup_pairs(ds, threshold=0.999)
    assert (3, 7) in {(r["vec_a"], r["vec_b"]) for r in pairs.to_pylist()}


def test_embedding_neardup_lsh_recall(ray_session):
    """The multi-table LSH path must recover >= 95% of true cos>=0.99
    pairs at the default (8 planes x 8 tables) — the scale-path recall
    gate for the approximate variant."""
    import ray.data

    from donkey_ray.pipelines.ann import embedding_neardup_pairs

    rng = np.random.default_rng(11)
    base = rng.standard_normal((120, 32))
    vecs = [base]
    # plant 60 near-dups: tiny perturbations of the first 60 vectors
    planted = base[:60] + 0.02 * rng.standard_normal((60, 32))
    vecs.append(planted)
    m = np.vstack(vecs)
    tbl = pa.table(
        {"vec_id": pa.array(range(len(m)), pa.int64()),
         "embedding": pa.array(m.tolist(), pa.list_(pa.float64()))}
    )
    ds = ray.data.from_arrow(tbl)
    exact = embedding_neardup_pairs(ds, threshold=0.99, exact=True)
    approx = embedding_neardup_pairs(ds, threshold=0.99, exact=False)
    want = {(r["vec_a"], r["vec_b"]) for r in exact.to_pylist()}
    got = {(r["vec_a"], r["vec_b"]) for r in approx.to_pylist()}
    assert want, "fixture must contain true near-dup pairs"
    assert got <= want  # LSH never invents pairs (same exact cosine check)
    recall = len(got & want) / len(want)
    assert recall >= 0.95, recall


def test_analyze_pipelines(docs_ds):
    from donkey_ray.pipelines.analyze import (
        corpus_stats,
        doc_fingerprints,
        doc_token_counts,
        language_id,
        quality_scores,
        term_df,
    )

    ds, texts = docs_ds
    counts = {r["doc_id"]: r["n_tokens"]
              for r in dataset_to_table(doc_token_counts(ds)).to_pylist()}
    assert counts[0] == 9 and counts[7] == 0 and counts[6] == 1

    dfs = {r["term"]: r["df"] for r in dataset_to_table(term_df(ds)).to_pylist()}
    assert dfs["the"] == 3  # docs 0,1,3
    assert dfs["fox"] == 3

    stats = corpus_stats(ds).to_pylist()[0]
    assert stats["n_docs"] == 8
    assert stats["total_len"] == sum(counts.values())

    qs = {r["doc_id"]: r for r in dataset_to_table(quality_scores(ds)).to_pylist()}
    m0 = quality_metrics(texts[0])
    assert qs[0]["n_tokens"] == m0["n_tokens"]
    assert qs[0]["stopword_ratio"] == pytest.approx(round(m0["stopword_ratio"], 6))

    langs = {r["doc_id"]: r["pred_lang"]
             for r in dataset_to_table(language_id(ds)).to_pylist()}
    assert langs[0] == "en" and langs[4] == "de" and langs[5] == "es"
    assert langs[7] == "unknown"

    fps = {r["doc_id"]: r["fingerprint"]
           for r in dataset_to_table(doc_fingerprints(ds)).to_pylist()}
    assert fps[0] == fps[3] == fingerprint(texts[0])
    assert fps[0] != fps[1]


def test_fingerprint_order_sensitive():
    assert fingerprint("a b c") != fingerprint("c b a")
    assert fingerprint("") == 0


def test_lang_id_tiebreak():
    # token 'de' is a marker for es, fr AND zh (count 1 each); the pinned
    # priority order (de, en, es, fr, zh) resolves the tie to 'es'
    assert lang_id("de") == "es"
    assert lang_id("xyz qqq") == "unknown"


def test_ngram_jaccard_threshold_boundary(ray_session):
    """Regression: t=0.9 with a 10-shingle/9-shingle pair at exactly
    J=0.9. Naive plen = int((1-t)*|sh|)+1 truncates (0.1*10 -> 0.999...)
    and misses the boundary pair; the guarded ceil formula finds it.
    Filler docs push vocab > 64 so the PREFIX path (not the dense-bitset
    fast path) is exercised."""
    import ray.data

    from donkey_ray.pipelines.dedup import ngram_jaccard_pairs

    texts = [
        " ".join(f"w{i}" for i in range(10)),  # A: 10 distinct shingles
        " ".join(f"w{i}" for i in range(9)),   # B: 9 -> J(A,B) = 9/10
    ]
    texts += [f"fill{i}x fill{i}y" for i in range(40)]  # 80 unique fillers
    tbl = pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    ds = ray.data.from_arrow(tbl)
    fast = dataset_to_table(
        ngram_jaccard_pairs(ds, n=1, threshold=0.9, prefix_filter=True,
                            dense_vocab_max=0))  # force the PREFIX path
    slow = dataset_to_table(
        ngram_jaccard_pairs(ds, n=1, threshold=0.9, prefix_filter=False))
    fp = {(r["doc_a"], r["doc_b"]): r["jaccard"] for r in fast.to_pylist()}
    sp = {(r["doc_a"], r["doc_b"]): r["jaccard"] for r in slow.to_pylist()}
    assert (0, 1) in fp and fp[(0, 1)] == pytest.approx(0.9)
    assert fp == pytest.approx(sp)


def test_exact_dedup_semijoin_matches_broadcast(docs_ds):
    from donkey_ray.pipelines.dedup import exact_dedup, exact_dedup_semijoin

    ds, texts = docs_ds
    broadcast = dataset_to_table(exact_dedup(ds))
    joined = dataset_to_table(exact_dedup_semijoin(ds))
    key = lambda t: sorted(t.to_pylist(), key=lambda r: r["doc_id"])
    assert key(joined) == key(broadcast)
    assert sorted(joined.column("doc_id").to_pylist()) == [0, 1, 2, 4, 5, 6, 7]


def test_keyed_cogroup_map(ray_session):
    """Cogroup co-locates equal key values from both sides regardless of
    partition count, with nothing materialized driver-side."""
    import ray.data

    from donkey_ray.stages.exchange import keyed_cogroup_map

    left = ray.data.from_arrow(pa.table(
        {"k": pa.array([1, 2, 3, 4, 5] * 20, pa.int64()),
         "v": pa.array(range(100), pa.int64())}))
    right = ray.data.from_arrow(pa.table(
        {"kk": pa.array([2, 4, 6], pa.int64()),
         "w": pa.array([20, 40, 60], pa.int64())}))

    def fn(lp: pa.Table, rp: pa.Table) -> pa.Table:
        keep = rp.column("kk").combine_chunks()
        import pyarrow.compute as pc
        out = lp.filter(pc.is_in(lp.column("k"), value_set=keep))
        return out

    for P in (2, 7):
        got = dataset_to_table(
            keyed_cogroup_map(left, right, ["k"], ["kk"], fn, num_partitions=P))
        assert sorted(got.column("k").to_pylist()) == [2] * 20 + [4] * 20


def test_ngram_jaccard_prefix_equals_bruteforce(ray_session):
    import ray.data

    from donkey_ray.pipelines.dedup import ngram_jaccard_pairs

    rng = np.random.default_rng(17)
    vocab = [f"w{i}" for i in range(40)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(5, 25)))
        for _ in range(120)
    ]
    texts[7] = texts[3]  # exact dup
    tbl = pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    ds = ray.data.from_arrow(tbl)
    for n, t in [(1, 0.5), (1, 0.3), (2, 0.5)]:
        # all three paths must agree: dense bitset (vocab fits), the
        # PREFIX candidate path (forced), and brute force
        dense = dataset_to_table(
            ngram_jaccard_pairs(ds, n=n, threshold=t, prefix_filter=True))
        fast = dataset_to_table(
            ngram_jaccard_pairs(ds, n=n, threshold=t, prefix_filter=True,
                                dense_vocab_max=0))
        slow = dataset_to_table(
            ngram_jaccard_pairs(ds, n=n, threshold=t, prefix_filter=False))
        dp = {(r["doc_a"], r["doc_b"]): r["jaccard"] for r in dense.to_pylist()}
        fp = {(r["doc_a"], r["doc_b"]): r["jaccard"] for r in fast.to_pylist()}
        sp = {(r["doc_a"], r["doc_b"]): r["jaccard"] for r in slow.to_pylist()}
        assert fp.keys() == sp.keys() == dp.keys(), (n, t)
        for k in fp:
            assert fp[k] == pytest.approx(sp[k])
            assert dp[k] == pytest.approx(sp[k])
        assert (3, 7) in fp


def test_ngram_jaccard_multiword_bitset(ray_session):
    """Mid-size vocab (64 < V <= 4096) exercises the MULTI-WORD bitset
    tiles; results must equal brute force exactly."""
    import ray.data

    from donkey_ray.pipelines.dedup import ngram_jaccard_pairs

    rng = np.random.default_rng(23)
    vocab = [f"tok{i}" for i in range(300)]  # 300 distinct -> W = 5 words
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(8, 30)))
        for _ in range(150)
    ]
    texts[11] = texts[4]  # exact dup
    tbl = pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    ds = ray.data.from_arrow(tbl)
    dense = dataset_to_table(
        ngram_jaccard_pairs(ds, n=1, threshold=0.4, prefix_filter=True))
    slow = dataset_to_table(
        ngram_jaccard_pairs(ds, n=1, threshold=0.4, prefix_filter=False))
    dp = {(r["doc_a"], r["doc_b"]): r["jaccard"] for r in dense.to_pylist()}
    sp = {(r["doc_a"], r["doc_b"]): r["jaccard"] for r in slow.to_pylist()}
    assert dp.keys() == sp.keys()
    for k in dp:
        assert dp[k] == pytest.approx(sp[k])
    assert (4, 11) in dp and dp[(4, 11)] == pytest.approx(1.0)


def test_hll_approx_distinct_matches_exact(ray_session):
    """HLL partials merged across batches estimate within 4% of the
    exact per-group distinct count (p=12 -> stderr ~1.6%; the fixture
    sits in the linear-counting transition zone where bias peaks)."""
    import ray.data

    from donkey_ray.pipelines.distinct import (
        approx_distinct_per_group,
        exact_distinct_per_group,
    )

    rng = np.random.default_rng(13)
    n = 40_000
    tbl = pa.table(
        {"g": pa.array(rng.choice(["a", "b", "c"], n).tolist(), pa.string()),
         "v": pa.array(rng.integers(0, 5_000, n), pa.int64())}
    )
    ds = ray.data.from_arrow(tbl)
    exact = {r["g"]: r["nd"] for r in dataset_to_table(
        exact_distinct_per_group(ds, group_col="g", value_col="v", out_col="nd")
    ).to_pylist()}
    approx = {r["g"]: r["n_distinct_approx"]
              for r in approx_distinct_per_group(ds, group_col="g", value_col="v").to_pylist()}
    assert exact.keys() == approx.keys()
    for g in exact:
        assert abs(approx[g] - exact[g]) / exact[g] < 0.04, (g, exact[g], approx[g])


def test_connected_components(ray_session):
    """Min-label propagation over explicit edge lists: chain (needs
    multiple propagation rounds), star, singleton pair, and disjoint
    components; cluster_id is the component min, cluster_size exact."""
    import ray.data

    from donkey_ray.pipelines.components import connected_components

    # chain 1-2-3-4-5, star 10-{11,12,13}, pair 20-21
    edges = pa.table(
        {
            "doc_a": pa.array([2, 3, 4, 5, 11, 12, 13, 21], pa.int64()),
            "doc_b": pa.array([1, 2, 3, 4, 10, 10, 10, 20], pa.int64()),
        }
    )
    out = dataset_to_table(
        connected_components(ray.data.from_arrow(edges).repartition(4))
    ).to_pylist()
    got = {r["doc_id"]: (r["cluster_id"], r["cluster_size"]) for r in out}
    assert len(out) == len(got) == 11
    for d in (1, 2, 3, 4, 5):
        assert got[d] == (1, 5)
    for d in (10, 11, 12, 13):
        assert got[d] == (10, 4)
    for d in (20, 21):
        assert got[d] == (20, 2)


def test_connected_components_empty(ray_session):
    import ray.data

    from donkey_ray.pipelines.components import connected_components

    empty = pa.table(
        {"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())}
    )
    out = dataset_to_table(connected_components(ray.data.from_arrow(empty)))
    assert out.num_rows == 0
    assert set(out.column_names) == {"doc_id", "cluster_id", "cluster_size"}


def test_regex_search(docs_ds):
    from donkey_ray.pipelines.analyze import regex_search

    ds, texts = docs_ds
    got = dataset_to_table(
        regex_search(ds, [(0, "qu[a-z]+k"), (1, "[0-9]+"), (2, "the")])
    ).to_pylist()
    by_key = {(r["pattern_id"], r["doc_id"]): r["n_matches"] for r in got}
    import re

    want = {}
    for pid, pat in [(0, "qu[a-z]+k"), (1, "[0-9]+"), (2, "the")]:
        for i, t in enumerate(texts):
            n = len(re.findall(pat, t))
            if n:
                want[(pid, i)] = n
    assert by_key == want


def test_cooccurrence_topk(docs_ds):
    from donkey_ray.pipelines.analyze import cooccurrence_topk

    ds, texts = docs_ds
    got = cooccurrence_topk(ds, k=1000).to_pylist()
    got_map = {(r["term_a"], r["term_b"]): r["n"] for r in got}
    from collections import Counter
    from itertools import combinations

    want = Counter()
    for t in texts:
        toks = sorted(set(x for x in
                          __import__("re").findall(r"[a-z0-9]+", t.lower())))
        want.update(combinations(toks, 2))
    assert got_map == dict(want)
    # ordering: n desc, then pair asc
    keys = [(-r["n"], r["term_a"], r["term_b"]) for r in got]
    assert keys == sorted(keys)


def test_index_stats_and_suggest(ray_session, tmp_path):
    import ray.data

    from donkey_ray.pipelines.build import build_index
    from donkey_ray.pipelines.introspect import index_stats, suggest

    texts = [
        "alpha beta gamma alpha",
        "beta delta",
        "alpha zeta zebra",
        "gamma gamma gamma",
    ]
    tbl = pa.table({
        "repo": pa.array(["r"] * len(texts), pa.string()),
        "path": pa.array([str(i) for i in range(len(texts))], pa.string()),
        "commit": pa.array([""] * len(texts), pa.string()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
        "content": pa.array(texts, pa.string()),
        "doc_id": pa.array(range(len(texts)), pa.int64()),
    })
    out = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(tbl), out, num_partitions=4,
                id_col="doc_id", query_lang="simple")
    st = index_stats(out).to_pylist()[0]
    # distinct (doc, term) postings: doc0 {alpha,beta,gamma}, doc1
    # {beta,delta}, doc2 {alpha,zeta,zebra}, doc3 {gamma}
    assert st == {"n_docs": 4, "n_terms": 6, "n_postings": 9,
                  "total_tokens": 12}
    sg = suggest(out, [(0, "ze"), (1, "g"), (2, "q")], k=5).to_pylist()
    assert [(r["prefix_id"], r["term"], r["df"], r["srank"]) for r in sg] == [
        (0, "zebra", 1, 1), (0, "zeta", 1, 2), (1, "gamma", 2, 1),
    ]


def test_cluster_canonical(ray_session):
    import ray.data

    from donkey_ray.pipelines.components import cluster_canonical

    clusters = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 5, 9, 2, 7], pa.int64()),
        "cluster_id": pa.array([1, 1, 1, 2, 2], pa.int64()),
        "cluster_size": pa.array([3, 3, 3, 2, 2], pa.int64()),
    }))
    quality = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([1, 5, 9, 2, 7], pa.int64()),
        # cluster 1: 5 and 9 tie on 8 tokens -> smaller doc_id (5) wins;
        # cluster 2: 7 beats 2
        "n_tokens": pa.array([3, 8, 8, 4, 6], pa.int64()),
    }))
    got = sorted(
        dataset_to_table(cluster_canonical(clusters, quality)).to_pylist(),
        key=lambda r: r["cluster_id"],
    )
    assert got == [
        {"cluster_id": 1, "canonical_doc_id": 5, "n_tokens": 8,
         "cluster_size": 3},
        {"cluster_id": 2, "canonical_doc_id": 7, "n_tokens": 6,
         "cluster_size": 2},
    ]


def test_export_clean_roundtrip(docs_ds, tmp_path):
    """The export sink writes the filtered+redacted rows to parquet and
    the read-back equals the in-stream result; a marked-complete export
    is served without rewriting."""
    import os

    from donkey_ray.pipelines.export import export_clean_corpus

    ds, texts = docs_ds
    out = str(tmp_path / "export")
    got = sorted(
        dataset_to_table(export_clean_corpus(ds, out)).to_pylist(),
        key=lambda r: r["doc_id"],
    )
    # docs 6 ('short') and 7 ('') fail min_tokens; doc 0/1/3 pass despite
    # stopwords ('the' twice over 9 tokens = 0.22)
    assert [r["doc_id"] for r in got] == [0, 1, 2, 3, 4, 5]
    assert all("@" not in r["redacted"] for r in got)
    mtime = os.path.getmtime(os.path.join(out, "_EXPORT_SUCCESS"))
    again = dataset_to_table(export_clean_corpus(ds, out)).num_rows
    assert again == len(got)
    assert os.path.getmtime(os.path.join(out, "_EXPORT_SUCCESS")) == mtime


def test_blocklist_filter(docs_ds):
    """Token-level banned-term gate: docs containing any blocklisted
    TOKEN drop; substrings of tokens never match; token-free docs
    survive; an all-absent blocklist is a no-op."""
    from donkey_ray.pipelines.analyze import blocklist_filter

    ds, texts = docs_ds
    got = dataset_to_table(
        blocklist_filter(ds, blocklist=("lazy", "zzzneverseen"))
    )
    # docs 0/1/3 contain the token 'lazy'; 6 ('short') and 7 ('') don't
    assert sorted(got.column("doc_id").to_pylist()) == [2, 4, 5, 6, 7]

    # substring must NOT match a token ('azy' ⊂ 'lazy', 'he' ⊂ 'the')
    sub = dataset_to_table(blocklist_filter(ds, blocklist=("azy", "he")))
    assert sub.num_rows == len(texts)

    noop = dataset_to_table(blocklist_filter(ds, blocklist=("zzznope",)))
    assert noop.num_rows == len(texts)


def test_simhash_neardup_two_bands(docs_ds):
    """max_hamming=1 -> n_bands=2: the widest bands (32-bit chunks) used
    to overflow uint64 in the band keying; exact dups must still pair."""
    from donkey_ray.functions import minhash as mh
    from donkey_ray.pipelines.dedup import simhash_neardup_pairs

    assert all(0 <= k < 2**64 for k in mh.simhash_bands(2**64 - 1, 2))
    ds, _ = docs_ds
    got = dataset_to_table(simhash_neardup_pairs(ds, max_hamming=1))
    pairs = {(r["doc_a"], r["doc_b"]) for r in got.to_pylist()}
    assert (0, 3) in pairs  # identical text, hamming 0


def test_decontaminate(docs_ds):
    """Brute-force n-gram overlap vs the broadcast streaming stage,
    including the cross-doc-window and doc-shorter-than-n edges."""
    from donkey_ray.pipelines.analyze import decontaminate, distinct_ngrams

    ds, texts = docs_ds
    n = 3
    bench_texts = [texts[0], texts[4]]  # dup/near-dup source + a german doc
    grams = distinct_ngrams(pa.array(bench_texts, pa.string()), n)

    def toks(t):
        import re
        return re.findall(r"[a-z0-9]+", t.lower())

    bench = {
        " ".join(ts[i:i + n])
        for t in bench_texts
        for ts in [toks(t)]
        for i in range(len(ts) - n + 1)
    }
    assert set(grams.to_pylist()) == bench

    got = dataset_to_table(decontaminate(ds, grams, n=n))
    got_map = dict(zip(got.column("doc_id").to_pylist(),
                       got.column("n_bench_grams").to_pylist()))
    want = {}
    for d, t in enumerate(texts):
        ts = toks(t)
        hit = {" ".join(ts[i:i + n]) for i in range(len(ts) - n + 1)} & bench
        if hit:
            want[d] = len(hit)
    assert got_map == want
    assert 0 in want and 6 not in want and 7 not in want


def test_heavy_hitters_sketch_certified(ray_session):
    """Misra-Gries + exact recount returns the EXACT top-k with per-batch
    truncation active (capacity << vocab), and refuses to answer when the
    k-th count cannot be certified against N/(capacity+1)."""
    import ray.data

    from donkey_ray.pipelines.analyze import heavy_hitters

    rng = np.random.default_rng(7)
    vocab = [f"w{i:02d}" for i in range(40)]
    # Zipf-ish: w00 heaviest, long tail; many docs so batches differ
    docs = []
    for _ in range(400):
        words = [vocab[min(int(rng.zipf(1.5)) - 1, 39)] for _ in range(30)]
        docs.append(" ".join(words))
    tbl = pa.table({"text": pa.array(docs, pa.string())})
    from collections import Counter

    truth = Counter(w for d in docs for w in d.split())
    want = sorted(truth.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    ds = ray.data.from_arrow(tbl).map_batches(
        lambda b: b, batch_format="pyarrow", batch_size=40
    )
    got = heavy_hitters(ds, k=5, capacity=24)
    assert list(zip(got.column("term").to_pylist(),
                    got.column("n").to_pylist())) == want
    # uncertifiable: k deep into the tail with a tiny sketch
    with pytest.raises(Exception, match="not certified|survivors"):
        heavy_hitters(ds, k=30, capacity=4)


def test_object_search_matches_bruteforce(ray_session):
    """Multi-feature object search (donkey A6 analogue): the distributed
    tile + partial-agg path equals a single-process brute force, and is
    invariant to batch size (partial combine correctness)."""
    import ray.data

    from donkey_ray.pipelines.ann import object_search

    rng = np.random.default_rng(7)
    n, dim = 200, 16
    labels = rng.integers(0, 8, size=n).astype(np.int64)
    m = rng.standard_normal((n, dim))
    tbl = pa.table({"label": pa.array(labels, pa.int64()),
                    "embedding": pa.array(list(m), pa.list_(pa.float64()))})
    qsel = np.isin(labels, [0, 1])
    q_ids, q_feats = labels[qsel], m[qsel]
    R, K = 0.35, 4

    # brute force reference
    mn = m / np.linalg.norm(m, axis=1, keepdims=True)
    qn = q_feats / np.linalg.norm(q_feats, axis=1, keepdims=True)
    sims = qn @ mn.T
    want = {}
    for ql in (0, 1):
        agg = {}
        for fi in np.nonzero(q_ids == ql)[0]:
            for bi in np.nonzero(sims[fi] >= R)[0]:
                lab = int(labels[bi])
                cnt, mx = agg.get(lab, (0, -np.inf))
                agg[lab] = (cnt + 1, max(mx, sims[fi, bi]))
        ranked = sorted(agg.items(),
                        key=lambda kv: (-kv[1][0], -kv[1][1], kv[0]))[:K]
        want[ql] = [(lab, c, round(mx, 9)) for lab, (c, mx) in ranked]

    for nblocks in (1, 7):
        ds = ray.data.from_arrow(tbl).repartition(nblocks)
        res = object_search(ds, q_ids, q_feats, threshold=R, k=K)
        got = {}
        for r in res.to_pylist():
            got.setdefault(r["query_label"], []).append(
                (r["label"], r["n_matches"], round(r["max_sim"], 9)))
        assert got == want, f"nblocks={nblocks}"


def test_repetition_scores(ray_session):
    """Vectorized Gopher-style repetition metrics vs a per-doc reference."""
    import ray.data

    from donkey_ray.functions.tokenize import SimpleTokenizer
    from donkey_ray.pipelines.analyze import repetition_scores

    texts = [
        "line one\nline two\nline one\nline three",   # dup lines
        "a b c a b c a b c",                          # heavy trigram/bigram reps
        "all tokens unique here none repeat at all",  # no repetition
        "xy",                                         # <3 tokens
        "",                                           # empty
        "same\nsame\nsame",                           # every line duplicated
    ]
    tok = SimpleTokenizer()

    def ref(text):
        lines = text.split("\n")
        from collections import Counter
        lc = Counter(lines)
        tot = sum(len(l) for l in lines)
        dup = sum(len(l) for l in lines if lc[l] > 1)
        dup_line = dup / tot if tot else 0.0
        toks = tok.tokenize(text)
        tris = [tuple(toks[i:i + 3]) for i in range(len(toks) - 2)]
        dup_ngram = 1.0 - len(set(tris)) / len(tris) if tris else 0.0
        bigs = Counter(tuple(toks[i:i + 2]) for i in range(len(toks) - 1))
        top_big = max(bigs.values()) / sum(bigs.values()) if bigs else 0.0
        return round(dup_line, 6), round(dup_ngram, 6), round(top_big, 6)

    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    out = dataset_to_table(
        repetition_scores(ray.data.from_arrow(tbl))
    ).sort_by("doc_id")
    for i, text in enumerate(texts):
        exp = ref(text)
        got = (
            out.column("dup_line_frac")[i].as_py(),
            out.column("dup_ngram_frac")[i].as_py(),
            out.column("top_bigram_frac")[i].as_py(),
        )
        assert got == pytest.approx(exp, abs=1e-6), (i, text, got, exp)


def test_pack_shards_prefix_scan(ray_session):
    """Distributed prefix scan == serial cumsum, independent of range count."""
    import ray.data

    from donkey_ray.functions.tokenize import SimpleTokenizer
    from donkey_ray.pipelines.sampling import pack_shards

    rng = np.random.default_rng(7)
    texts = [" ".join(f"tok{j}" for j in range(int(k))) for k in rng.integers(0, 40, 200)]
    ids = rng.permutation(1000)[:200].astype("int64")  # sparse, unordered ids
    tbl = pa.table({"doc_id": pa.array(ids, pa.int64()),
                    "text": pa.array(texts, pa.string())})

    tok = SimpleTokenizer()
    order = np.argsort(ids)
    n_tok = np.array([len(tok.tokenize(t)) for t in texts])[order]
    before = np.cumsum(n_tok) - n_tok
    expect = dict(zip(ids[order].tolist(), (before // 37).tolist()))

    for num_ranges in (3, 16):
        out = dataset_to_table(
            pack_shards(ray.data.from_arrow(tbl), budget=37,
                        num_ranges=num_ranges)
        ).sort_by("doc_id")
        got = dict(zip(out.column("doc_id").to_pylist(),
                       out.column("shard").to_pylist()))
        assert got == expect, num_ranges


def test_chunk_docs(ray_session):
    """Window chunking vs a per-doc reference; overlap + unicode + empty."""
    import ray.data

    from donkey_ray.pipelines.analyze import chunk_docs

    texts = ["abcdefghij", "", "xy", "中文" * 7, "a" * 25]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    out = dataset_to_table(
        chunk_docs(ray.data.from_arrow(tbl), size=10, stride=7)
    ).sort_by([("doc_id", "ascending"), ("chunk_id", "ascending")])

    expect = []
    for d, t in enumerate(texts):
        n = len(t)
        k = 1 if n <= 10 else 1 + -(-(n - 10) // 7)
        for i in range(k):
            expect.append((d, i, t[i * 7:i * 7 + 10]))
    got = list(zip(out.column("doc_id").to_pylist(),
                   out.column("chunk_id").to_pylist(),
                   out.column("chunk_text").to_pylist()))
    assert got == expect


def test_dedup_lines(ray_session):
    """Within-doc line dedup vs per-doc reference (order kept, first wins)."""
    import ray.data

    from donkey_ray.pipelines.analyze import dedup_lines

    texts = [
        "a\nb\na\nc\nb",
        "same\nsame\nsame",
        "one line",
        "",
        "x\n\ny\n\nx",  # duplicate empty lines collapse too
    ]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string())})
    out = dataset_to_table(
        dedup_lines(ray.data.from_arrow(tbl))
    ).sort_by("doc_id")

    def ref(t):
        seen, keep = set(), []
        for line in t.split("\n"):
            if line not in seen:
                seen.add(line)
                keep.append(line)
        return "\n".join(keep)

    got = out.column("cleaned").to_pylist()
    assert got == [ref(t) for t in texts]


def test_rrf_fuse():
    """RRF over two ranked lists: union, missing ranks contribute 0."""
    from donkey_ray.pipelines.query import rrf_fuse

    bm = pa.table({"query_id": pa.array([1, 1], pa.int64()),
                   "rank": pa.array([1, 2], pa.int32()),
                   "doc_id": pa.array([10, 20], pa.int64())})
    cos = pa.table({"query_id": pa.array([1, 1], pa.int64()),
                    "rank": pa.array([1, 2], pa.int32()),
                    "doc_id": pa.array([20, 30], pa.int64())})
    out = rrf_fuse([bm, cos], k_rrf=60, k=10)
    got = {d: s for d, s in zip(out.column("doc_id").to_pylist(),
                                out.column("rrf").to_pylist())}
    assert got[20] == pytest.approx(1 / 62 + 1 / 61)   # in both lists
    assert got[10] == pytest.approx(1 / 61)
    assert got[30] == pytest.approx(1 / 62)
    # doc 20 outranks both singles; tie-break never needed here
    assert out.column("doc_id").to_pylist()[0] == 20


def test_bigram_lm_perplexity(docs_ds):
    """Engine vs an independent dict-based reference: vocab pruning
    (count desc, term asc), <unk> mapping, add-one smoothing, per-doc
    cross-entropy; docs with <2 tokens omitted."""
    import math
    from collections import Counter

    from donkey_ray.pipelines.lm import perplexity_scores, train_bigram_lm

    ds, texts = docs_ds
    V = 5
    lm = train_bigram_lm(ds, vocab_size=V)

    # --- slow reference ---
    toks = [[t for t in txt.lower().split() if t] for txt in texts]
    # same tokenizer spec: [a-z0-9]+ runs — these texts are plain words
    uni = Counter(t for doc in toks for t in doc)
    vocab = [t for t, _ in sorted(uni.items(), key=lambda kv: (-kv[1], kv[0]))[:V]]
    assert sorted(lm.vocab.to_pylist()) == sorted(vocab)
    vm = len(vocab) + 1
    vset = set(vocab)
    mapped = [[t if t in vset else "<unk>" for t in doc] for doc in toks]
    bc = Counter(p for doc in mapped for p in zip(doc, doc[1:]))
    cp = Counter()
    for (w1, _), c in bc.items():
        cp[w1] += c
    want = {}
    for i, doc in enumerate(mapped):
        pairs = list(zip(doc, doc[1:]))
        if not pairs:
            continue
        lp = [math.log((bc[p] + 1.0) / (cp[p[0]] + vm)) for p in pairs]
        want[i] = (len(pairs), round(-1000.0 * sum(lp) / len(lp)))

    got = dataset_to_table(perplexity_scores(ds, lm)).to_pydict()
    got_map = {
        d: (n, ce) for d, n, ce in
        zip(got["doc_id"], got["n_bigrams"], got["ce_x1000"])
    }
    assert set(got_map) == set(want)          # 'short' and '' omitted
    for d in want:
        assert got_map[d][0] == want[d][0], d
        assert abs(got_map[d][1] - want[d][1]) <= 1, d  # rounding mode slack


def test_ccnet_buckets(ray_session):
    """Per-lang exact perplexity tertiles: bucket sizes are exact
    thirds, buckets respect (ce, id) order, layout-invariant."""
    import ray.data

    from donkey_ray.pipelines.lm import ccnet_buckets, train_bigram_lm

    rng = __import__("random").Random(5)
    words = ["alpha", "beta", "gamma", "delta", "common", "rare"]
    rows = []
    for i in range(9):  # en: 9 docs -> 3/3/3
        rows.append((i, "en", " ".join(rng.choices(words, k=6 + i))))
    for i in range(6):  # fr: 6 docs -> 2/2/2
        rows.append((100 + i, "fr", " ".join(rng.choices(words, k=5 + i))))
    tbl = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "lang": pa.array([r[1] for r in rows], pa.string()),
        "text": pa.array([r[2] for r in rows], pa.string()),
    })
    ds = ray.data.from_arrow(tbl)
    lm = train_bigram_lm(ds, vocab_size=4)
    out = dataset_to_table(ccnet_buckets(ds, lm))
    got = sorted(zip(out.column("doc_id").to_pylist(),
                     out.column("lang").to_pylist(),
                     out.column("ce_x1000").to_pylist(),
                     out.column("bucket").to_pylist()))
    assert len(got) == 15
    for lang, n in (("en", 9), ("fr", 6)):
        sub = sorted((ce, d) for d, lg, ce, _ in got if lg == lang)
        by_doc = {d: b for d, lg, _, b in got if lg == lang}
        names = ["head", "middle", "tail"]
        for rank0, (_, d) in enumerate(sub):
            assert by_doc[d] == names[(rank0 * 3) // n], (lang, d)
    # layout invariance: a different block layout yields identical rows
    out2 = dataset_to_table(ccnet_buckets(ds.repartition(5), lm))
    got2 = sorted(zip(out2.column("doc_id").to_pylist(),
                      out2.column("lang").to_pylist(),
                      out2.column("ce_x1000").to_pylist(),
                      out2.column("bucket").to_pylist()))
    assert got2 == got


def test_duplicated_spans(ray_session):
    """Cross-doc duplicated k-gram spans vs a brute-force reference:
    within-doc repetition alone is NOT duplication; every position of a
    cross-doc gram counts; docs with < k tokens are omitted."""
    import ray.data

    from collections import Counter

    from donkey_ray.pipelines.spans import duplicated_spans
    from donkey_ray.util import dataset_to_table

    texts = [
        "the quick brown fox jumps over the lazy dog end",
        "the quick brown fox jumps over the lazy dog tail",
        "repeat me now repeat me now repeat me now",   # within-doc only
        "totally unrelated content nothing shared here today friend",
        "too short",                                   # < k tokens -> omitted
        "",
    ]
    k = 3
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": texts})
    ds = ray.data.from_arrow(tbl)

    # brute-force reference
    grams = {}   # doc -> list of gram strings (one per position)
    for d, t in enumerate(texts):
        toks = [x for x in t.lower().split() if x]
        grams[d] = [" ".join(toks[i:i + k]) for i in range(len(toks) - k + 1)]
    owners = Counter()
    for d, gs in grams.items():
        for g in set(gs):
            owners[g] += 1
    want = {d: (len(gs), sum(1 for g in gs if owners[g] >= 2))
            for d, gs in grams.items() if gs}

    out = dataset_to_table(duplicated_spans(ds, k=k, num_partitions=3))
    got = {d: (n, nd) for d, n, nd in zip(
        out.column("doc_id").to_pylist(),
        out.column("n_windows").to_pylist(),
        out.column("n_dup_windows").to_pylist())}
    assert got == want
    # the within-doc repeater must show zero duplicated windows
    assert got[2][1] == 0 and got[2][0] > 0


def test_dedup_lines_global(ray_session):
    """Corpus-level line dedup: only the corpus-wide first occurrence
    (min (doc_id, idx)) of each non-empty line survives; empty lines are
    always kept; a fully-duplicated doc collapses to ''."""
    import ray.data

    from donkey_ray.pipelines.analyze import dedup_lines_global
    from donkey_ray.util import dataset_to_table

    texts = [
        "alpha\nbeta\n\ngamma",          # doc 0: all firsts (plus empty)
        "beta\ndelta\nalpha",            # doc 1: beta/alpha dup'd -> delta
        "alpha\nbeta",                   # doc 2: fully duplicated -> ''
        "\n\n",                          # doc 3: three empty lines, all kept
        "epsilon",                       # doc 4: unique
    ]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": texts})
    out = dataset_to_table(
        dedup_lines_global(ray.data.from_arrow(tbl), num_partitions=3))
    got = {d: (nl, nk, c) for d, nl, nk, c in zip(
        out.column("doc_id").to_pylist(),
        out.column("n_lines").to_pylist(),
        out.column("n_kept").to_pylist(),
        out.column("cleaned").to_pylist())}
    assert got == {
        0: (4, 4, "alpha\nbeta\n\ngamma"),
        1: (3, 1, "delta"),
        2: (2, 0, ""),
        3: (3, 3, "\n\n"),
        4: (1, 1, "epsilon"),
    }


def test_cohort_retention(ray_session):
    """Retention matrix vs hand computation: cohort = first active
    epoch-week; each active (user, week) counts once per cell."""
    import ray.data

    from donkey_ray.pipelines.windows import WEEK_S, cohort_retention
    from donkey_ray.util import dataset_to_table

    W = WEEK_S * 1_000_000  # a week in microseconds
    # user 1: weeks 0,1,3 ; user 2: weeks 0,0(dup),1 ; user 3: week 1
    rows = [
        (1, 0), (1, W + 5), (1, 3 * W),
        (2, 10), (2, 20), (2, W),
        (3, W + 1),
    ]
    tbl = pa.table({
        "user_id": pa.array([u for u, _ in rows], pa.int64()),
        "ts": pa.array([t for _, t in rows], pa.timestamp("us")),
    })
    out = dataset_to_table(
        cohort_retention(ray.data.from_arrow(tbl), num_partitions=3))
    got = {(c, o): n for c, o, n in zip(
        out.column("cohort_week").to_pylist(),
        out.column("offset_weeks").to_pylist(),
        out.column("n_users").to_pylist())}
    assert got == {
        (0, 0): 2,   # users 1, 2
        (0, 1): 2,   # users 1, 2 active in week 1
        (0, 3): 1,   # user 1
        (1, 0): 1,   # user 3's cohort
    }


def test_winnow_fingerprints_and_matches(ray_session):
    """Winnowing selection vs a brute-force reference (rightmost-min tie
    rule), plus the paper's guarantee: two docs sharing a token run of
    >= k + w - 1 tokens share at least one fingerprint."""
    import hashlib

    import ray.data

    from donkey_ray.pipelines.winnow import (winnow_fingerprints,
                                             winnow_matches)
    from donkey_ray.util import dataset_to_table

    k, w = 3, 2
    texts = [
        "the quick brown fox jumps over the lazy dog end of story here",
        "the quick brown fox jumps over the lazy dog tail of tale here",
        "completely different content about engines and arrow batches ok",
        "tiny doc",           # < k tokens -> nothing
    ]
    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": texts})
    ds = ray.data.from_arrow(tbl)

    def ref():
        out = set()
        for d, t in enumerate(texts):
            toks = t.lower().split()
            grams = [" ".join(toks[i:i + k])
                     for i in range(len(toks) - k + 1)]
            hx = [hashlib.sha256(g.encode()).hexdigest()[:16]
                  for g in grams]
            hs = [int(h, 16) for h in hx]
            for i in range(len(hs) - w + 1):
                wnd = hs[i:i + w]
                mn = min(wnd)
                j = max(jj for jj in range(w) if wnd[jj] == mn)
                out.add((d, i + j, hx[i + j]))
        return out

    got_t = dataset_to_table(winnow_fingerprints(ds, k=k, w=w))
    got = set(zip(got_t.column("doc_id").to_pylist(),
                  got_t.column("pos").to_pylist(),
                  got_t.column("fingerprint").to_pylist()))
    assert got == ref()

    m = dataset_to_table(winnow_matches(ds, k=k, w=w, min_shared=1,
                                        num_partitions=3))
    pairs = set(zip(m.column("doc_a").to_pylist(),
                    m.column("doc_b").to_pylist()))
    # docs 0 and 1 share 8 leading tokens (> k + w - 1 = 4): guaranteed
    assert (0, 1) in pairs
    # doc 2 shares no k-gram with anyone
    assert all(2 not in p for p in pairs)


def test_remove_dup_spans(ray_session):
    """Span-removal apply step vs brute force: every token covered by a
    cross-doc duplicated window is dropped; unique docs untouched."""
    import ray.data

    from collections import Counter

    from donkey_ray.pipelines.spans import remove_dup_spans
    from donkey_ray.util import dataset_to_table

    texts = [
        "the quick brown fox jumps over the lazy dog end",
        "the quick brown fox jumps over the lazy dog tail",
        "fresh unique content nothing shared with others today ok",
        "tiny",
        "",
    ]
    k = 3
    toks = {d: t.lower().split() for d, t in enumerate(texts)}
    grams = {d: [" ".join(ts[i:i + k]) for i in range(len(ts) - k + 1)]
             for d, ts in toks.items()}
    owners = Counter()
    for gs in grams.values():
        for g in set(gs):
            owners[g] += 1
    want = {}
    for d, ts in toks.items():
        cov = [False] * len(ts)
        for i, g in enumerate(grams[d]):
            if owners[g] >= 2:
                cov[i:i + k] = [True] * k
        want[d] = (len(ts), sum(cov),
                   " ".join(t for t, c in zip(ts, cov) if not c))

    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": texts})
    out = dataset_to_table(remove_dup_spans(
        ray.data.from_arrow(tbl), k=k, num_partitions=3))
    got = {d: (n, r, c) for d, n, r, c in zip(
        out.column("doc_id").to_pylist(),
        out.column("n_tokens").to_pylist(),
        out.column("n_removed").to_pylist(),
        out.column("cleaned").to_pylist())}
    assert got == want
    assert got[0] == (10, 9, "end")   # only the divergent tail survives


def test_tfidf_keywords(ray_session):
    """Top-m tf-idf vs brute force (integer idf quantization, term-asc
    tie break)."""
    import math

    import ray.data

    from collections import Counter

    from donkey_ray.pipelines.analyze import tfidf_keywords
    from donkey_ray.util import dataset_to_table

    texts = [
        "apple banana apple cherry",
        "banana cherry cherry date",
        "apple elderberry fig fig fig",
        "",
    ]
    N = len(texts)
    toks = [t.split() for t in texts]
    df = Counter()
    for ts in toks:
        for w in set(ts):
            df[w] += 1
    want = {}
    for d, ts in enumerate(toks):
        tf = Counter(ts)
        scored = []
        for w, f in tf.items():
            idf6 = math.floor(math.log((N + 1) / (df[w] + 1)) * 1e6 + 0.5)
            scored.append((-f * idf6, w, f, df[w], f * idf6))
        scored.sort()
        for r, (_, w, f, dfw, s) in enumerate(scored[:2], 1):
            want[(d, w)] = (f, dfw, s, r)

    tbl = pa.table({"doc_id": pa.array(range(N), pa.int64()),
                    "text": texts})
    out = dataset_to_table(tfidf_keywords(
        ray.data.from_arrow(tbl), m=2, num_partitions=3))
    got = {(d, t): (f, dfw, s, r) for d, t, f, dfw, s, r in zip(
        out.column("doc_id").to_pylist(), out.column("term").to_pylist(),
        out.column("tf").to_pylist(), out.column("df").to_pylist(),
        out.column("score_x1e6").to_pylist(),
        out.column("rnk").to_pylist())}
    assert got == want


def test_pmi_collocations(ray_session):
    """PMI top-k vs brute force on a corpus with one strong collocation."""
    import math

    import ray.data

    from collections import Counter

    from donkey_ray.pipelines.analyze import pmi_collocations

    # 'ad hoc' always together (high PMI); 'the x' pairs are diluted
    texts = ["ad hoc the cat", "ad hoc the dog", "ad hoc the cat",
             "the cat the dog ad hoc"]
    uni, bi, B = Counter(), Counter(), 0
    for t in texts:
        ts = t.split()
        uni.update(ts)
        bi.update(zip(ts, ts[1:]))
        B += max(len(ts) - 1, 0)
    T = sum(uni.values())
    want = []
    for (a, b), nab in bi.items():
        if nab < 2:
            continue
        x = (float(nab) * T * T) / (float(B) * uni[a] * uni[b])
        want.append((math.floor(math.log(x) * 1e6 + 0.5), f"{a} {b}", nab))
    want.sort(key=lambda r: (-r[0], r[1]))

    tbl = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": texts})
    out = pmi_collocations(ray.data.from_arrow(tbl), k=10, min_count=2,
                           num_partitions=3)
    got = list(zip(out.column("pmi_x1e6").to_pylist(),
                   out.column("bigram").to_pylist(),
                   out.column("n_ab").to_pylist()))
    assert got == want[:10]
    assert got[0][1] == "ad hoc"   # the collocation wins


def test_hourly_anomalies(ray_session):
    """Anomalous hours vs a numpy reference (population stddev from
    integer moments; only |z| >= 2 rows emitted)."""
    import ray.data

    from donkey_ray.pipelines.windows import hourly_anomalies
    from donkey_ray.util import dataset_to_table

    H = 3_600_000_000
    # type 'a': 9 quiet hours of 1 event + one 50-event spike
    rows = []
    for h in range(9):
        rows.append(("a", h * H + 7))
    rows += [("a", 9 * H + i) for i in range(50)]
    # type 'b': perfectly flat -> sd 0 -> no anomalies
    rows += [("b", h * H) for h in range(5)]
    # type 'c': 9 busy hours + one 1-event DIP -> negative z anomaly
    # (negative z_x1e6 must round half-AWAY like the SQL round(), not
    # floor toward -inf)
    for h in range(9):
        rows += [("c", h * H + i) for i in range(50)]
    rows.append(("c", 9 * H))
    tbl = pa.table({
        "event_type": pa.array([r[0] for r in rows]),
        "ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
    })
    out = dataset_to_table(hourly_anomalies(
        ray.data.from_arrow(tbl), num_partitions=3))
    got = {(t, w): (n, z) for t, w, n, z in zip(
        out.column("event_type").to_pylist(),
        out.column("window_start_us").to_pylist(),
        out.column("n_events").to_pylist(),
        out.column("z_x1e6").to_pylist())}

    n = np.array([1] * 9 + [50], dtype=np.float64)
    mean, var = n.mean(), (n ** 2).mean() - n.mean() ** 2
    z = (50 - mean) / np.sqrt(var)
    z6 = int(np.floor(z * 1e6 + 0.5))

    nc = np.array([50] * 9 + [1], dtype=np.float64)
    mc, vc = nc.mean(), (nc ** 2).mean() - nc.mean() ** 2
    zc = (1 - mc) / np.sqrt(vc)
    assert zc < -2
    zc6 = -int(np.floor(-zc * 1e6 + 0.5))  # half away from zero
    assert got == {("a", 9 * H): (50, z6), ("c", 9 * H): (1, zc6)}


def test_bloom_filter_no_false_negatives():
    """Membership mask is True for every inserted key; FPR on disjoint
    keys stays near the design point (~0.8% at 10 bits/key, k=7)."""
    from donkey_ray.functions import bloom

    rng = np.random.default_rng(7)
    keys = rng.integers(0, 2**62, size=20_000, dtype=np.int64)
    probe = rng.integers(2**62, 2**63 - 1, size=50_000, dtype=np.int64)
    n_words = bloom.bloom_num_words(len(keys))
    filt = bloom.bloom_merge(
        [bloom.bloom_partial(keys[:9_000], n_words),
         bloom.bloom_partial(keys[9_000:], n_words)]
    )
    assert bloom.bloom_might_contain(filt, keys).all()
    fpr = bloom.bloom_might_contain(filt, probe).mean()
    assert fpr < 0.03, fpr


def test_bloom_semi_join_equals_plain_semi(ray_session):
    import ray.data

    from donkey_ray.pipelines.joins import bloom_semi_join, hash_join
    from donkey_ray.util import dataset_to_table

    rng = np.random.default_rng(11)
    left = pa.table({"k": pa.array(rng.integers(0, 500, 5_000), pa.int64()),
                     "v": pa.array(np.arange(5_000), pa.int64())})
    right = pa.table({"rk": pa.array(rng.choice(500, 40, replace=False).astype(np.int64))})
    lds, rds = ray.data.from_arrow(left), ray.data.from_arrow(right)
    got = dataset_to_table(
        bloom_semi_join(lds, rds, left_on="k", right_on="rk")
    ).sort_by([("v", "ascending")])
    want = dataset_to_table(
        hash_join(lds, rds, left_on="k", right_on="rk", how="semi")
    ).sort_by([("v", "ascending")])
    assert got.equals(want)
    assert got.num_rows > 0


def test_pagerank_tiny_graph(ray_session):
    """Path graph 1-2-3 (+ isolated node 4) vs a numpy twin of the pinned
    integer spec."""
    import ray.data

    from donkey_ray.pipelines.graph import SCALE, pagerank
    from donkey_ray.util import dataset_to_table

    nodes = pa.table({"doc_id": pa.array([1, 2, 3, 4], pa.int64())})
    pairs = pa.table({"doc_a": pa.array([1, 2], pa.int64()),
                      "doc_b": pa.array([2, 3], pa.int64())})
    out = dataset_to_table(pagerank(
        ray.data.from_arrow(nodes), ray.data.from_arrow(pairs), iterations=10
    )).sort_by([("doc_id", "ascending")])
    out_ex = dataset_to_table(pagerank(
        ray.data.from_arrow(nodes), ray.data.from_arrow(pairs),
        iterations=10, mode="exchange",
    )).sort_by([("doc_id", "ascending")])
    assert out.equals(out_ex)  # both physical plans, same integer ranks

    ids = [1, 2, 3, 4]
    deg = {1: 1, 2: 2, 3: 1, 4: 0}
    edges = [(1, 2), (2, 1), (2, 3), (3, 2)]
    n = 4
    tele = (15 * SCALE) // (100 * n)
    r = {i: SCALE // n for i in ids}
    for _ in range(10):
        inc = {i: 0 for i in ids}
        for s, d in edges:
            inc[d] += r[s] // deg[s]
        r = {i: tele + (85 * inc[i]) // 100 if inc[i] else tele for i in ids}
    assert out.column("rank_ppt").to_pylist() == [r[i] for i in ids]
    # isolated node holds exactly the teleport rank
    assert out.column("rank_ppt").to_pylist()[3] == tele


def test_moving_sum_window_resets_per_key(ray_session):
    import ray.data

    from donkey_ray.pipelines.windows import moving_sum
    from donkey_ray.util import dataset_to_table

    # two users interleaved; values chosen to hit the cents rounding
    tbl = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
        "user_id": pa.array([1, 2, 1, 1, 2, 1, 2], pa.int64()),
        "ts": pa.array([10, 11, 12, 13, 14, 15, 16], pa.timestamp("us")),
        "value": pa.array([1.005, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
    })
    out = dataset_to_table(moving_sum(
        ray.data.from_arrow(tbl), preceding=2
    )).sort_by([("event_id", "ascending")])
    # user 1 rows: e1=100 (1.005 is 1.004999... as a double, so the
    # half-up quantize floors to 100 — the same double both engines see),
    # e3=100+300, e4=100+300+400, e6=300+400+600 (window slides);
    # user 2: e2=200, e5=700, e7=1400
    assert out.column("moving_x100").to_pylist() == [
        100, 200, 400, 800, 700, 1300, 1400]


def test_ngram_jaccard_delta_vs_full(ray_session, tmp_path):
    """Delta-vs-artifact incremental dedup returns EXACTLY the cross
    pairs of the full-corpus exact Jaccard (artifact rarity order +
    unseen-shingle df=0 keep the prefix filter complete)."""
    import ray.data

    from donkey_ray.pipelines.dedup import (
        build_dedup_index,
        ngram_jaccard_delta,
        ngram_jaccard_pairs,
    )
    from donkey_ray.util import dataset_to_table

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(200)]
    texts = []
    for i in range(80):
        toks = list(rng.choice(vocab, size=rng.integers(5, 25)))
        texts.append(" ".join(toks))
    # seed guaranteed near-dups across the split
    texts[7] = texts[16]                       # corpus 7 vs delta 16? split below
    texts[23] = texts[15] + " extraword"
    tbl = pa.table({"doc_id": pa.array(np.arange(80), pa.int64()),
                    "text": pa.array(texts)})
    corpus = tbl.filter(pa.array(np.arange(80) % 4 != 0))
    delta = tbl.filter(pa.array(np.arange(80) % 4 == 0))

    idx = str(tmp_path / "dedupindex")
    meta = build_dedup_index(ray.data.from_arrow(corpus), idx, n=1, threshold=0.5)
    assert meta["n_docs"] == corpus.num_rows

    got = dataset_to_table(
        ngram_jaccard_delta(idx, ray.data.from_arrow(delta))
    ).sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])

    full = dataset_to_table(ngram_jaccard_pairs(
        ray.data.from_arrow(tbl), n=1, threshold=0.5, prefix_filter=False
    ))
    a = full.column("doc_a").to_numpy(zero_copy_only=False)
    b = full.column("doc_b").to_numpy(zero_copy_only=False)
    # full emits a<b; delta emits (corpus, delta) — normalize to that
    a_is_delta = (a % 4) == 0
    b_is_delta = (b % 4) == 0
    cross = a_is_delta != b_is_delta
    ca = np.where(a_is_delta, b, a)[cross]
    db = np.where(a_is_delta, a, b)[cross]
    jz = full.column("jaccard").to_numpy(zero_copy_only=False)[cross]
    want = pa.table({"doc_a": pa.array(ca, pa.int64()),
                     "doc_b": pa.array(db, pa.int64()),
                     "jaccard": pa.array(jz, pa.float64())}).sort_by(
        [("doc_a", "ascending"), ("doc_b", "ascending")])
    assert got.num_rows == want.num_rows and got.num_rows > 0
    assert got.equals(want)


def test_approx_quantiles_error_bound(ray_session):
    """Sketch quantiles land within one bucket width of exact
    quantile_disc values, per group."""
    import ray.data

    from donkey_ray.pipelines.distinct import approx_quantiles_per_group
    from donkey_ray.util import dataset_to_table

    rng = np.random.default_rng(9)
    groups = np.repeat(["a", "b"], 5000)
    vals = np.concatenate([
        rng.normal(50, 10, 5000),      # smooth
        rng.exponential(20, 5000),     # skewed
    ])
    tbl = pa.table({"event_type": pa.array(groups),
                    "value": pa.array(vals, pa.float64())})
    out = dataset_to_table(approx_quantiles_per_group(
        ray.data.from_arrow(tbl), bins=256
    ))
    got = {(t, q): v for t, q, v in zip(
        out.column("event_type").to_pylist(),
        out.column("q_permille").to_pylist(),
        out.column("approx_x100").to_pylist())}
    assert len(got) == 4
    for g in ("a", "b"):
        cents = np.floor(vals[groups == g] * 100 + 0.5).astype(np.int64)
        width = (cents.max() - cents.min() + 1 + 255) // 256
        for q in (0.5, 0.95):
            srt = np.sort(cents)
            exact = srt[int(np.ceil(q * len(srt))) - 1]
            approx = got[(g, int(q * 1000))]
            assert abs(approx - exact) <= width, (g, q, approx, exact, width)


def test_skew_join_equals_hash_join(ray_session):
    """Hot-key map-side plan + cold-key exchange == plain hash join on a
    Zipf-skewed key column (one key holds ~40% of all rows)."""
    import ray.data

    from donkey_ray.pipelines.joins import hash_join, skew_join
    from donkey_ray.util import dataset_to_table

    rng = np.random.default_rng(21)
    n = 8_000
    keys = np.where(rng.random(n) < 0.4, 8,
                    rng.integers(0, 300, n)).astype(np.int64)
    left = pa.table({"k": pa.array(keys), "lv": pa.array(np.arange(n), pa.int64())})
    right = pa.table({"rk": pa.array(np.arange(0, 300, 2), pa.int64()),
                      "rv": pa.array(np.arange(150), pa.int64())})
    lds, rds = ray.data.from_arrow(left), ray.data.from_arrow(right)
    got = dataset_to_table(skew_join(
        lds, rds, left_on="k", right_on="rk", hot_count_threshold=500
    )).sort_by([("lv", "ascending")])
    want = dataset_to_table(hash_join(
        lds, rds, left_on="k", right_on="rk", how="inner"
    )).sort_by([("lv", "ascending")])
    assert got.select(sorted(got.column_names)).equals(
        want.select(sorted(want.column_names)))
    # the hot key (8, even) matches -> the map-side plan emits its rows
    hot_rows = (keys == 8).sum()
    assert got.num_rows > hot_rows > 2_500
    assert (got.column("k").to_numpy() == 8).sum() == hot_rows


def test_triangle_count_vs_bruteforce(ray_session):
    """Degree-oriented wedge join == brute-force triangle enumeration on
    a random graph plus a planted clique (hub-skew case)."""
    import itertools

    import ray.data

    from donkey_ray.pipelines.graph import triangle_count
    from donkey_ray.util import dataset_to_table

    rng = np.random.default_rng(17)
    edges = set()
    for _ in range(300):
        a, b = rng.integers(0, 60, 2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    for a, b in itertools.combinations(range(8), 2):  # planted clique
        edges.add((a, b))
    ea = np.array([e[0] for e in edges], dtype=np.int64)
    eb = np.array([e[1] for e in edges], dtype=np.int64)
    pairs = pa.table({"doc_a": pa.array(ea), "doc_b": pa.array(eb)})

    adj = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    want = sum(
        1 for a, b in edges for c in (adj[a] & adj[b]) if c > b
    )
    got = dataset_to_table(
        triangle_count(ray.data.from_arrow(pairs))
    ).column("n_triangles").to_pylist()[0]
    got_ex = dataset_to_table(
        triangle_count(ray.data.from_arrow(pairs), mode="exchange")
    ).column("n_triangles").to_pylist()[0]
    assert got == got_ex == want and want > 56  # clique alone has C(8,3)=56


def test_triangle_count_self_loops(ray_session):
    """Self-loop pairs contribute no wedges in EITHER mode: the repro
    graph (1,1),(1,4),(4,5),(4,6),(4,7) is triangle-free, but the
    broadcast prologue used to orient the self edge and close a phantom
    wedge through it."""
    import ray.data

    from donkey_ray.pipelines.graph import triangle_count
    from donkey_ray.util import dataset_to_table

    pairs = pa.table({
        "doc_a": pa.array([1, 1, 4, 4, 4], pa.int64()),
        "doc_b": pa.array([1, 4, 5, 6, 7], pa.int64()),
    })
    for mode in ("broadcast", "exchange"):
        t = dataset_to_table(triangle_count(
            ray.data.from_arrow(pairs), mode=mode))
        assert t.column("n_triangles").to_pylist() == [0], mode

    # and self-loops never break a REAL triangle's count
    tri = pa.table({
        "doc_a": pa.array([1, 2, 3, 2], pa.int64()),
        "doc_b": pa.array([2, 3, 1, 2], pa.int64()),
    })
    for mode in ("broadcast", "exchange"):
        t = dataset_to_table(triangle_count(
            ray.data.from_arrow(tri), mode=mode))
        assert t.column("n_triangles").to_pylist() == [1], mode


def test_graph_ops_empty_edge_set(ray_session):
    """Isolated nodes: pagerank returns pure teleport mass for every
    node in BOTH modes; triangle count is zero."""
    import ray.data

    from donkey_ray.pipelines.graph import SCALE, pagerank, triangle_count
    from donkey_ray.util import dataset_to_table

    nodes = pa.table({"doc_id": pa.array([5, 9], pa.int64())})
    no_pairs = pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64())})
    tele = (15 * SCALE) // (100 * 2)
    for mode in ("broadcast", "exchange"):
        out = dataset_to_table(pagerank(
            ray.data.from_arrow(nodes), ray.data.from_arrow(no_pairs),
            iterations=3, mode=mode,
        )).sort_by([("doc_id", "ascending")])
        assert out.column("doc_id").to_pylist() == [5, 9]
        assert out.column("rank_ppt").to_pylist() == [tele, tele], mode
    for mode in ("broadcast", "exchange"):
        t = dataset_to_table(triangle_count(
            ray.data.from_arrow(no_pairs), mode=mode))
        assert t.column("n_triangles").to_pylist() == [0], mode


def test_compressibility_scores(docs_ds):
    """Repetitive text compresses harder than random-ish text; empty doc
    pins ratio 1e6; values match a direct zlib reference."""
    import zlib

    from donkey_ray.pipelines.analyze import compressibility_scores

    ds, texts = docs_ds
    out = dataset_to_table(compressibility_scores(ds)).sort_by(
        [("doc_id", "ascending")])
    ratios = dict(zip(out.column("doc_id").to_pylist(),
                      out.column("ratio_x1e6").to_pylist()))
    for i, t in enumerate(texts):
        b = t.encode()
        want = (int(np.floor(len(zlib.compress(b, 6)) / len(b) * 1e6 + 0.5))
                if b else 1_000_000)
        assert ratios[i] == want, i
    rep = "spam ham " * 200
    one = dataset_to_table(compressibility_scores(
        __import__("ray").data.from_arrow(pa.table(
            {"doc_id": pa.array([99], pa.int64()),
             "text": pa.array([rep])}))
    ))
    assert one.column("ratio_x1e6").to_pylist()[0] < 100_000  # highly compressible


def test_cms_never_undercounts(ray_session):
    """Count-min estimates are >= exact occurrence counts, exact for
    well-separated keys at this load factor, and 0 for absent terms."""
    import collections

    import ray.data

    from donkey_ray.pipelines.analyze import term_counts_cms

    rng = np.random.default_rng(13)
    vocab = [f"tok{i}" for i in range(300)]
    texts = [" ".join(rng.choice(vocab, size=40)) for _ in range(200)]
    exact = collections.Counter(t for s in texts for t in s.split())
    ds = ray.data.from_arrow(pa.table({"text": pa.array(texts)}))
    queries = ["tok0", "tok7", "tok299", "neverseen"]
    out = term_counts_cms(ds, queries)
    est = dict(zip(out.column("term").to_pylist(),
                   out.column("est_count").to_pylist()))
    for t in queries:
        assert est[t] >= exact.get(t, 0), t
    assert est["neverseen"] == 0
    # 8000 tokens into 4x2048 counters: overcount stays small
    for t in queries[:3]:
        assert est[t] - exact[t] <= 50, (t, est[t], exact[t])


def test_percentile_rank_float_values(ray_session):
    """Float quality signals must rank by VALUE — the old int64 cast
    truncated 0.9/0.2/0.7 all to 0 and silently ranked by doc_id."""
    import ray.data

    from donkey_ray.pipelines.analyze import percentile_rank_per_group
    from donkey_ray.util import dataset_to_table

    tbl = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                    "lang": pa.array(["en"] * 3, pa.string()),
                    "quality": pa.array([0.9, 0.2, 0.7], pa.float64())})
    out = dataset_to_table(percentile_rank_per_group(
        ray.data.from_arrow(tbl), group_col="lang", value_col="quality"
    )).sort_by([("doc_id", "ascending")])
    assert out.column("pct_x1e6").to_pylist() == [1_000_000, 0, 500_000]

    bad = pa.table({"doc_id": pa.array([1], pa.int64()),
                    "lang": pa.array(["en"], pa.string()),
                    "quality": pa.array([float("nan")], pa.float64())})
    with pytest.raises(Exception, match="NaN"):
        dataset_to_table(percentile_rank_per_group(
            ray.data.from_arrow(bad), group_col="lang", value_col="quality"))


def test_pagerank_missing_node_raises(ray_session):
    """A pair endpoint absent from `nodes` must raise, not silently
    credit its mass to the lexicographically-next node."""
    import ray.data

    from donkey_ray.pipelines.graph import pagerank
    from donkey_ray.util import dataset_to_table

    nodes = pa.table({"doc_id": pa.array([1, 2], pa.int64())})
    pairs = pa.table({"doc_a": pa.array([1, 2], pa.int64()),
                      "doc_b": pa.array([2, 3], pa.int64())})
    for mode in ("broadcast", "exchange"):
        with pytest.raises(Exception, match="missing from"):
            dataset_to_table(pagerank(
                ray.data.from_arrow(nodes), ray.data.from_arrow(pairs),
                iterations=2, mode=mode))


def test_triangle_count_negative_ids_raise(ray_session):
    """Negative node ids collide under the (src,dst)->int64 packing and
    must be rejected, not silently miscounted."""
    import ray.data

    from donkey_ray.pipelines.graph import triangle_count
    from donkey_ray.util import dataset_to_table

    pairs = pa.table({"doc_a": pa.array([-1, -1, 2], pa.int64()),
                      "doc_b": pa.array([2, 3, 3], pa.int64())})
    for mode in ("broadcast", "exchange"):
        with pytest.raises(Exception, match="remap ids"):
            dataset_to_table(triangle_count(
                ray.data.from_arrow(pairs), mode=mode))


def test_ngram_jaccard_delta_dense_equals_prefix(ray_session, tmp_path, monkeypatch):
    """The dense cross-tile fast path must emit EXACTLY the prefix+
    verify-join path's pairs — including when the delta holds shingles
    the corpus has never seen (union-vocab coverage)."""
    import ray.data

    from donkey_ray.pipelines import dedup
    from donkey_ray.pipelines.dedup import build_dedup_index, ngram_jaccard_delta
    from donkey_ray.util import dataset_to_table

    rng = np.random.default_rng(9)
    vocab = [f"w{i}" for i in range(60)]
    texts = []
    for i in range(60):
        toks = list(rng.choice(vocab, size=rng.integers(4, 15)))
        texts.append(" ".join(toks))
    texts[8] = texts[21]  # cross-split near-dup (21 % 3 == 0 -> delta)
    # delta-only tokens: must count toward the union, shrinking jaccard
    texts[9] = texts[14] + " zonlya zonlyb"
    tbl = pa.table({"doc_id": pa.array(np.arange(60), pa.int64()),
                    "text": pa.array(texts)})
    corpus = tbl.filter(pa.array(np.arange(60) % 3 != 0))
    delta_tbl = tbl.filter(pa.array(np.arange(60) % 3 == 0))

    idx = str(tmp_path / "didx")
    build_dedup_index(ray.data.from_arrow(corpus), idx, n=1, threshold=0.5)

    def run():
        return dataset_to_table(
            ngram_jaccard_delta(idx, ray.data.from_arrow(delta_tbl))
        ).sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])

    dense = run()                                  # vocab 62 -> dense path
    monkeypatch.setattr(dedup, "DENSE_VOCAB_MAX", 0)
    prefix = run()                                 # forced prefix+verify
    assert dense.num_rows == prefix.num_rows > 0
    assert dense.equals(prefix)


def test_graph_local_fastpath_equals_distributed(ray_session, monkeypatch):
    """The driver-local small-graph short circuits must emit EXACTLY the
    distributed plans' output (pagerank: all three paths; triangles:
    local == distributed wedge fan-out)."""
    import ray.data

    from donkey_ray.pipelines import graph
    from donkey_ray.util import dataset_to_table

    rng = np.random.default_rng(23)
    ea = rng.integers(0, 50, 150).astype(np.int64)
    eb = rng.integers(0, 50, 150).astype(np.int64)
    keep = ea != eb
    lo, hi = np.minimum(ea, eb)[keep], np.maximum(ea, eb)[keep]
    uniq = np.unique(lo * 64 + hi)
    pairs = pa.table({"doc_a": pa.array(uniq // 64, pa.int64()),
                      "doc_b": pa.array(uniq % 64, pa.int64())})
    nodes = pa.table({"doc_id": pa.array(np.arange(50), pa.int64())})

    def pr(mode):
        return dataset_to_table(graph.pagerank(
            ray.data.from_arrow(nodes), ray.data.from_arrow(pairs),
            iterations=5, mode=mode,
        )).sort_by([("doc_id", "ascending")])

    def tri():
        return dataset_to_table(graph.triangle_count(
            ray.data.from_arrow(pairs))).column("n_triangles").to_pylist()[0]

    local_pr, local_tri = pr("broadcast"), tri()   # gates open -> local
    monkeypatch.setattr(graph, "_LOCAL_MAX_EDGES", 0)
    monkeypatch.setattr(graph, "_LOCAL_MAX_WEDGES", -1)
    dist_pr, dist_tri = pr("broadcast"), tri()     # forced distributed
    exch_pr = pr("exchange")
    assert local_pr.equals(dist_pr) and local_pr.equals(exch_pr)
    assert local_tri == dist_tri > 0


def test_pca_power_iteration(ray_session, tmp_path):
    """Planted dominant direction: the pinned integer power iteration
    must converge to the eigh eigenvector (cos > 0.999), match the
    DuckDB oracle exactly, and be invariant to block layout."""
    import duckdb
    import pyarrow.parquet as pq
    import ray.data

    from donkey_ray.pipelines.ann import (
        PCA_SCALE, pca_oracle_sql, pca_power_iteration)

    rng = np.random.default_rng(7)
    dim, n = 16, 400
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    mat = (rng.standard_normal((n, 1)) * 3.0 * direction
           + 0.3 * rng.standard_normal((n, dim))).astype(np.float32)
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([r for r in mat.tolist()],
                              pa.list_(pa.float32())),
    })
    res = pca_power_iteration(ray.data.from_arrow(tbl))
    w = np.array(res.column("weight_x1e6").to_pylist(), dtype=np.float64)

    # converged to the true dominant eigenvector
    cov = np.cov(mat.astype(np.float64).T)
    v1 = np.linalg.eigh(cov)[1][:, -1]
    cos = abs(float(v1 @ (w / np.linalg.norm(w))))
    assert cos > 0.999, cos

    # block-layout invariance (exact: integer spec has no fold order)
    res4 = pca_power_iteration(ray.data.from_arrow(tbl).repartition(7))
    assert res.equals(res4)

    # DuckDB oracle equality on the same table
    p = tmp_path / "emb.parquet"
    pq.write_table(tbl, p)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{p}')")
    rows = sorted(con.execute(pca_oracle_sql()).fetchall())
    assert [r[1] for r in rows] == res.column("weight_x1e6").to_pylist()
    assert rows[0][0] == 1 and len(rows) == dim
    # sign pin: the max-|w| entry is positive
    assert w[int(np.argmax(np.abs(w)))] > 0
    assert int(np.max(np.abs(w))) <= PCA_SCALE


def test_remove_top_component(ray_session, tmp_path):
    """ABTT residuals: engine output equals the DuckDB oracle exactly,
    residuals are near-orthogonal to the removed component, and the
    map is block-layout invariant."""
    import duckdb
    import pyarrow.parquet as pq
    import ray.data

    from donkey_ray.pipelines.ann import (
        pca_power_iteration, pca_residuals_oracle_sql, remove_top_component)

    rng = np.random.default_rng(11)
    dim, n = 12, 300
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    mat = (rng.standard_normal((n, 1)) * 4.0 * direction
           + 0.2 * rng.standard_normal((n, dim))).astype(np.float32)
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([r for r in mat.tolist()],
                              pa.list_(pa.float32())),
    })
    ds = ray.data.from_arrow(tbl)
    comp = pca_power_iteration(ds)
    out = dataset_to_table(remove_top_component(ds, comp)).sort_by(
        [("vec_id", "ascending"), ("dim", "ascending")])

    # residual matrix is near-orthogonal to the component
    r = np.array(out.column("resid_x1e6").to_pylist(),
                 dtype=np.float64).reshape(n, dim)
    w = np.array(comp.column("weight_x1e6").to_pylist(), dtype=np.float64)
    w /= np.linalg.norm(w)
    proj = np.abs(r @ w) / (np.linalg.norm(r, axis=1) + 1e-9)
    assert float(proj.max()) < 1e-3

    # layout invariance
    out7 = dataset_to_table(
        remove_top_component(ds.repartition(7), comp)).sort_by(
        [("vec_id", "ascending"), ("dim", "ascending")])
    assert out.equals(out7)

    # oracle equality
    p = tmp_path / "emb.parquet"
    pq.write_table(tbl, p)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{p}')")
    sql = con.execute(pca_residuals_oracle_sql()).fetchall()
    eng = list(zip(out.column("vec_id").to_pylist(),
                   out.column("dim").to_pylist(),
                   out.column("resid_x1e6").to_pylist()))
    assert sorted(sql) == sorted(eng)


def test_kmeans_pinned(ray_session, tmp_path):
    """Planted 4 separated clusters: the pinned integer Lloyd's must
    recover the planted partition, match the DuckDB oracle exactly, and
    be invariant to block layout."""
    import duckdb
    import pyarrow.parquet as pq
    import ray.data

    from donkey_ray.pipelines.kmeans import (
        kmeans_assign, kmeans_centroids_oracle_sql, kmeans_centroids_table,
        kmeans_clusters_oracle_sql, kmeans_fit)

    rng = np.random.default_rng(23)
    dim, per = 16, 120
    centers = rng.standard_normal((4, dim)) * 6.0
    mat = np.concatenate([
        centers[c] + 0.4 * rng.standard_normal((per, dim))
        for c in range(4)
    ]).astype(np.float32)
    n = 4 * per
    # shuffle rows so the smallest-vec_id init spans arbitrary clusters
    perm = rng.permutation(n)
    planted = np.repeat(np.arange(4), per)[perm]
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([r for r in mat[perm].tolist()],
                              pa.list_(pa.float32())),
    })
    ds = ray.data.from_arrow(tbl)
    cents = kmeans_fit(ds)
    out = dataset_to_table(kmeans_assign(ds, cents)).sort_by("vec_id")
    got = np.asarray(out.column("cluster").to_pylist())

    # planted partition recovered: every engine cluster maps 1:1 to one
    # planted cluster (well-separated blobs -> Lloyd's converges)
    for c in np.unique(got):
        assert len(set(planted[got == c])) == 1, c
    assert len(np.unique(got)) == 4

    # layout invariance (exact integer spec)
    cents7 = kmeans_fit(ds.repartition(7))
    assert cents7 == cents
    out7 = dataset_to_table(kmeans_assign(ds.repartition(5), cents7)).sort_by("vec_id")
    assert out.equals(out7)

    # DuckDB oracle equality on both surfaces
    p = tmp_path / "emb.parquet"
    pq.write_table(tbl, p)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{p}')")
    sql_assign = con.execute(kmeans_clusters_oracle_sql()).fetchall()
    eng_assign = list(zip(out.column("vec_id").to_pylist(),
                          out.column("cluster").to_pylist()))
    assert sorted(sql_assign) == sorted(eng_assign)
    ct = kmeans_centroids_table(cents)
    sql_cent = con.execute(kmeans_centroids_oracle_sql()).fetchall()
    eng_cent = list(zip(ct.column("cluster").to_pylist(),
                        ct.column("dim").to_pylist(),
                        ct.column("c_x1e6").to_pylist()))
    assert sorted(sql_cent) == sorted(eng_cent)


def test_kmeans_empty_cluster_carry(ray_session):
    """An init centroid that captures no points must carry unchanged
    through the update (pinned empty-cluster rule)."""
    from donkey_ray.pipelines.kmeans import kmeans_fit

    # 3 tight blobs + one outlier point used as an init seed that
    # immediately loses all points: ids 0..3 are seeds; id 3 duplicates
    # id 2's location so cluster 4 goes empty after the first assign.
    # All points sit EXACTLY on 3 locations; seed id 3 duplicates id 2's
    # location, so every point there ties between clusters 3 and 4 and the
    # smallest-c rule sends them all to 3 — cluster 4 stays empty in every
    # iteration and must carry its init vector.
    base = np.asarray([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [0.0, 10.0]])
    rows = [base[0], base[1], base[2], base[3]] + [
        base[i % 3] for i in range(4, 40)
    ]
    tbl = pa.table({
        "vec_id": pa.array(np.arange(len(rows), dtype=np.int64)),
        "embedding": pa.array([list(map(float, r)) for r in rows],
                              pa.list_(pa.float32())),
    })
    import ray.data
    cents = kmeans_fit(ray.data.from_arrow(tbl))
    # cluster 4 (0-indexed 3) kept its init vector: quantized base[3]
    assert cents[3] == [0, 10_000_000]


def test_sif_embeddings(ray_session, tmp_path):
    """SIF doc embeddings: oracle equality, layout invariance, and the
    SIF semantics (identical docs -> identical vectors; rare terms
    outweigh ubiquitous ones)."""
    import duckdb
    import pyarrow.parquet as pq
    import ray.data

    from donkey_ray.pipelines.sif import (
        SIF_DIM, sif_embeddings, sif_oracle_sql)

    docs = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy dog",
        "the the the the the common words only the",
        "zyzzyva axolotl quine",
        "",  # token-less doc: must produce no rows
        "mixed the zyzzyva the the",
    ]
    tbl = pa.table({
        "doc_id": pa.array(np.arange(len(docs), dtype=np.int64)),
        "text": pa.array(docs),
    })
    ds = ray.data.from_arrow(tbl)
    out = dataset_to_table(sif_embeddings(ds)).sort_by(
        [("doc_id", "ascending"), ("dim", "ascending")])

    ids = out.column("doc_id").to_pylist()
    assert 4 not in ids  # empty doc dropped
    e = {}
    for d, j, v in zip(ids, out.column("dim").to_pylist(),
                       out.column("e_x1e6").to_pylist()):
        e.setdefault(d, []).append(v)
    assert all(len(v) == SIF_DIM for v in e.values())
    assert e[0] == e[1]  # identical docs -> identical vectors
    # doc 5 mixes one rare term among 4 'the': the rare term's weight
    # must dominate, so doc 5 should be closer (cosine) to doc 3 (rare
    # terms) than to doc 2 (all-common)
    def cos(a, b):
        a, b = np.asarray(a, float), np.asarray(b, float)
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-9))
    assert cos(e[5], e[3]) > cos(e[5], e[2])

    # layout invariance
    out7 = dataset_to_table(sif_embeddings(ds.repartition(5))).sort_by(
        [("doc_id", "ascending"), ("dim", "ascending")])
    assert out.equals(out7)

    # DuckDB oracle equality
    p = tmp_path / "docs.parquet"
    pq.write_table(tbl, p)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{p}')")
    sql = con.execute(sif_oracle_sql()).fetchall()
    eng = list(zip(out.column("doc_id").to_pylist(),
                   out.column("dim").to_pylist(),
                   out.column("e_x1e6").to_pylist()))
    assert sorted(sql) == sorted(eng)


def test_dsir_weights(ray_session, tmp_path):
    """DSIR scores: oracle equality, layout invariance, and the
    selection semantics — target-like docs outscore off-target docs."""
    import duckdb
    import pyarrow.parquet as pq
    import ray.data

    from donkey_ray.pipelines.dsir import dsir_weights, dsir_oracle_sql

    en = ["the model trains on curated data",
          "training data quality drives the model",
          "curated corpora improve model quality",
          "data selection via importance resampling"]
    fr = ["le chat dort sur le canapé rouge",
          "la maison est près de la rivière",
          "les enfants jouent dans le jardin"]
    docs = en + fr + ["training data curated quality model",  # en-like holdout
                      "le jardin de la maison rouge"]          # fr-like holdout
    langs = ["en"] * 4 + ["fr"] * 3 + ["xx", "xx"]
    tbl = pa.table({
        "doc_id": pa.array(np.arange(len(docs), dtype=np.int64)),
        "text": pa.array(docs),
        "lang": pa.array(langs),
    })
    ds = ray.data.from_arrow(tbl)
    out = dataset_to_table(dsir_weights(ds, target_lang="en")).sort_by("doc_id")
    scores = dict(zip(out.column("doc_id").to_pylist(),
                      out.column("score_x1e6").to_pylist()))
    # the en-like holdout (id 7) must outscore the fr-like holdout (id 8)
    assert scores[7] > scores[8]

    # layout invariance
    out5 = dataset_to_table(
        dsir_weights(ds.repartition(5), target_lang="en")).sort_by("doc_id")
    assert out.equals(out5)

    # oracle equality
    p = tmp_path / "docs.parquet"
    pq.write_table(tbl, p)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{p}')")
    sql = con.execute(dsir_oracle_sql(target_lang="en")).fetchall()
    eng = list(zip(out.column("doc_id").to_pylist(),
                   out.column("score_x1e6").to_pylist()))
    assert sorted(sql) == sorted(eng)


def test_semdedup(ray_session):
    """SemDeDup: (1) handcrafted geometry pins the rules — min-id
    survivor, duplicate-tested-against-DROPPED-smaller-ids (v2's only
    witness v1 is itself a dup), cross-cluster isolation (a same
    -direction vector in another cluster survives); (2) a randomized
    corpus must equal an independent O(n^2) numpy reference and be
    block-layout invariant."""
    import math

    import ray.data

    from donkey_ray.pipelines.kmeans import kmeans_fit, semdedup

    deg = math.pi / 180.0
    vecs = np.array([
        [1.0, 0.0],                                    # 0: keep (min id)
        [math.cos(12 * deg), math.sin(12 * deg)],      # 1: dup of 0
        [math.cos(24 * deg), math.sin(24 * deg)],      # 2: dup of 1 only
        [0.0, -1.0],                                   # 3: keep (far)
        [9.0 * math.cos(12 * deg), 9.0 * math.sin(12 * deg)],  # 4: c2
    ], dtype=np.float64)
    # centroids (x1e6): c1 near the unit vectors, c2 far along 12 deg
    cents = [[1_000_000, 0],
             [int(10e6 * math.cos(12 * deg)), int(10e6 * math.sin(12 * deg))]]
    tbl = pa.table({
        "vec_id": pa.array(np.arange(5, dtype=np.int64)),
        "embedding": pa.array([list(r) for r in vecs], pa.list_(pa.float64())),
    })
    out = dataset_to_table(
        semdedup(ray.data.from_arrow(tbl), cents, threshold=0.95)
    ).sort_by("vec_id")
    assert out.column("keep").to_pylist() == [True, False, False, True, True]
    assert out.column("cluster").to_pylist() == [1, 1, 1, 1, 2]

    # --- randomized reference equality + layout invariance ---
    rng = np.random.default_rng(5)
    dim, per = 8, 60
    centers = rng.standard_normal((4, dim)) * 6.0
    mat = np.concatenate([
        centers[c] + 0.8 * rng.standard_normal((per, dim))
        for c in range(4)
    ])
    # plant exact near-dups: every 10th vector ~= its predecessor
    mat[10::10] = mat[9::10][: len(mat[10::10])] + 1e-4
    n = len(mat)
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array([list(r) for r in mat], pa.list_(pa.float64())),
    })
    ds = ray.data.from_arrow(tbl)
    cents = kmeans_fit(ds)
    tau = 0.9
    out = dataset_to_table(semdedup(ds, cents, threshold=tau)).sort_by("vec_id")

    # independent reference: integer assignment + O(n^2) cosine scan
    from donkey_ray.pipelines.kmeans import _assign_ids, _quantize

    assign = _assign_ids(_quantize(mat), np.asarray(cents, np.int64)) + 1
    nm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = nm @ nm.T
    keep_ref = [
        not any(sims[i, j] >= tau and assign[j] == assign[i]
                for j in range(i))
        for i in range(n)
    ]
    assert out.column("cluster").to_pylist() == list(assign)
    assert out.column("keep").to_pylist() == keep_ref
    assert sum(keep_ref) < n  # planted dups actually dropped

    out5 = dataset_to_table(
        semdedup(ds.repartition(5), cents, threshold=tau)
    ).sort_by("vec_id")
    assert out.equals(out5)


def test_minhash_delta_vs_full(ray_session, tmp_path):
    """The persisted MinHash/LSH artifact probe returns EXACTLY the
    cross pairs of the full-corpus minhash_neardup_pairs run — band
    keys are a pure function of the pinned perm/band spec, so signing
    only the delta loses no candidates."""
    import ray.data

    from donkey_ray.pipelines.dedup import (
        build_minhash_index,
        minhash_neardup_delta,
        minhash_neardup_pairs,
    )
    from donkey_ray.util import dataset_to_table

    rng = np.random.default_rng(13)
    vocab = [f"tok{i}" for i in range(150)]
    texts = []
    for i in range(60):
        toks = list(rng.choice(vocab, size=rng.integers(8, 30)))
        texts.append(" ".join(toks))
    # guaranteed near-dups across the split (delta = ids % 4 == 0)
    texts[8] = texts[15]
    texts[12] = texts[21] + " extra"
    texts[4] = texts[16]  # delta-delta dup: must NOT appear in delta out
    tbl = pa.table({"doc_id": pa.array(np.arange(60), pa.int64()),
                    "text": pa.array(texts)})
    corpus = tbl.filter(pa.array(np.arange(60) % 4 != 0))
    delta = tbl.filter(pa.array(np.arange(60) % 4 == 0))

    idx = str(tmp_path / "mhindex")
    meta = build_minhash_index(
        ray.data.from_arrow(corpus), idx, n=2, threshold=0.5)
    assert meta["n_docs"] == corpus.num_rows
    assert meta["num_perms"] == 128 and meta["num_bands"] == 32

    got = dataset_to_table(
        minhash_neardup_delta(idx, ray.data.from_arrow(delta))
    ).sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])

    full = dataset_to_table(minhash_neardup_pairs(
        ray.data.from_arrow(tbl), n=2, threshold=0.5))
    a = full.column("doc_a").to_numpy(zero_copy_only=False)
    b = full.column("doc_b").to_numpy(zero_copy_only=False)
    a_is_delta = (a % 4) == 0
    b_is_delta = (b % 4) == 0
    cross = a_is_delta != b_is_delta
    ca = np.where(a_is_delta, b, a)[cross]
    db = np.where(a_is_delta, a, b)[cross]
    jz = full.column("jaccard").to_numpy(zero_copy_only=False)[cross]
    want = pa.table({"doc_a": pa.array(ca, pa.int64()),
                     "doc_b": pa.array(db, pa.int64()),
                     "jaccard": pa.array(jz, pa.float64())}).sort_by(
        [("doc_a", "ascending"), ("doc_b", "ascending")])
    assert got.num_rows == want.num_rows and got.num_rows > 0
    assert got.equals(want)
    # the EXCHANGE path (broadcast budgets ruled out) is identical too
    import donkey_ray.pipelines.dedup as dd

    orig = dd._MINHASH_BCAST_MAX_BANDS
    dd._MINHASH_BCAST_MAX_BANDS = 0
    try:
        got2 = dataset_to_table(
            minhash_neardup_delta(idx, ray.data.from_arrow(delta))
        ).sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])
    finally:
        dd._MINHASH_BCAST_MAX_BANDS = orig
    assert got2.equals(want)
    # spec-mismatch guard: a doctored meta refuses to serve
    import json as _json
    import os as _os

    mp = _os.path.join(idx, "meta.json")
    with open(mp) as f:
        m = _json.load(f)
    m["num_bands"] = 16
    with open(mp, "w") as f:
        _json.dump(m, f)
    with pytest.raises(ValueError, match="perm/band spec"):
        dataset_to_table(minhash_neardup_delta(idx, ray.data.from_arrow(delta)))


def test_knn_label_eval_ivf_equals_broadcast(ray_session, tmp_path):
    """VERDICT r2: the beyond-broadcast IVF-probed eval path (no ray.put
    of the labeled matrix) returns EXACTLY the broadcast-tile result at
    nprobe=n_lists, and is invariant to the input's block layout."""
    import ray.data

    from donkey_ray.pipelines.ann import knn_label_eval
    from donkey_ray.util import dataset_to_table

    rng = np.random.default_rng(21)
    n, dim = 300, 12
    vecs = rng.standard_normal((n, dim))
    labels = rng.integers(0, 4, size=n)
    tbl = pa.table({
        "vec_id": pa.array(np.arange(n), pa.int64()),
        "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64())),
        "label": pa.array(labels, pa.int64()),
    })

    want = dataset_to_table(
        knn_label_eval(ray.data.from_arrow(tbl), k=5)
    ).sort_by([("vec_id", "ascending")])

    idx = str(tmp_path / "evalivf")
    got = dataset_to_table(knn_label_eval(
        ray.data.from_arrow(tbl), k=5, index_dir=idx, n_lists=8,
        max_broadcast_rows=0,  # small input would otherwise auto-broadcast
    )).sort_by([("vec_id", "ascending")])
    assert got.equals(want)

    # layout invariance: a different block structure, same artifact
    relaid = ray.data.from_arrow(tbl).repartition(7)
    got2 = dataset_to_table(knn_label_eval(
        relaid, k=5, index_dir=idx, n_lists=8, max_broadcast_rows=0,
    )).sort_by([("vec_id", "ascending")])
    assert got2.equals(want)

    # VERDICT r3 item 8: index_dir + small input dispatches BROADCAST
    # (identical rows, no artifact I/O); the artifact already exists and
    # must be ignored
    got_auto = dataset_to_table(knn_label_eval(
        ray.data.from_arrow(tbl), k=5, index_dir=idx, n_lists=8,
    )).sort_by([("vec_id", "ascending")])
    assert got_auto.equals(want)

    # the dispatcher takes the IVF path on its own past the broadcast cap
    got3 = dataset_to_table(knn_label_eval(
        ray.data.from_arrow(tbl), k=5, max_broadcast_rows=0,
    )).sort_by([("vec_id", "ascending")])
    assert got3.equals(want)


def test_epoch_shuffle_determinism_and_layout(ray_session):
    """epoch_shuffle: a true permutation, identical across block
    layouts, different (and decorrelated) across epochs."""
    import ray.data

    from donkey_ray.pipelines.sampling import epoch_shuffle
    from donkey_ray.util import dataset_to_table

    tbl = pa.table({"doc_id": pa.array(np.arange(500), pa.int64())})

    def run(ds, epoch):
        t = dataset_to_table(epoch_shuffle(ds, epoch=epoch)).sort_by(
            [("doc_id", "ascending")])
        return t.column("epoch_rank").to_numpy(zero_copy_only=False)

    r1 = run(ray.data.from_arrow(tbl), 1)
    assert sorted(r1.tolist()) == list(range(500))  # a permutation
    # layout invariance
    r1b = run(ray.data.from_arrow(tbl).repartition(7), 1)
    assert (r1 == r1b).all()
    # epochs decorrelate
    r2 = run(ray.data.from_arrow(tbl), 2)
    assert (r1 != r2).mean() > 0.99


def test_simhash_delta_vs_full(ray_session, tmp_path):
    """The persisted SimHash artifact probe returns EXACTLY the cross
    pairs of the full-corpus simhash_neardup_pairs run — pigeonhole
    banding makes both exact at the radius — on BOTH the broadcast and
    the exchange paths."""
    import ray.data

    from donkey_ray.pipelines.dedup import (
        build_simhash_index,
        simhash_neardup_delta,
        simhash_neardup_pairs,
    )
    from donkey_ray.util import dataset_to_table

    rng = np.random.default_rng(17)
    vocab = [f"w{i}" for i in range(120)]
    texts = []
    for i in range(64):
        toks = list(rng.choice(vocab, size=rng.integers(6, 24)))
        texts.append(" ".join(toks))
    texts[7] = texts[16]          # cross dup (corpus 16, delta 7? 7%4)
    texts[15] = texts[26] + " x"  # near cross pair
    tbl = pa.table({"doc_id": pa.array(np.arange(64), pa.int64()),
                    "text": pa.array(texts)})
    corpus = tbl.filter(pa.array(np.arange(64) % 4 != 3))
    delta = tbl.filter(pa.array(np.arange(64) % 4 == 3))

    idx = str(tmp_path / "shindex")
    meta = build_simhash_index(ray.data.from_arrow(corpus), idx,
                               max_hamming=3)
    assert meta["n_docs"] == corpus.num_rows and meta["n_bands"] == 4

    full = dataset_to_table(simhash_neardup_pairs(
        ray.data.from_arrow(tbl), max_hamming=3))
    a = full.column("doc_a").to_numpy(zero_copy_only=False)
    b = full.column("doc_b").to_numpy(zero_copy_only=False)
    h = full.column("min(hamming)").to_numpy(zero_copy_only=False)
    a_d, b_d = (a % 4) == 3, (b % 4) == 3
    cross = a_d != b_d
    ca = np.where(a_d, b, a)[cross]
    db = np.where(a_d, a, b)[cross]
    want = pa.table({"doc_a": pa.array(ca, pa.int64()),
                     "doc_b": pa.array(db, pa.int64()),
                     "min(hamming)": pa.array(h[cross].astype(np.int32),
                                              pa.int32())}).sort_by(
        [("doc_a", "ascending"), ("doc_b", "ascending")])

    got = dataset_to_table(
        simhash_neardup_delta(idx, ray.data.from_arrow(delta))
    ).sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])
    assert got.num_rows == want.num_rows and got.num_rows > 0
    assert got.equals(want)

    # exchange path (broadcast budget forced to zero) is identical
    import donkey_ray.pipelines.dedup as dd

    orig = dd._SIMHASH_BCAST_MAX_BANDS
    dd._SIMHASH_BCAST_MAX_BANDS = 0
    try:
        got2 = dataset_to_table(
            simhash_neardup_delta(idx, ray.data.from_arrow(delta))
        ).sort_by([("doc_a", "ascending"), ("doc_b", "ascending")])
    finally:
        dd._SIMHASH_BCAST_MAX_BANDS = orig
    assert got2.equals(want)
