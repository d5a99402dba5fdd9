"""The query engine's one term-keyed postings cache.

``_LRU`` is checked on its own (no Ray): recency, oldest-first eviction
under a value budget, the budget bound after every put. Then every exact
operator is run in two interleavings on ONE engine — a positional index
with salted hot terms and a 2-member federation, in modes exact, auto
and wand, with the default and with a tiny (always-evicting) budget —
and must answer exactly like a fresh engine per call."""

from __future__ import annotations

import random

import pytest

from donkey_ray.stages.score import QueryEngine
from donkey_ray.synth import make_corpus, make_queries
from donkey_ray.util import _LRU


def test_lru_get_refreshes_and_budget_evicts_oldest_first():
    lru = _LRU(10, size=len)
    lru.put("a", "xxx")
    lru.put("b", "yyyy")
    assert lru.get("a") == "xxx"  # a is now the most recent
    lru.put("c", "zzzz")  # total 11 > 10: evicts b, the oldest
    assert lru.get("b") is None
    assert lru.get("a") == "xxx" and lru.get("c") == "zzzz"
    assert lru.total == 7
    lru.put("d", "q" * 11)  # larger than the whole budget: not kept
    assert lru.get("d") is None and lru.total <= lru.budget
    # count bound; load caches None values and computes once
    calls = []
    cnt = _LRU(2)
    assert cnt.load("x", lambda: calls.append(1)) is None
    assert cnt.load("x", lambda: calls.append(1)) is None
    assert calls == [1]


def test_lru_matches_reference_model():
    rng = random.Random(5)
    lru = _LRU(40, size=len)
    model: list[tuple[int, str]] = []  # oldest first
    for _ in range(3000):
        key = rng.randrange(12)
        if rng.random() < 0.4:
            want = next((v for k, v in model if k == key), None)
            assert lru.get(key) == want
            if want is not None:
                model = [e for e in model if e[0] != key] + [(key, want)]
        else:
            val = "v" * rng.randrange(1, 15)
            lru.put(key, val)
            model = [e for e in model if e[0] != key] + [(key, val)]
            while sum(len(v) for _, v in model) > 40:
                model.pop(0)
            assert lru.total == sum(len(v) for _, v in model) <= lru.budget
        assert list(lru._d.items()) == model


@pytest.fixture(scope="module")
def indexes(ray_session, tmp_path_factory):
    import ray.data

    from donkey_ray.pipelines.build import build_index

    root = tmp_path_factory.mktemp("pcache")
    pos = str(root / "pos")
    build_index(ray.data.from_arrow(make_corpus(160, seed=3)), pos,
                num_partitions=4, positions=True, sample_mod=2,
                query_lang="code")
    corpus = make_corpus(160, seed=4)
    fed = []
    for half in (0, 1):
        d = str(root / f"fed{half}")
        build_index(ray.data.from_arrow(corpus.take(list(range(half, 160, 2)))),
                    d, num_partitions=3, positions=True, sample_mod=2,
                    query_lang="code")
        fed.append(d)
    assert QueryEngine(pos).metas[0]["hot_terms"]
    return {"pos": pos, "fed": fed}


def _queries(dirs) -> list[str]:
    texts = [str(t) for t in make_queries(10).column("text").to_pylist()]
    # phrase-bearing queries: adjacent tokens of indexed docs
    tok = QueryEngine(dirs)._tok
    for i, content in enumerate(make_corpus(8, seed=3)
                                .column("content").to_pylist()):
        words = tok.tokenize(content)
        texts.append(" ".join(words[i:i + 2 + i % 2]))
    return texts


def _operators(q: str, other: str):
    """(name, call(engine)) for every exact operator on query ``q``."""
    first = q.split()[0] if q.split() else "x"
    return [
        ("topk", lambda e: e.topk(q, 10)),
        ("topk_deep", lambda e: e.topk(q, 300)),
        ("boosted", lambda e: e.boosted_topk(q, 10, {first: 2.5})),
        ("msm", lambda e: e.msm_topk(q, 10, 2)),
        ("and", lambda e: e.and_topk(q, 10)),
        ("not", lambda e: e.not_topk(q, other, 10)),
        ("bool", lambda e: e.bool_topk(f"({q}) OR {other} NOT {first}", 10)),
        ("synonym", lambda e: e.synonym_topk(q, 10, {first: other.split()})),
        ("page2", lambda e: e.search_after(
            q, 5, next(((s, d) for d, s in e.topk(q, 5)[-1:]), None))),
        ("explain", lambda e: e.explain(q, 5)),
        ("hit_count", lambda e: e.hit_count(q)),
        ("score_all", lambda e: (lambda r: None if r is None else (
            r[0].tolist(), r[1].tolist()))(e.score_all(q))),
        ("phrase", lambda e: e.phrase_topk(q, 10)),
        ("near", lambda e: e.near_topk(q, 10, window=3)),
        ("sloppy", lambda e: e.sloppy_topk(q, 10, slop=2)
         if len(e._tok.tokenize(q)) > 1 else None),
    ]


@pytest.mark.parametrize("which", ["pos", "fed"])
@pytest.mark.parametrize("mode", ["exact", "auto", "wand"])
def test_cached_operators_match_fresh_engine(indexes, which, mode):
    dirs = indexes[which]
    texts = _queries(dirs)
    calls = [(q, name, fn)
             for i, q in enumerate(texts)
             for name, fn in _operators(q, texts[(i + 5) % len(texts)])]
    want = {(q, name): fn(QueryEngine(dirs, mode=mode))
            for q, name, fn in calls}
    assert sum(bool(v) for (_, n), v in want.items() if n == "phrase") >= 3
    for budget in (None, 500):
        eng = QueryEngine(dirs, mode=mode)
        if budget is not None:
            eng._postings.budget = budget
        # interleaving 1: query-major; 2: operator-major, reversed
        by_op = sorted(calls, key=lambda c: c[1], reverse=True)
        for q, name, fn in calls + by_op:
            assert fn(eng) == want[(q, name)], (which, mode, budget, name, q)
            assert eng._postings.total <= eng._postings.budget


def test_engine_caches_are_thread_safe(indexes):
    """An in-process IndexServer behind the threaded HTTP frontend is
    searched from several request threads at once: with a budget small
    enough to evict on every query and a tiny switch interval (threads
    swap inside ``_LRU``'s put/evict loop), eight threads sharing one
    engine must each get the single-threaded answers."""
    import sys
    import threading

    dirs = indexes["fed"]
    texts = _queries(dirs)
    want = [QueryEngine(dirs, mode="exact").topk(q, 10) for q in texts]
    eng = QueryEngine(dirs, mode="exact")
    eng._postings.budget = 200
    errors, got = [], []

    def run():
        try:
            got.append([eng.topk(q, 10) for q in texts])
        except Exception as ex:  # noqa: BLE001 — reported below
            errors.append(repr(ex))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert got == [want] * 8
    assert eng._postings.total <= eng._postings.budget


def test_operators_share_one_entry_per_term(indexes):
    eng = QueryEngine(indexes["fed"], mode="exact")
    term = "commontoken"
    eng.topk(term, 10)
    p = eng.postings(term)
    assert p is not None and len(eng._postings._d) == 1
    eng.phrase_topk(term, 10)
    eng.and_topk(term, 10)
    eng.hit_count(term)
    assert eng.postings(term) is p and len(eng._postings._d) == 1
    # the federated runs interleave by doc id: the entry was argsorted
    assert p._perm is not None and (p.docs[1:] > p.docs[:-1]).all()
    assert p.docs.size == eng.term_df(term)


def _entry_arrays(p) -> list:
    out = [p.docs, p.tfs, p.dls, p.scores, *p.top()]
    for poss, boff in p._poss or ():
        out += [poss, boff]
    return out


@pytest.mark.parametrize("which", ["pos", "fed"])
def test_rows_and_entries_own_their_memory(indexes, which):
    """Rows from ``find``/``term_runs`` and every ``_TermPostings`` array
    are copies: none is a view of a cached row group (a kept row or
    entry would pin the group) or of a sibling entry of the same decode
    batch (a cached term would pin the whole batch, and the values
    budget would undercount)."""
    import numpy as np

    eng = QueryEngine(indexes[which], mode="exact")
    terms = sorted({t for q in _queries(indexes[which])
                    for t in eng._tok.tokenize(q)} | {"commontoken"})
    post = eng._load(terms)  # one batch: every term is uncached
    assert len(post) > 5
    # both merge paths: runs concatenated, and runs argsorted
    assert {p._perm is None for p in post.values()} == {True, False}
    assert any(len(eng.term_runs(t)) > 1 for t in post)  # salted/federated
    groups = [a for shard in eng._shards._d.values() if shard is not None
              for cols in shard._groups._d.values()
              for c in cols.values() if not isinstance(c, list) for a in c]
    assert groups
    rows = [v for t in post for r in eng.term_runs(t) for v in r.values()
            if isinstance(v, np.ndarray)]
    entries = {t: _entry_arrays(p) for t, p in post.items()}
    for a in rows + [a for arrs in entries.values() for a in arrs]:
        assert not any(np.shares_memory(a, g) for g in groups)
        assert a.flags.owndata  # not even a disjoint slice of a batch
    for t, arrs in entries.items():
        siblings = [b for u, bs in entries.items() if u != t for b in bs]
        for a in arrs:
            assert not any(np.shares_memory(a, b) for b in siblings), t
