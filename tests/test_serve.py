"""Serve mode (donkey RPC-service analogue): live actor round-trip,
online insert -> journal -> flush -> federated search, recovery, and
compaction equivalence."""

import numpy as np
import pyarrow as pa
import pytest

from donkey_ray.oracle import BM25Oracle
from donkey_ray.pipelines.build import build_index
from donkey_ray.serve import IndexServer, start_server
from donkey_ray.synth import make_corpus, make_queries


@pytest.fixture(scope="module")
def served_index(ray_session, tmp_path_factory):
    import ray.data

    corpus = make_corpus(150, seed=23)
    out = str(tmp_path_factory.mktemp("serve") / "index")
    build_index(ray.data.from_arrow(corpus), out, num_partitions=4,
                query_lang="code", detect_hot=False)
    return corpus, out


def _new_rows(n: int, start: int = 9000) -> list[dict]:
    # fresh (repo, path, commit) keys -> new doc_ids, disjoint from corpus
    return [
        {
            "repo": "repo-live",
            "path": f"src/live_{i}.py",
            "commit": f"c{i:07d}",
            "lang": "py",
            "content": f"def served_handler_{i}(x):\n    return zzylivetoken + x\n",
        }
        for i in range(start, start + n)
    ]


def test_actor_round_trip(served_index):
    import ray

    corpus, out = served_index
    server = start_server(out, name="t_serve_rt")
    ping = ray.get(server.ping.remote())
    assert ping["status"] == "ok" and ping["n_docs"] == 150

    from donkey_ray.stages.score import QueryEngine

    engine = QueryEngine(out)
    for row in make_queries(10).to_pylist():
        got = ray.get(server.search.remote(row["text"], int(row["k"])))
        want = engine.topk(row["text"], int(row["k"]))
        assert [(h["doc_id"], h["score"]) for h in got] == pytest.approx(want)
        assert [h["rank"] for h in got] == list(range(1, len(got) + 1))
    ray.kill(server)


def test_insert_flush_search(served_index, tmp_path):
    """Online insert -> flush -> the new doc is immediately searchable,
    and federated scores equal a from-scratch build over the union."""
    import shutil

    import ray
    import ray.data

    corpus, out = served_index
    base = str(tmp_path / "index")
    shutil.copytree(out, base)

    srv = IndexServer(base)  # in-process: exercises the same code path
    assert srv.search("zzylivetoken", 5) == []
    srv.insert(_new_rows(3))
    assert srv.ping()["buffered_inserts"] == 3
    res = srv.flush()
    assert res["flushed"] == 3 and res["n_docs"] == 153
    hits = srv.search("zzylivetoken served", 5)
    assert len(hits) == 3

    # equivalence: one fresh index over corpus + inserted rows
    rows = _new_rows(3)
    extra = pa.table(
        {c: pa.array([r[c] for r in rows], pa.string())
         for c in ("repo", "path", "commit", "lang", "content")}
    )
    union = pa.concat_tables([corpus.select(extra.column_names), extra])
    fresh = str(tmp_path / "fresh")
    build_index(ray.data.from_arrow(union), fresh, num_partitions=4,
                query_lang="code", detect_hot=False)
    from donkey_ray.stages.score import QueryEngine

    ref = QueryEngine(fresh)
    for text in ("zzylivetoken", "served handler", "return x"):
        assert srv.search(text, 10) == [
            {"rank": r, "doc_id": d, "score": pytest.approx(s)}
            for r, (d, s) in enumerate(ref.topk(text, 10), start=1)
        ]


def test_insert_during_flush_is_kept(served_index, tmp_path):
    """An in-process primary (the shape the threaded HTTP frontend
    serves) gets an insert while a flush of 100 rows is building its
    delta. The insert waits for the flush, which flushes exactly its
    own 100 rows; the late row stays buffered and journaled, survives a
    reopen and is searchable after the next flush."""
    import shutil
    import threading
    import time

    from donkey_ray.functions.hashing import doc_id_from_key
    from donkey_ray.state import journal

    _, out = served_index
    base = str(tmp_path / "index")
    shutil.copytree(out, base)
    srv = IndexServer(base)
    srv.insert(_new_rows(100))
    flushed = {}
    flusher = threading.Thread(target=lambda: flushed.update(srv.flush()))
    flusher.start()
    time.sleep(0.15)  # the flush is building its delta by now
    late = _new_rows(1, start=9500)
    srv.insert(late)
    flusher.join(timeout=300)
    assert not flusher.is_alive()
    assert flushed["flushed"] == 100
    late_id = doc_id_from_key(late[0]["repo"], late[0]["path"],
                              late[0]["commit"])
    assert srv.ping()["buffered_inserts"] == 1
    journaled = [r for rec in journal.replay(srv._journal_path)
                 for r in rec.get("rows", [])]
    assert journaled == late
    reopened = IndexServer(base)
    assert reopened.ping()["buffered_inserts"] == 1
    assert reopened.flush()["flushed"] == 1
    hits = reopened.search("zzylivetoken", 200)
    assert len(hits) == 101 and late_id in {h["doc_id"] for h in hits}


def test_journal_recovery(served_index, tmp_path):
    """Unflushed inserts survive a server restart (journal replay —
    donkey's WAL recover())."""
    import shutil

    corpus, out = served_index
    base = str(tmp_path / "index")
    shutil.copytree(out, base)

    srv = IndexServer(base)
    srv.insert(_new_rows(2))
    del srv  # crash without flush

    srv2 = IndexServer(base)
    assert srv2.ping()["buffered_inserts"] == 2
    res = srv2.flush()
    assert res["flushed"] == 2
    assert len(srv2.search("zzylivetoken", 5)) == 2


def test_compact_preserves_results(served_index, tmp_path):
    import shutil

    corpus, out = served_index
    base = str(tmp_path / "index")
    shutil.copytree(out, base)
    srv = IndexServer(base)
    srv.insert(_new_rows(2))
    srv.flush()
    before = [srv.search(t, 10) for t in ("zzylivetoken", "return x")]
    srv.compact(str(tmp_path / "compacted"), num_partitions=4)
    assert srv.ping()["n_indexes"] == 1
    after = [srv.search(t, 10) for t in ("zzylivetoken", "return x")]
    for b, a in zip(before, after):
        assert [h["doc_id"] for h in b] == [h["doc_id"] for h in a]
        assert [h["score"] for h in b] == pytest.approx([h["score"] for h in a])


def test_delete_tombstones_and_compact(served_index, tmp_path):
    """Online delete: the doc vanishes from search immediately (exact
    top-k via over-fetch), survives restart (journal replay), survives
    flush, and compact() rewrites the index without it — after which the
    engine is rank- AND score-identical to a fresh build over the
    remaining corpus (stats recomputed exactly)."""
    import shutil

    import ray.data

    from donkey_ray.functions.hashing import doc_id_from_key
    from donkey_ray.stages.score import QueryEngine

    corpus, out = served_index
    base = str(tmp_path / "index")
    shutil.copytree(out, base)
    srv = IndexServer(base)

    # pick a doc that actually ranks for a query
    hit = srv.search("return x", 1)[0]
    victim_id = hit["doc_id"]
    rows = {doc_id_from_key(r["repo"], r["path"], r["commit"]): r
            for r in corpus.to_pylist()}
    victim = rows[victim_id]

    res = srv.delete([{k: victim[k] for k in ("repo", "path", "commit")}])
    assert res["n_tombstones"] == 1
    assert all(h["doc_id"] != victim_id for h in srv.search("return x", 200))
    assert srv.ping()["n_deleted"] == 1

    # restart: tombstone survives via the journal
    del srv
    srv = IndexServer(base)
    assert srv.ping()["n_deleted"] == 1
    assert all(h["doc_id"] != victim_id for h in srv.search("return x", 200))

    # re-inserting the deleted key before compaction is rejected
    with pytest.raises(ValueError, match="re-insert"):
        srv.insert([victim])

    # flush of unrelated inserts keeps the tombstone
    srv.insert(_new_rows(1, start=9500))
    srv.flush()
    assert srv.ping()["n_deleted"] == 1

    # compact purges the doc and recomputes stats exactly: engine equals
    # a fresh build over (corpus - victim) + the flushed row
    compacted = str(tmp_path / "compacted")
    meta = srv.compact(compacted, num_partitions=4)
    assert srv.ping()["n_deleted"] == 0
    assert meta["n_docs"] == 150  # 150 - 1 deleted + 1 inserted

    keep = corpus.filter(
        pa.compute.not_equal(
            pa.compute.binary_join_element_wise(
                corpus.column("repo").cast(pa.string()),
                corpus.column("path").cast(pa.string()),
                corpus.column("commit").cast(pa.string()), "|"),
            "|".join(victim[k] for k in ("repo", "path", "commit"))))
    extra = _new_rows(1, start=9500)
    union = pa.concat_tables([
        keep,
        pa.table({c: pa.array([r[c] for r in extra], pa.string())
                  for c in keep.column_names}),
    ])
    oracle = BM25Oracle.from_corpus(union)
    engine = QueryEngine(compacted)
    assert engine.n_docs == oracle.n_docs
    assert abs(engine.avgdl - oracle.avgdl) < 1e-12
    for row in make_queries(15).to_pylist():
        got = engine.topk(row["text"], int(row["k"]))
        want = oracle.topk(row["text"], int(row["k"]), lang="code")
        assert got == pytest.approx(want), row["text"]


def test_serve_not_kind(served_index):
    """kind='not' through the server equals engine.not_topk, and the
    tombstone over-fetch interacts correctly with exclusion."""
    from donkey_ray.functions.tokenize import get_tokenizer
    from donkey_ray.stages.score import QueryEngine
    from donkey_ray.synth import COMMON_TOKEN

    corpus, out = served_index
    srv = IndexServer(out)
    eng = QueryEngine(out)
    toks = get_tokenizer("code").tokenize(corpus.column("content")[0].as_py())
    neg = next(t for t in toks if t != COMMON_TOKEN and eng.term_runs(t))
    want = eng.not_topk(COMMON_TOKEN, neg, 5)
    got = srv.search(COMMON_TOKEN, 5, kind="not", neg_text=neg)
    assert [(h["doc_id"], h["score"]) for h in got] == [
        (d, s) for d, s in want
    ]
    assert all(
        h["doc_id"] not in {d for d, _ in eng.topk(neg, 10**6)} for h in got
    )


def test_serve_msm_and_boosted(served_index):
    """kind='msm' and boosted topk through the server equal the engine;
    msm at m=1 equals plain disjunctive, boosts reorder rankings."""
    from donkey_ray.functions.tokenize import get_tokenizer
    from donkey_ray.stages.score import QueryEngine
    from donkey_ray.synth import COMMON_TOKEN

    corpus, out = served_index
    srv = IndexServer(out)
    eng = QueryEngine(out)
    toks = get_tokenizer("code").tokenize(corpus.column("content")[0].as_py())
    other = next(t for t in toks if t != COMMON_TOKEN and eng.term_runs(t))
    q = f"{COMMON_TOKEN} {other}"

    got = srv.search(q, 5, kind="msm", min_match=2)
    want = eng.msm_topk(q, 5, 2)
    assert [(h["doc_id"], h["score"]) for h in got] == [
        (d, s) for d, s in want
    ]
    # m=1 == plain disjunctive
    assert eng.msm_topk(q, 5, 1) == eng.topk(q, 5)

    boosts = {other: 100.0}
    got_b = srv.search(q, 5, boosts=boosts)
    want_b = eng.boosted_topk(q, 5, boosts)
    assert [(h["doc_id"], h["score"]) for h in got_b] == [
        (d, s) for d, s in want_b
    ]
    # a huge boost on the rarer term must float a doc containing it to #1
    assert want_b[0][0] in {d for d, _ in eng.topk(other, 10**6)}


def test_serve_bool_kind(served_index):
    """kind='bool' through the server equals engine.bool_topk, and the
    tombstone over-fetch filters apply to boolean matches too."""
    from donkey_ray.functions.tokenize import get_tokenizer
    from donkey_ray.stages.score import QueryEngine
    from donkey_ray.synth import COMMON_TOKEN

    corpus, out = served_index
    srv = IndexServer(out)
    eng = QueryEngine(out)
    toks = get_tokenizer("code").tokenize(corpus.column("content")[0].as_py())
    other = next(t for t in toks if t != COMMON_TOKEN and eng.term_runs(t))
    expr = f"{COMMON_TOKEN} NOT ({other} AND {COMMON_TOKEN})"
    want = eng.bool_topk(expr, 5)
    got = srv.search(expr, 5, kind="bool")
    assert [(h["doc_id"], h["score"]) for h in got] == [
        (d, s) for d, s in want
    ]
    assert all(h["doc_id"] not in {d for d, _ in eng.topk(other, 10**6)}
               for h in got)


# ------------------------------------------------- vector serving (A2/A5)


def _mk_vecs(n, dim=8, seed=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim))


@pytest.fixture()
def vector_server(ray_session, tmp_path):
    import ray.data

    from donkey_ray.pipelines.ivf import build_ivf_index
    from donkey_ray.serve import VectorServer

    vecs = _mk_vecs(60)
    tbl = pa.table({
        "vec_id": pa.array(range(60), pa.int64()),
        "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64())),
    })
    idx = str(tmp_path / "vidx")
    build_ivf_index(ray.data.from_arrow(tbl), idx, n_lists=4,
                    num_partitions=2)
    return VectorServer(idx), vecs, tmp_path


def test_vector_server_insert_search_delete(vector_server):
    srv, vecs, _ = vector_server
    assert srv.ping()["n_indexed"] == 60
    # an indexed vector finds itself first
    hits = srv.search(vecs[7], k=3)
    assert hits[0]["vec_id"] == 7 and hits[0]["cos_sim"] == pytest.approx(1.0)
    # online insert: new vector is served from the buffer immediately
    nv = _mk_vecs(1, seed=99)[0]
    srv.insert([{"vec_id": 1000, "embedding": list(nv)}])
    hits = srv.search(nv, k=2)
    assert hits[0]["vec_id"] == 1000
    # delete: tombstoned ids vanish, page stays full (over-fetch)
    srv.delete([7])
    hits = srv.search(vecs[7], k=3)
    assert all(h["vec_id"] != 7 for h in hits) and len(hits) == 3


def test_vector_server_journal_recovery(vector_server):
    from donkey_ray.serve import VectorServer

    srv, vecs, _ = vector_server
    nv = _mk_vecs(1, seed=50)[0]
    srv.insert([{"vec_id": 2000, "embedding": list(nv)}])
    srv.delete([3])
    # a fresh instance over the same dir replays the WAL
    srv2 = VectorServer(srv.index_dir)
    assert srv2.ping()["n_buffered"] == 1
    assert srv2.ping()["n_deleted"] == 1
    hits = srv2.search(nv, k=1)
    assert hits[0]["vec_id"] == 2000


def test_vector_server_compact(vector_server):
    srv, vecs, tmp_path = vector_server
    nv = _mk_vecs(1, seed=51)[0]
    srv.insert([{"vec_id": 3000, "embedding": list(nv)}])
    srv.delete([0, 1])
    out = str(tmp_path / "vidx2")
    res = srv.compact(out)
    assert res["n_vecs"] == 60 - 2 + 1
    assert srv.ping()["n_buffered"] == 0
    assert srv.ping()["n_deleted"] == 0
    # served from the new artifact: insert survives, deletes are gone
    assert srv.search(nv, k=1)[0]["vec_id"] == 3000
    hits = srv.search(vecs[0], k=60)
    assert all(h["vec_id"] not in (0, 1) for h in hits)
    # tombstoned-then-compacted ids may be reused
    srv.insert([{"vec_id": 0, "embedding": list(vecs[0])}])
    assert srv.search(vecs[0], k=1)[0]["vec_id"] == 0


def test_vector_server_buffer_matrix_cache(vector_server):
    """search reuses the buffer's normalized matrix until an insert, a
    delete or a compact changes the buffer, and its results equal those
    of a fresh server that replays the same journal (nothing cached)."""
    from donkey_ray.serve import VectorServer

    srv, vecs, tmp_path = vector_server
    qs = _mk_vecs(4, seed=11)

    def same_as_fresh():
        fresh = VectorServer(srv.index_dir)
        for nprobe in (None, 2):
            assert srv.search(qs, k=8, nprobe=nprobe) == \
                fresh.search(qs, k=8, nprobe=nprobe)

    srv.insert([{"vec_id": 100 + i, "embedding": list(v)}
                for i, v in enumerate(_mk_vecs(4, seed=12))])
    same_as_fresh()
    cached = srv._buf_matrix
    srv.search(qs, k=8)
    assert srv._buf_matrix is cached
    srv.insert([{"vec_id": 200, "embedding": list(qs[0])}])
    same_as_fresh()
    assert srv._buf_matrix is not cached
    assert 200 in srv._buf_matrix[1]
    srv.delete([101, 3])
    same_as_fresh()
    assert 101 not in srv._buf_matrix[1]
    srv.compact(str(tmp_path / "vidx_cached"))
    same_as_fresh()
    srv.insert([{"vec_id": 300, "embedding": list(qs[1])}])
    same_as_fresh()
    assert srv._buf_matrix[1].tolist() == [300]


def test_vector_server_compact_guards(vector_server):
    """REGRESSION (review findings): compact into an already-complete
    dir must refuse (a silent no-op build would clear state the index
    never saw); the OLD dir's journal survives compact so a restart
    against the old constructor arg replays a consistent view; and a
    single insert() call with duplicate vec_ids is rejected."""
    from donkey_ray.serve import VectorServer

    srv, vecs, tmp_path = vector_server
    nv = _mk_vecs(1, seed=77)[0]
    srv.insert([{"vec_id": 5000, "embedding": list(nv)}])
    srv.delete([2])
    old_dir = srv.index_dir
    # duplicate ids within one call
    with pytest.raises(ValueError):
        srv.insert([{"vec_id": 6000, "embedding": list(nv)},
                    {"vec_id": 6000, "embedding": list(nv)}])
    # compact into the CURRENT (complete) dir refuses
    with pytest.raises(ValueError):
        srv.compact(old_dir)
    out = str(tmp_path / "vidx_fresh")
    srv.compact(out)
    # old journal intact: a restart with the old arg sees pre-compact state
    old_view = VectorServer(old_dir)
    assert old_view.ping()["n_buffered"] == 1
    assert old_view.ping()["n_deleted"] == 1
    # new dir serves the compacted state with an empty journal
    new_view = VectorServer(out)
    assert new_view.ping()["n_buffered"] == 0
    assert new_view.search(nv, k=1)[0]["vec_id"] == 5000


def test_vector_server_refuses_lost_segment(ray_session, tmp_path):
    """A lost built segment is an integrity error for VectorServer, not
    a smaller index: the duplicate-insert check raises instead of
    accepting an indexed vec_id of the lost partition, and compact()
    raises instead of writing a complete index without that partition.
    The serving dir, the journal and ping() stay as they were."""
    import os

    import pyarrow.parquet as pq
    import ray.data

    from donkey_ray.pipelines.ivf import build_ivf_index
    from donkey_ray.serve import VectorServer
    from donkey_ray.state import manifest as mf

    vecs = _mk_vecs(400, seed=8)
    idx = str(tmp_path / "vidx_lost")
    build_ivf_index(ray.data.from_arrow(pa.table({
        "vec_id": pa.array(range(400), pa.int64()),
        "embedding": pa.array(vecs.tolist(), pa.list_(pa.float64())),
    })), idx, n_lists=8, num_partitions=4)
    first = VectorServer(idx)
    first.insert([{"vec_id": 5000, "embedding": list(_mk_vecs(1)[0])}])
    first.delete([2])
    lost = pq.read_table(mf.segment_path(idx, 1),
                         columns=["vec_id"]).column("vec_id").to_pylist()
    os.unlink(mf.segment_path(idx, 1))
    srv = VectorServer(idx)  # replays the journal; no ids loaded yet
    with open(srv._journal_path, "rb") as f:
        journal_before = f.read()
    ping_before = srv.ping()
    with pytest.raises(FileNotFoundError, match="missing"):
        srv.insert([{"vec_id": lost[0], "embedding": list(vecs[lost[0]])}])
    out = str(tmp_path / "vidx_lost_compacted")
    with pytest.raises(FileNotFoundError, match="missing"):
        srv.compact(out)
    assert not mf.is_complete(out)
    assert srv.index_dir == idx
    with open(srv._journal_path, "rb") as f:
        assert f.read() == journal_before
    assert srv.ping() == ping_before


def test_vector_server_search_after_compact_drops_old_dir(vector_server):
    """compact() replaces the server's IVF reader: with every partition
    of the old dir cached and that dir then deleted, search answers
    exactly like brute force over the compacted vectors."""
    import shutil

    srv, vecs, tmp_path = vector_server
    srv.search(vecs[:5], k=10)  # caches every partition of the old dir
    nv = _mk_vecs(1, seed=61)[0]
    srv.insert([{"vec_id": 4000, "embedding": list(nv)}])
    srv.delete([3, 4])
    old_dir = srv.index_dir
    srv.compact(str(tmp_path / "vidx_after"))
    shutil.rmtree(old_dir)
    keep = [i for i in range(60) if i not in (3, 4)]
    live_ids = np.array(keep + [4000])
    live = np.vstack([vecs[keep], nv])
    live /= np.linalg.norm(live, axis=1, keepdims=True)
    q = np.vstack([vecs[3], nv, vecs[10]])
    got = srv.search(q, k=8)
    for qi in range(3):
        s = live @ (q[qi] / np.linalg.norm(q[qi]))
        want = np.lexsort((live_ids, -s))[:8]
        rows = [r for r in got if r["query_id"] == qi]
        assert [r["vec_id"] for r in rows] == live_ids[want].tolist()
        np.testing.assert_allclose([r["cos_sim"] for r in rows], s[want],
                                   atol=1e-12)


def test_serve_flush_preserves_analyzer(ray_session, tmp_path):
    """REGRESSION (analyzer_lang thread-through): a delta flushed by the
    server over a STEM-analyzed base must stem its index-side terms too
    — otherwise singular queries miss plural docs inserted online."""
    import ray.data

    corpus = pa.table({
        "repo": pa.array(["r"]), "path": pa.array(["base0"]),
        "commit": pa.array(["c"]), "lang": pa.array(["en"]),
        "content": pa.array(["the table stores a value"]),
    })
    out = str(tmp_path / "stem_base")
    build_index(ray.data.from_arrow(corpus), out, num_partitions=2,
                query_lang="stem", analyzer_lang="stem", detect_hot=False)
    srv = IndexServer(out)
    srv.insert([{"repo": "r", "path": "new0", "commit": "c", "lang": "en",
                 "content": "tables and values everywhere"}])
    srv.flush(num_partitions=2)
    from donkey_ray.functions.hashing import doc_id_from_key

    hits = srv.search("table", k=10)
    ids = {h["doc_id"] for h in hits}
    assert doc_id_from_key("r", "new0", "c") in ids  # plural doc matches
    assert doc_id_from_key("r", "base0", "c") in ids


def test_auto_compact_threshold(served_index, tmp_path):
    """VERDICT r2: a delete pushing tombstones to the configured
    threshold triggers compact automatically into a fresh sibling dir —
    over-fetch stays bounded under sustained deletes."""
    import shutil

    corpus, out = served_index
    base = str(tmp_path / "index")
    shutil.copytree(out, base)
    srv = IndexServer(base, auto_compact_tombstones=3)
    victims = [h["doc_id"] for h in srv.search("return x", 3)]
    srv.delete(victims[:2])
    assert srv.ping()["n_deleted"] == 2
    assert srv.base_dir == base  # below threshold: no compact yet
    srv.delete(victims[2:])
    # threshold hit: compacted into a fresh dir, tombstones resolved
    assert srv.ping()["n_deleted"] == 0
    assert srv.base_dir == base + "_compact_0"
    assert srv.ping()["n_docs"] == 147
    assert all(h["doc_id"] not in victims
               for h in srv.search("return x", 200))


def test_needs_compact_warning(served_index, tmp_path, monkeypatch):
    """Without auto-compact, ping() raises needs_compact once the
    tombstone count passes the soft TOMBSTONE_WARN bound."""
    import shutil

    import donkey_ray.serve as serve_mod

    corpus, out = served_index
    base = str(tmp_path / "index")
    shutil.copytree(out, base)
    srv = IndexServer(base)
    monkeypatch.setattr(serve_mod, "TOMBSTONE_WARN", 2)
    assert srv.ping()["needs_compact"] is False
    srv.delete([h["doc_id"] for h in srv.search("return x", 2)])
    assert srv.ping()["needs_compact"] is True


def test_vector_server_rejects_indexed_id(vector_server):
    """REGRESSION (ADVICE r2): re-inserting a vec_id that is already in
    the IVF artifact must be rejected — it would return twice from
    search() and write duplicate rows at compact()."""
    srv, vecs, tmp_path = vector_server
    with pytest.raises(ValueError, match="already indexed"):
        srv.insert([{"vec_id": 7, "embedding": list(vecs[7])}])
    # the guard follows a compact swap to the NEW index
    srv.compact(str(tmp_path / "vidx_dupguard"))
    with pytest.raises(ValueError, match="already indexed"):
        srv.insert([{"vec_id": 7, "embedding": list(vecs[7])}])
    # deleted-then-compacted ids stay insertable
    srv.delete([9])
    srv.compact(str(tmp_path / "vidx_dupguard2"))
    srv.insert([{"vec_id": 9, "embedding": list(vecs[9])}])
    assert srv.search(vecs[9], k=1)[0]["vec_id"] == 9


def test_vector_server_auto_compact(vector_server):
    """Tombstone threshold auto-compacts the vector index too."""
    from donkey_ray.serve import VectorServer

    srv0, vecs, _ = vector_server
    idx = srv0.index_dir
    srv = VectorServer(idx, auto_compact_tombstones=2)
    srv.delete([0])
    assert srv.ping()["n_deleted"] == 1 and srv.index_dir == idx
    srv.delete([1])
    assert srv.ping()["n_deleted"] == 0  # auto-compacted
    assert srv.index_dir == idx + "_compact_0"
    assert srv.ping()["n_indexed"] == 58
    assert all(h["vec_id"] not in (0, 1)
               for h in srv.search(vecs[0], k=58))


def test_serve_router_round_robin_and_failover(served_index):
    """VERDICT r2 item 2: the multi-replica router answers every query
    identically to a single engine, fans batches across replicas, and
    fails over (with respawn-by-name) when a replica dies."""
    import time

    import ray

    from donkey_ray.serve import ServeRouter
    from donkey_ray.stages.score import QueryEngine

    corpus, out = served_index
    router = ServeRouter(out, n_replicas=2, name_prefix="t_router_rep")
    engine = QueryEngine(out)
    try:
        for row in make_queries(6).to_pylist():
            got = router.search(row["text"], int(row["k"]))
            want = engine.topk(row["text"], int(row["k"]))
            assert [(h["doc_id"], h["score"]) for h in got] == pytest.approx(want)
        # batch fan-out across replicas, results in request order
        qs = [(r["text"], int(r["k"])) for r in make_queries(10).to_pylist()]
        for (text, k), got in zip(qs, router.search_many(qs)):
            want = engine.topk(text, k)
            assert [(h["doc_id"], h["score"]) for h in got] == pytest.approx(want)
        assert router.ping()["replicas"] == ["ok", "ok"]

        # failover: kill one replica; every query still answers
        ray.kill(ray.get_actor("t_router_rep_0"))
        for row in make_queries(6).to_pylist():
            got = router.search(row["text"], int(row["k"]))
            want = engine.topk(row["text"], int(row["k"]))
            assert [(h["doc_id"], h["score"]) for h in got] == pytest.approx(want)
        # the killed replica respawns under its name on demand
        for _ in range(20):
            if router.ping()["replicas"] == ["ok", "ok"]:
                break
            time.sleep(0.5)
        assert router.ping()["replicas"] == ["ok", "ok"]
    finally:
        router.shutdown()


def test_serve_router_collision_and_single_replica_respawn(
        served_index, tmp_path):
    """REGRESSION (review findings): adopting a named actor that serves
    a DIFFERENT index fails loudly (no silent wrong-index answers), and
    a single-replica router recovers in the same call after its only
    replica dies (extra attempt + respawn-by-name wait loop)."""
    import shutil

    import ray
    import ray.data

    from donkey_ray.pipelines.build import build_index
    from donkey_ray.serve import ServeRouter

    corpus, out = served_index
    other = str(tmp_path / "other_index")
    build_index(ray.data.from_arrow(make_corpus(40, seed=77)), other,
                num_partitions=2, query_lang="code", detect_hot=False)
    ra = ServeRouter(out, n_replicas=1, name_prefix="t_collide_rep")
    try:
        want = ra.search("return x", 3)
        with pytest.raises(RuntimeError, match="serves"):
            ServeRouter(other, n_replicas=1, name_prefix="t_collide_rep")
        ray.kill(ray.get_actor("t_collide_rep_0"))
        got = ra.search("return x", 3)  # same call recovers via respawn
        assert got == want
    finally:
        ra.shutdown()


def test_vector_router_parity_and_failover(vector_server):
    """VectorRouter (the vector-side replica pool): chunked batch
    fan-out equals a single server's answers with globally-renumbered
    query ids, and a killed replica fails over + respawns."""
    import ray

    from donkey_ray.serve import VectorRouter

    srv, vecs, _ = vector_server
    router = VectorRouter(srv.index_dir, n_replicas=2,
                          name_prefix="t_vrouter_rep")
    try:
        q = vecs[:10]
        want = srv.search(q, k=3)
        got = router.search_many(q, k=3, chunk_size=4)
        key = lambda r: (r["query_id"], r["rank"])
        assert sorted(got, key=key) == sorted(want, key=key)
        assert router.ping()["replicas"] == ["ok", "ok"]
        ray.kill(ray.get_actor("t_vrouter_rep_0"))
        got2 = router.search_many(q, k=3, chunk_size=4)
        assert sorted(got2, key=key) == sorted(want, key=key)
    finally:
        router.shutdown()


def test_vector_router_single_vector_query(vector_server):
    """REGRESSION: a 1-D query vector must promote to (1, dim) — not be
    chunked along the dimension axis."""
    from donkey_ray.serve import VectorRouter

    srv, vecs, _ = vector_server
    router = VectorRouter(srv.index_dir, n_replicas=2,
                          name_prefix="t_vr1d_rep")
    try:
        hits = router.search_many(vecs[7], k=2)
        assert [h["query_id"] for h in hits] == [0, 0]
        assert hits[0]["vec_id"] == 7
    finally:
        router.shutdown()

def test_multi_frontend_shared_pool_failover(served_index):
    """VERDICT r3 item 1: M stateless router frontends over ONE shared
    named-replica pool. Both frontends answer identically to a single
    engine, their digests cover the full query stream with a stable
    checksum, a replica killed under one frontend fails over on BOTH
    (respawn-by-name + re-adoption), and teardown kills the pool once."""
    import ray

    from donkey_ray.serve import start_frontends, stop_frontends
    from donkey_ray.stages.score import QueryEngine

    corpus, out = served_index
    fronts = start_frontends(out, n_replicas=2, n_frontends=2,
                             name="t_mf")
    engine = QueryEngine(out)
    try:
        # both frontends adopted/created the SAME replica pool
        pings = ray.get([f.ping.remote() for f in fronts])
        assert all(p["replicas"] == ["ok", "ok"] for p in pings)
        assert {a._actor_id for a in [ray.get_actor("t_mf_replica_0"),
                                      ray.get_actor("t_mf_replica_1")]}

        qs = [(r["text"], int(r["k"])) for r in make_queries(12).to_pylist()]
        # each frontend answers every query identically to a single engine
        for f in fronts:
            for (text, k), got in zip(qs, ray.get(f.search_many.remote(qs))):
                want = engine.topk(text, k)
                assert [(h["doc_id"], h["score"]) for h in got] == \
                    pytest.approx(want)
        # digest: full stream accounted for, checksum identical across
        # frontends (order-independent marshalling on the frontend)
        d0, d1 = ray.get([f.search_many_digest.remote(qs) for f in fronts])
        assert d0["n_queries"] == d1["n_queries"] == len(qs)
        assert d0["checksum"] == d1["checksum"]
        assert d0["n_hits"] == d1["n_hits"] > 0

        # kill a SHARED replica: both frontends fail over and the
        # replica respawns under its name for whichever frontend needs it
        ray.kill(ray.get_actor("t_mf_replica_0"))
        for f in fronts:
            got = ray.get(f.search.remote(qs[0][0], qs[0][1]))
            want = engine.topk(qs[0][0], qs[0][1])
            assert [(h["doc_id"], h["score"]) for h in got] == \
                pytest.approx(want)
        d0b, d1b = ray.get([f.search_many_digest.remote(qs) for f in fronts])
        assert d0b["checksum"] == d0["checksum"]
        assert d1b["checksum"] == d0["checksum"]

        # wrong-index frontend adoption is refused
        with pytest.raises(RuntimeError, match="serves"):
            start_frontends("/tmp/definitely_not_this_index",
                            n_replicas=2, n_frontends=1, name="t_mf")
    finally:
        stop_frontends(fronts)
    # pool and frontends are gone (names free eventually)
    import time
    for _ in range(25):
        try:
            ray.get_actor("t_mf_f0")
            time.sleep(0.2)
        except ValueError:
            break
    with pytest.raises(ValueError):
        ray.get_actor("t_mf_f0")


def _http(port, method, path, obj=None):
    import json as _json
    import urllib.error
    import urllib.request

    data = None if obj is None else _json.dumps(obj).encode()
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=30) as r:
            return r.status, _json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, _json.loads(e.read())


def test_http_frontend_round_trip_and_failover(served_index, tmp_path):
    """VERDICT r3 item 4 (donkey A7 RPC analogue): full JSON-over-HTTP
    round-trip — ping, search (identical hits to the engine), batch
    search, insert -> flush -> the new doc is searchable over HTTP,
    delete, error mapping — and replica failover is invisible to HTTP
    clients (reads go through the router pool)."""
    import shutil

    import ray

    from donkey_ray.httpserve import start_http_frontend
    from donkey_ray.serve import start_router, start_server
    from donkey_ray.stages.score import QueryEngine

    corpus, out = served_index
    # writes need their own index dir (flush mutates the artifact chain)
    wdir = str(tmp_path / "http_idx")
    shutil.copytree(out, wdir)
    router = start_router(wdir, n_replicas=2, name="t_http_router")
    primary = start_server(wdir, name="t_http_primary")
    srv, port = start_http_frontend(router=router, primary=primary)
    try:
        code, ping = _http(port, "GET", "/ping")
        assert code == 200 and ping["n_docs"] == 150
        code, stats = _http(port, "GET", "/stats")
        assert code == 200 and stats["index_dirs"][0] == wdir

        engine = QueryEngine(wdir)
        code, res = _http(port, "POST", "/search",
                          {"text": "return x", "k": 5})
        assert code == 200
        want = engine.topk("return x", 5)
        assert [(h["doc_id"], h["score"]) for h in res["hits"]] == \
            pytest.approx(want)

        qs = [[r["text"], int(r["k"])] for r in make_queries(6).to_pylist()]
        code, res = _http(port, "POST", "/search_batch", {"queries": qs})
        assert code == 200 and len(res["results"]) == len(qs)
        for (text, k), hits in zip(qs, res["results"]):
            assert [(h["doc_id"], h["score"]) for h in hits] == \
                pytest.approx(engine.topk(text, k))

        # failover: kill one replica; HTTP clients never notice
        ray.kill(ray.get_actor("t_http_router_replica_0"))
        code, res = _http(port, "POST", "/search",
                          {"text": "return x", "k": 5})
        assert code == 200
        assert [(h["doc_id"], h["score"]) for h in res["hits"]] == \
            pytest.approx(want)

        # writes: insert -> flush -> searchable (through the primary)
        rows = [{"repo": "http", "path": "h.py", "commit": "c1",
                 "lang": "py",
                 "content": "def http_handler(): return qqhttptoken"}]
        code, res = _http(port, "POST", "/insert", {"rows": rows})
        assert code == 200 and res["buffered"] == 1
        code, res = _http(port, "POST", "/flush", {})
        assert code == 200 and res["flushed"] == 1
        code, res = _http(port, "POST", "/search",
                          {"text": "qqhttptoken", "k": 3})
        # the PRIMARY sees the flushed delta (router replicas still
        # serve the base artifact until rolled out — documented model),
        # so assert through a primary-only frontend
        from donkey_ray.httpserve import start_http_frontend as shf
        srv2, port2 = shf(primary=primary)
        try:
            code, res = _http(port2, "POST", "/search",
                              {"text": "qqhttptoken", "k": 3})
            assert code == 200 and len(res["hits"]) == 1
            code, res = _http(port2, "POST", "/delete",
                              {"keys": [{"repo": "http", "path": "h.py",
                                         "commit": "c1"}]})
            assert code == 200 and res["deleted"] == 1
            code, res = _http(port2, "POST", "/search",
                              {"text": "qqhttptoken", "k": 3})
            assert code == 200 and res["hits"] == []
        finally:
            srv2.shutdown()

        # error mapping: bad request -> 400 (actor-side ValueError too)
        code, res = _http(port, "POST", "/search", {"k": 5})
        assert code == 400 and "error" in res
        code, res = _http(port, "POST", "/insert", {"rows": [{"repo": "x"}]})
        assert code == 400 and "missing columns" in res["error"]
        code, res = _http(port, "GET", "/nope")
        assert code == 404
        # read-only frontend refuses writes
        srv3, port3 = shf(router=router)
        try:
            code, res = _http(port3, "POST", "/insert", {"rows": rows})
            assert code == 405
        finally:
            srv3.shutdown()
    finally:
        srv.shutdown()
        ray.get(router.shutdown.remote())
        ray.kill(router)
        ray.kill(primary)


def test_flush_federates_v2_base(served_index, tmp_path):
    """REGRESSION (review finding): the v2->v3 format bump is additive
    (posting encoding unchanged), so a pre-bump artifact must still
    accept flushed v3 deltas — and a genuinely incompatible delta must
    fail BEFORE the buffer/journal are touched."""
    import json as _json
    import shutil

    from donkey_ray.serve import IndexServer
    from donkey_ray.state import manifest as mf

    corpus, out = served_index
    wdir = str(tmp_path / "v2_idx")
    shutil.copytree(out, wdir)
    meta = mf.load_meta(wdir)
    meta["format_version"] = 2  # simulate a pre-bump artifact
    mf.write_meta(wdir, meta)

    srv = IndexServer(wdir)
    srv.insert(_new_rows(1, start=9500))
    res = srv.flush()
    assert res["flushed"] == 1 and res["n_indexes"] == 2
    assert len(srv.search("zzylivetoken", 3)) >= 1

    # incompatible member: error surfaces BEFORE state mutation
    srv.insert(_new_rows(1, start=9600))
    delta1 = srv._dirs[1]
    dmeta = mf.load_meta(delta1)
    dmeta["query_lang"] = "stem"  # genuinely incompatible
    mf.write_meta(delta1, dmeta)
    buffered_before = list(srv._buffer)
    import os as _os
    with pytest.raises(ValueError, match="disagree"):
        srv.flush()
    assert srv._buffer == buffered_before  # nothing half-flushed
    assert _os.path.exists(srv._journal_path)

    # REGRESSION (review finding): the failed flush left a COMPLETE
    # orphan delta on disk under the next flush's name; a later flush
    # with MORE buffered rows must rebuild it from the current buffer,
    # not silently reuse the stale snapshot (which would drop the newer
    # rows from the index forever)
    dmeta["query_lang"] = meta["query_lang"]  # repair the member
    mf.write_meta(delta1, dmeta)
    srv.insert(_new_rows(1, start=9700))
    res2 = srv.flush()
    assert res2["flushed"] == 2  # BOTH buffered rows made it
    assert len(srv.search("zzylivetoken", 10)) >= 3


@pytest.mark.parametrize("nprobe", [0, -1])
def test_http_vsearch_rejects_nprobe_below_one(vector_server, nprobe):
    """/vsearch passes the body's nprobe to ivf_topk: a count below 1 is
    the client's 400, not an empty or near-full probe."""
    from donkey_ray.httpserve import start_http_frontend

    srv_obj, vecs, _ = vector_server
    http_srv, port = start_http_frontend(vprimary=srv_obj)
    try:
        code, res = _http(port, "POST", "/vsearch",
                          {"vectors": [list(map(float, vecs[0]))], "k": 3,
                           "nprobe": nprobe})
        assert code == 400 and "nprobe" in res["error"]
        code, _ = _http(port, "POST", "/vsearch",
                        {"vectors": [list(map(float, vecs[0]))], "k": 3,
                         "nprobe": 1})
        assert code == 200
    finally:
        http_srv.shutdown()
        http_srv.server_close()


def test_http_vector_endpoints(vector_server):
    """Vector-side HTTP surface (donkey's literal insert/search core
    over the wire): vping, vsearch through a VectorRouter (failover
    included), vinsert/vdelete through the primary, write refusal on a
    read-only frontend."""
    import ray

    from donkey_ray.httpserve import start_http_frontend
    from donkey_ray.serve import VectorRouter

    srv_obj, vecs, _ = vector_server
    vrouter = (ray.remote(VectorRouter)
               .options(name="t_http_vr", num_cpus=0)
               .remote(srv_obj.index_dir, n_replicas=2,
                       name_prefix="t_http_vr_rep"))
    http_srv, port = start_http_frontend(vrouter=vrouter)
    try:
        code, ping = _http(port, "GET", "/vping")
        # router-level aggregate ping: n_docs falls back to n_indexed
        assert code == 200 and ping["n_docs"] == 60
        want = srv_obj.search(vecs[:4], k=3)
        code, res = _http(port, "POST", "/vsearch",
                          {"vectors": [list(map(float, v)) for v in vecs[:4]],
                           "k": 3})
        assert code == 200
        key = lambda r: (r["query_id"], r["rank"])
        got = sorted(res["hits"], key=key)
        assert [(h["query_id"], h["rank"], h["vec_id"]) for h in got] == \
            [(h["query_id"], h["rank"], h["vec_id"])
             for h in sorted(want, key=key)]
        # failover: kill one replica mid-serving
        ray.kill(ray.get_actor("t_http_vr_rep_0"))
        code, res2 = _http(port, "POST", "/vsearch",
                           {"vectors": [list(map(float, vecs[0]))], "k": 3})
        assert code == 200 and len(res2["hits"]) == 3
        # writes refused without a vprimary
        code, res3 = _http(port, "POST", "/vinsert",
                           {"rows": [{"vec_id": 990,
                                      "embedding": [0.0] * len(vecs[0])}]})
        assert code == 405
    finally:
        http_srv.shutdown()
        ray.get(vrouter.shutdown.remote())
        ray.kill(vrouter)


def _cut_inside_last_record(path: str) -> None:
    """Leave ``path`` as a crash mid-append would: the last record cut
    halfway through (its earlier records intact)."""
    with open(path, "rb") as f:
        data = f.read()
    start = data.rindex(b"\n", 0, len(data) - 1) + 1
    with open(path, "wb") as f:
        f.write(data[:(start + len(data)) // 2])


def test_index_server_recovers_torn_journal(served_index, tmp_path):
    """A primary killed mid-append reopens with the journal's durable
    prefix; the torn insert batch replays NONE of its rows (its client
    never saw it acknowledged). Opening only reads (a read replica over
    a live primary's dir must not cut the file); the reopened server's
    first append cuts the torn tail and lands on a line boundary."""
    import os
    import shutil

    corpus, out = served_index
    base = str(tmp_path / "index")
    shutil.copytree(out, base)
    srv = IndexServer(base)
    srv.insert(_new_rows(2, start=9300))
    victim = corpus.to_pylist()[0]
    srv.delete([{k: victim[k] for k in ("repo", "path", "commit")}])
    srv.insert(_new_rows(100, start=9400))
    _cut_inside_last_record(srv._journal_path)
    torn_size = os.path.getsize(srv._journal_path)

    srv2 = IndexServer(base)
    assert srv2.ping()["buffered_inserts"] == 2
    assert srv2.ping()["n_deleted"] == 1
    assert os.path.getsize(srv._journal_path) == torn_size
    srv2.insert(_new_rows(1, start=9600))
    assert IndexServer(base).ping()["buffered_inserts"] == 3


def test_vector_server_recovers_torn_journal(vector_server):
    from donkey_ray.serve import VectorServer

    srv, vecs, _ = vector_server
    nv = _mk_vecs(12, seed=61)
    srv.insert([{"vec_id": 4000, "embedding": list(nv[0])}])
    srv.delete([5])
    srv.insert([{"vec_id": 4100 + i, "embedding": list(v)}
                for i, v in enumerate(nv[1:])])
    _cut_inside_last_record(srv._journal_path)

    srv2 = VectorServer(srv.index_dir)
    assert srv2.ping()["n_buffered"] == 1
    assert srv2.ping()["n_deleted"] == 1
    assert srv2.search(nv[0], k=1)[0]["vec_id"] == 4000
    srv2.insert([{"vec_id": 4100, "embedding": list(nv[1])}])
    assert VectorServer(srv.index_dir).ping()["n_buffered"] == 2
