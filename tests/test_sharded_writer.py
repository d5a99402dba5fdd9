"""Sharded write path (VERDICT r4 item 3): K hash-partitioned primary
IndexServers behind one write surface. The contract under test: a
K-shard deployment holding the same docs as a single primary answers
queries IDENTICALLY (global federated BM25 stats + tombstone filtering),
while inserts/deletes/flushes fan out concurrently across the shards.
"""

import os

import pyarrow as pa
import pytest

from donkey_ray.functions.hashing import doc_id_from_key
from donkey_ray.pipelines.build import build_index
from donkey_ray.serve import IndexServer, ShardedWriter
from donkey_ray.synth import make_corpus, make_queries

N_SHARDS = 2


def _rows(n: int, start: int = 7000) -> list[dict]:
    return [
        {
            "repo": "repo-sharded",
            "path": f"src/shardlive_{i}.py",
            "commit": f"s{i:07d}",
            "lang": "py",
            "content": (f"def sharded_handler_{i}(x):\n"
                        f"    return zzyshardtoken + x\n"),
        }
        for i in range(start, start + n)
    ]


@pytest.fixture(scope="module")
def sharded_env(ray_session, tmp_path_factory):
    """The same 120-doc corpus built twice: once as ONE index (the
    single-primary reference) and once hash-partitioned into N_SHARDS
    shard bases (the routing rule the writer uses)."""
    import ray.data

    corpus = make_corpus(120, seed=31)
    base = tmp_path_factory.mktemp("shardw")
    single_dir = str(base / "single")
    build_index(ray.data.from_arrow(corpus), single_dir,
                num_partitions=4, query_lang="code", detect_hot=False)
    ids = [doc_id_from_key(r, p, c) for r, p, c in zip(
        corpus.column("repo").to_pylist(),
        corpus.column("path").to_pylist(),
        corpus.column("commit").to_pylist())]
    shard_dirs = []
    for s in range(N_SHARDS):
        mask = pa.array([i % N_SHARDS == s for i in ids])
        part = corpus.filter(mask)
        assert part.num_rows > 0
        d = str(base / f"shard{s}")
        build_index(ray.data.from_arrow(part), d, num_partitions=2,
                    query_lang="code", detect_hot=False)
        shard_dirs.append(d)
    return corpus, single_dir, shard_dirs


def test_sharded_equals_single_after_concurrent_inserts(sharded_env):
    corpus, single_dir, shard_dirs = sharded_env
    single = IndexServer(single_dir)
    writer = ShardedWriter(shard_dirs, name_prefix="t_shardw_a")
    try:
        rows = _rows(40)
        single.insert(rows)
        res = writer.insert(rows)
        # the batch must actually have split across BOTH primaries
        # (concurrent journals), not funnelled into one
        assert len(res["buffered_per_shard"]) == N_SHARDS
        assert all(v > 0 for v in res["buffered_per_shard"].values())
        # routing is the deterministic key hash
        for r in rows[:5]:
            assert writer._key_shard(r) == doc_id_from_key(
                r["repo"], r["path"], r["commit"]) % N_SHARDS

        single.flush()
        out = writer.flush()
        assert out["flushed"] == len(rows)
        # every shard cut its own delta that now federates
        assert len(writer.all_dirs()) == N_SHARDS * 2

        p = writer.ping()
        assert p["status"] == "ok" and p["n_shards"] == N_SHARDS
        assert p["n_docs"] == corpus.num_rows + len(rows)

        for q in make_queries(12, seed=5).to_pylist():
            got = writer.search(q["text"], int(q["k"]))
            want = single.search(q["text"], int(q["k"]))
            assert [h["doc_id"] for h in got] == [h["doc_id"] for h in want]
            assert [h["score"] for h in got] == pytest.approx(
                [h["score"] for h in want])
        # the inserted token is actually being served
        assert len(writer.search("zzyshardtoken", 10)) == 10
        # query kinds forward through the shared dispatch (not silently
        # degraded to bag-of-words): "and" parity vs the single primary
        for q in make_queries(6, seed=13).to_pylist():
            got = writer.search(q["text"], int(q["k"]), kind="and")
            want = single.search(q["text"], int(q["k"]), kind="and")
            assert [h["doc_id"] for h in got] == [h["doc_id"] for h in want]
            assert [h["score"] for h in got] == pytest.approx(
                [h["score"] for h in want])
        with pytest.raises(ValueError, match="unknown query kind"):
            writer.search("x", 3, kind="nope")
    finally:
        writer.shutdown()


def test_sharded_delete_parity(sharded_env):
    corpus, single_dir, shard_dirs = sharded_env
    single = IndexServer(single_dir)
    writer = ShardedWriter(shard_dirs, name_prefix="t_shardw_b")
    try:
        # tombstone 6 corpus docs (routed to their owning shards)
        victims = [
            {"repo": corpus.column("repo")[i].as_py(),
             "path": corpus.column("path")[i].as_py(),
             "commit": corpus.column("commit")[i].as_py()}
            for i in range(0, 12, 2)
        ]
        dels = writer.delete(victims)
        assert dels["deleted"] == len(victims)
        single.delete(victims)
        victim_ids = {doc_id_from_key(v["repo"], v["path"], v["commit"])
                      for v in victims}
        for q in make_queries(12, seed=9).to_pylist():
            got = writer.search(q["text"], int(q["k"]))
            want = single.search(q["text"], int(q["k"]))
            assert not ({h["doc_id"] for h in got} & victim_ids)
            assert [h["doc_id"] for h in got] == [h["doc_id"] for h in want]
            assert [h["score"] for h in got] == pytest.approx(
                [h["score"] for h in want])
    finally:
        writer.shutdown()


def test_sharded_writer_adoption_and_identity_guard(sharded_env, tmp_path):
    """A second facade over the same names ADOPTS the live primaries;
    a facade claiming different shard dirs under those names must fail
    loudly instead of writing into someone else's journal."""
    import ray.data

    corpus, single_dir, shard_dirs = sharded_env
    w1 = ShardedWriter(shard_dirs, name_prefix="t_shardw_c")
    try:
        w1.insert(_rows(4, start=8600))
        w2 = ShardedWriter(shard_dirs, name_prefix="t_shardw_c")
        # same actors: the second facade sees the first one's buffer
        assert w2.ping()["buffered_inserts"] == 4
        other = str(tmp_path / "other")
        build_index(ray.data.from_arrow(make_corpus(10, seed=77)), other,
                    num_partitions=1, query_lang="code", detect_hot=False)
        with pytest.raises(RuntimeError, match="serves"):
            ShardedWriter([other] * N_SHARDS, name_prefix="t_shardw_c")
    finally:
        w1.shutdown()


def test_reshard_two_to_three(sharded_env, tmp_path):
    """Compact-and-reshard: the 2-shard deployment (with per-shard
    deltas and tombstones) folds into 3 fresh shard bases partitioned
    by doc_id % 3; a new deployment over them serves identically."""
    import shutil

    corpus, single_dir, shard_dirs = sharded_env
    # work on COPIES: other tests in this module share sharded_env.
    # Drop any copied journal — earlier tests' live state (buffered
    # inserts, tombstones) is THEIR deployment's, not this one's; a
    # stale journal would replay into w_old and skew every count below
    work = []
    for i, d in enumerate(shard_dirs):
        c = str(tmp_path / f"src{i}")
        shutil.copytree(d, c)
        jp = os.path.join(c, "journal.jsonl")
        if os.path.exists(jp):
            os.unlink(jp)
        work.append(c)
    from donkey_ray.serve import reshard

    import time

    import ray

    queries = make_queries(10, seed=21).to_pylist()
    # phase 1 — drive the OLD deployment, capture expectations, then
    # shut it down BEFORE the new one starts: the 4-cpu test session
    # cannot host 2 old + 3 new num_cpus=1 primaries at once (pending
    # actors would deadlock every ray.get)
    w_old = ShardedWriter(work, name_prefix="t_reshard_old")
    try:
        rows = _rows(20, start=9500)
        w_old.insert(rows)
        w_old.flush()  # per-shard deltas now exist
        victims = [
            {"repo": corpus.column("repo")[i].as_py(),
             "path": corpus.column("path")[i].as_py(),
             "commit": corpus.column("commit")[i].as_py()}
            for i in range(4)
        ]
        w_old.delete(victims)
        tombs = set()
        for t in ray.get([p.tombstone_ids.remote()
                          for p in w_old._primaries]):
            tombs.update(t)
        assert tombs
        # rank expectations from the live (tombstone-filtered) old
        # deployment; its SCORES still include tombstoned docs in the
        # collection stats (the documented trade-off), so exact score
        # parity is asserted against a compacted single reference below
        want_ranks = {q["text"]: [h["doc_id"] for h in
                                  w_old.search(q["text"], int(q["k"]))]
                      for q in queries}
    finally:
        w_old.shutdown()
    time.sleep(0.5)  # killed actors free their CPUs asynchronously

    # single compacted reference: same members, same excludes, ONE index
    from donkey_ray.pipelines.incremental import merge_indexes
    from donkey_ray.serve import IndexServer as _IS
    from donkey_ray.stages.score import QueryEngine

    member_dirs = []
    for d in work:
        member_dirs.append(d)
        member_dirs.extend(_IS._existing_deltas(d))
    ref_dir = str(tmp_path / "ref_compact")
    merge_indexes(member_dirs, ref_dir, num_partitions=4,
                  exclude_doc_ids=tombs)
    ref = QueryEngine(ref_dir)

    new_dirs = reshard(work, 3, str(tmp_path / "resharded"),
                       exclude_doc_ids=tombs)
    assert len(new_dirs) == 3
    # membership: disjoint exact cover of the live corpus by % 3
    import glob

    import pyarrow.parquet as pq_

    per_shard_ids = []
    for s, d in enumerate(new_dirs):
        ids = set()
        for f in glob.glob(os.path.join(d, "docs", "*.parquet")):
            ids.update(pq_.read_table(
                f, columns=["doc_id"]).column("doc_id").to_pylist())
        assert ids, f"empty reshard output {d}"
        assert all(i % 3 == s for i in ids)
        per_shard_ids.append(ids)
    union = set().union(*per_shard_ids)
    assert len(union) == sum(len(x) for x in per_shard_ids)  # disjoint
    assert len(union) == corpus.num_rows + 20 - len(victims)

    # phase 2 — the NEW deployment ranks like the old one and scores
    # exactly like the compacted single reference
    w_new = ShardedWriter(new_dirs, name_prefix="t_reshard_new")
    try:
        for q in queries:
            got = w_new.search(q["text"], int(q["k"]))
            assert [h["doc_id"] for h in got] == want_ranks[q["text"]]
            exp = ref.topk(q["text"], int(q["k"]))
            assert [(h["doc_id"], h["score"]) for h in got] == (
                pytest.approx(exp))
        # tombstones are RESOLVED in the new deployment (no over-fetch
        # needed), not carried
        assert all(not ray.get(p.tombstone_ids.remote())
                   for p in w_new._primaries)
        # resharded deployment accepts further routed writes
        w_new.insert(_rows(6, start=9900))
        out = w_new.flush()
        assert out["flushed"] == 6
        assert len(w_new.search("zzyshardtoken", 5)) == 5
    finally:
        w_new.shutdown()



def test_reshard_guards(sharded_env, tmp_path):
    """The review-hardened reshard edges: unflushed journals raise,
    new_k < 1 raises, and a completed leftover from a DIFFERENT job at
    the same out_base raises instead of silently mis-covering."""
    import json
    import shutil

    from donkey_ray.serve import reshard

    corpus, single_dir, shard_dirs = sharded_env
    work = []
    for i, d in enumerate(shard_dirs):
        c = str(tmp_path / f"g{i}")
        shutil.copytree(d, c)
        jp = os.path.join(c, "journal.jsonl")
        if os.path.exists(jp):
            os.unlink(jp)
        work.append(c)

    with pytest.raises(ValueError, match="new_k"):
        reshard(work, 0, str(tmp_path / "zero"))

    # an unflushed buffered insert in a journal must refuse (the row
    # exists only there and would be silently dropped)
    with open(os.path.join(work[0], "journal.jsonl"), "w") as f:
        f.write(json.dumps({"repo": "r", "path": "p", "commit": "c",
                            "lang": "py", "content": "x"}) + "\n")
    with pytest.raises(ValueError, match="unflushed"):
        reshard(work, 2, str(tmp_path / "unflushed"))
    os.unlink(os.path.join(work[0], "journal.jsonl"))

    # journal-recorded deletes are collected automatically (no
    # exclude_doc_ids argument needed)
    victim = doc_id_from_key(corpus.column("repo")[0].as_py(),
                             corpus.column("path")[0].as_py(),
                             corpus.column("commit")[0].as_py())
    with open(os.path.join(work[0], "journal.jsonl"), "w") as f:
        f.write(json.dumps({"_op": "delete", "doc_ids": [victim]}) + "\n")
    out1 = reshard(work, 2, str(tmp_path / "auto_tombs"))
    import glob

    import pyarrow.parquet as pq_

    all_ids = set()
    for d in out1:
        for fpath in glob.glob(os.path.join(d, "docs", "*.parquet")):
            all_ids.update(pq_.read_table(
                fpath, columns=["doc_id"]).column("doc_id").to_pylist())
    assert victim not in all_ids
    assert len(all_ids) == corpus.num_rows - 1

    # a completed output of THAT job cannot be adopted by a different
    # one (different members here: only one input shard)
    with pytest.raises(ValueError, match="DIFFERENT reshard job"):
        reshard(work[:1], 2, str(tmp_path / "auto_tombs"))
    # same job, same out_base: idempotent resume, instant return
    assert reshard(work, 2, str(tmp_path / "auto_tombs")) == out1


def test_http_frontend_over_sharded_writer(sharded_env):
    """The HTTP write surface accepts a ShardedWriter facade in the
    ``primary`` slot: inserts route across K primaries over the wire,
    flush cuts K deltas, search serves the federated membership; the
    single-primary-only routes (/stats, /compact) answer 405."""
    import http.client
    import json as _json

    from donkey_ray.httpserve import start_http_frontend

    corpus, single_dir, shard_dirs = sharded_env

    def _http(port, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request(method, path,
                     _json.dumps(body) if body is not None else None,
                     {"Content-Type": "application/json"})
        r = conn.getresponse()
        out = _json.loads(r.read() or b"{}")
        conn.close()
        return r.status, out

    writer = ShardedWriter(shard_dirs, name_prefix="t_shardw_http")
    srv, port = start_http_frontend(primary=writer)
    try:
        code, ping = _http(port, "GET", "/ping")
        assert code == 200 and ping["n_shards"] == N_SHARDS
        # earlier tests in this module may have left journaled-but-
        # unflushed rows in the SHARED fixture dirs; fresh primaries
        # recover them by design, so count relative to that baseline
        pre = ping["buffered_inserts"]

        rows = _rows(12, start=9100)
        code, res = _http(port, "POST", "/insert", {"rows": rows})
        assert code == 200
        per_shard = res["buffered"]["buffered_per_shard"]
        assert len(per_shard) == N_SHARDS  # routed across BOTH primaries

        code, res = _http(port, "POST", "/flush", {})
        assert code == 200 and res["flushed"] == pre + 12

        code, res = _http(port, "POST", "/search",
                          {"text": "zzyshardtoken", "k": 5})
        assert code == 200 and len(res["hits"]) == 5

        qs = [[r["text"], int(r["k"])]
              for r in make_queries(4, seed=3).to_pylist()]
        code, res = _http(port, "POST", "/search_batch", {"queries": qs})
        assert code == 200 and len(res["results"]) == len(qs)

        code, _ = _http(port, "GET", "/stats")
        assert code == 405  # single-primary-only surface
        code, _ = _http(port, "POST", "/compact", {"out_dir": "/tmp/x"})
        assert code == 405

        victim = {"repo": rows[0]["repo"], "path": rows[0]["path"],
                  "commit": rows[0]["commit"]}
        code, res = _http(port, "POST", "/delete", {"keys": [victim]})
        assert code == 200 and res["deleted"] == 1
    finally:
        srv.shutdown()
        writer.shutdown()


def test_sharded_insert_atomic_rejection(sharded_env):
    """A batch with one invalid row must reject BEFORE any shard
    journals its sub-batch — a partial commit would make the client's
    whole-batch retry double-insert the committed rows."""
    corpus, single_dir, shard_dirs = sharded_env
    writer = ShardedWriter(shard_dirs, name_prefix="t_shardw_atomic")
    try:
        bad = _rows(8, start=9700)
        bad[5] = {"repo": "r", "path": "p", "commit": "c"}  # missing cols
        with pytest.raises(ValueError, match="missing columns"):
            writer.insert(bad)
        assert writer.ping()["buffered_inserts"] == 0  # nothing committed
        bad = _rows(8, start=9700)
        bad[3]["_op"] = "delete"
        with pytest.raises(ValueError, match="reserved"):
            writer.insert(bad)
        assert writer.ping()["buffered_inserts"] == 0
        # tombstone-reinsert pre-flights the shards' live tombstones
        rows = _rows(4, start=9700)
        writer.insert(rows)
        writer.flush()
        writer.delete([{k: rows[0][k] for k in ("repo", "path", "commit")}])
        with pytest.raises(ValueError, match="re-insert a deleted"):
            writer.insert([rows[0]] + _rows(2, start=9800))
        assert writer.ping()["buffered_inserts"] == 0
    finally:
        writer.shutdown()


def test_flush_clears_stale_journal_for_reshard(sharded_env, tmp_path):
    """Insert-then-delete before any flush leaves the insert lines in
    the journal with an empty buffer; flush() must rewrite the journal
    (not early-return past it) so reshard's unflushed-insert guard
    clears exactly as its error message prescribes."""
    import shutil

    from donkey_ray.serve import reshard

    corpus, single_dir, shard_dirs = sharded_env
    work = []
    for i, d in enumerate(shard_dirs):
        c = str(tmp_path / f"w{i}")
        shutil.copytree(d, c)
        jp = os.path.join(c, "journal.jsonl")
        if os.path.exists(jp):
            os.unlink(jp)
        work.append(c)
    srv = IndexServer(work[0])
    rows = _rows(3, start=9950)
    srv.insert(rows)
    srv.delete([{k: r[k] for k in ("repo", "path", "commit")}
                for r in rows])
    assert not srv._buffer  # deletes dropped the buffered inserts
    # journal still holds the insert lines -> reshard refuses
    with pytest.raises(ValueError, match="unflushed"):
        reshard(work, 2, str(tmp_path / "wedge"))
    out = srv.flush()
    assert out["flushed"] == 0  # nothing to flush, but journal rewritten
    dirs = reshard(work, 2, str(tmp_path / "wedge"))  # now succeeds
    assert len(dirs) == 2


# ---------------- vector-side twin: ShardedVectorWriter ----------------


def test_sharded_vector_writer_parity_and_atomicity(ray_session, tmp_path):
    """K vector primaries routed by vec_id % K answer IDENTICALLY to a
    single VectorServer holding the same vectors (cosine needs no
    cross-shard stats; nprobe=None probes every list = exact), inserts
    are two-phase atomic, deletes route, and compact_all folds each
    shard independently without breaking parity."""
    import numpy as np
    import ray.data

    from donkey_ray.pipelines.ivf import build_ivf_index
    from donkey_ray.serve import ShardedVectorWriter, VectorServer

    rng = np.random.default_rng(17)
    n, dim = 120, 8
    vecs = rng.standard_normal((n, dim))

    def _tbl(ids):
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([vecs[i % n].tolist() for i in ids],
                                  pa.list_(pa.float64())),
        })

    single_dir = str(tmp_path / "vsingle")
    build_ivf_index(ray.data.from_arrow(_tbl(list(range(n)))), single_dir,
                    num_partitions=2, n_lists=8)
    shard_dirs = []
    for s in range(2):
        d = str(tmp_path / f"vshard{s}")
        build_ivf_index(
            ray.data.from_arrow(_tbl([i for i in range(n) if i % 2 == s])),
            d, num_partitions=2, n_lists=8)
        shard_dirs.append(d)

    single = VectorServer(single_dir)
    w = ShardedVectorWriter(shard_dirs, name_prefix="t_vshard")
    try:
        # routed insert of fresh vectors (both sides get the same rows)
        new_ids = list(range(200, 230))
        rows = [{"vec_id": i, "embedding": vecs[i % n].tolist()}
                for i in new_ids]
        res = w.insert(rows)
        assert len(res["buffered_per_shard"]) == 2
        single.insert(rows)

        queries = rng.standard_normal((5, dim))
        got = w.search(queries, k=10)
        want = single.search(queries, k=10)
        assert [(r["query_id"], r["rank"], r["vec_id"]) for r in got] == \
            [(r["query_id"], r["rank"], r["vec_id"]) for r in want]
        assert [r["cos_sim"] for r in got] == pytest.approx(
            [r["cos_sim"] for r in want])

        # two-phase atomicity: one already-indexed id rejects the WHOLE
        # batch before any shard journals
        bad = [{"vec_id": 300, "embedding": vecs[0].tolist()},
               {"vec_id": 5, "embedding": vecs[5].tolist()}]  # 5 indexed
        with pytest.raises(Exception, match="already indexed"):
            w.insert(bad)
        assert w.ping()["n_buffered"] == len(new_ids)  # nothing added
        # malformed payloads reject in phase 1 too (no half-commit)
        bad = [{"vec_id": 301, "embedding": vecs[0].tolist()},
               {"vec_id": 302, "embedding": ["x"] * 8}]
        with pytest.raises(Exception, match="non-numeric"):
            w.insert(bad)
        assert w.ping()["n_buffered"] == len(new_ids)
        # None elements coerce to nan under np.asarray — phase 1 must
        # reject them too (a nan vector would pass pre-flight but
        # poison cosines), with nothing half-committed
        bad = [{"vec_id": 303, "embedding": vecs[0].tolist()},
               {"vec_id": 304,
                "embedding": [1.0, None] + [0.0] * 6}]
        with pytest.raises(Exception, match="non-finite"):
            w.insert(bad)
        assert w.ping()["n_buffered"] == len(new_ids)
        # wait=False still rejects SYNCHRONOUSLY, even single-shard
        with pytest.raises(Exception, match="already buffered"):
            w.insert([{"vec_id": new_ids[0],
                       "embedding": vecs[0].tolist()}], wait=False)
        # numpy-array embeddings are accepted (insert always took them)
        res_np = w.insert([{"vec_id": 400, "embedding": vecs[7]}])
        assert sum(res_np["buffered_per_shard"].values()) >= 1
        single.insert([{"vec_id": 400, "embedding": vecs[7]}])
        w.delete([400])
        single.delete([400])

        # routed delete, then parity again; n_deleted mirrors the
        # single primary's CUMULATIVE tombstone count
        got_del = w.delete([0, 1, 200, 201])
        want_del = single.delete([0, 1, 200, 201])
        assert got_del["n_deleted"] == want_del["n_deleted"] == 5
        got = w.search(queries, k=10)
        want = single.search(queries, k=10)
        assert [(r["query_id"], r["rank"], r["vec_id"]) for r in got] == \
            [(r["query_id"], r["rank"], r["vec_id"]) for r in want]

        # independent per-shard compaction keeps serving + parity
        outs = w.compact_all(str(tmp_path / "vcompact"))
        assert len(outs) == 2 and all(o["n_vecs"] > 0 for o in outs)
        p = w.ping()
        assert p["n_buffered"] == 0 and p["n_deleted"] == 0
        single.compact(str(tmp_path / "vsingle_compact"))
        got = w.search(queries, k=10)
        want = single.search(queries, k=10)
        assert [(r["query_id"], r["rank"], r["vec_id"]) for r in got] == \
            [(r["query_id"], r["rank"], r["vec_id"]) for r in want]
        assert [r["cos_sim"] for r in got] == pytest.approx(
            [r["cos_sim"] for r in want])
    finally:
        w.shutdown()


def test_http_frontend_over_sharded_vector_writer(ray_session, tmp_path):
    """The HTTP vector write slot also accepts the sharded facade:
    vinsert routes across K vector primaries over the wire, vsearch
    merges the fan-out, vping aggregates."""
    import http.client
    import json as _json

    import numpy as np
    import ray.data

    from donkey_ray.httpserve import start_http_frontend
    from donkey_ray.pipelines.ivf import build_ivf_index
    from donkey_ray.serve import ShardedVectorWriter

    rng = np.random.default_rng(23)
    vecs = rng.standard_normal((60, 8))
    shard_dirs = []
    for s in range(2):
        d = str(tmp_path / f"hv{s}")
        ids = [i for i in range(60) if i % 2 == s]
        build_ivf_index(ray.data.from_arrow(pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array([vecs[i].tolist() for i in ids],
                                  pa.list_(pa.float64())),
        })), d, num_partitions=1, n_lists=4)
        shard_dirs.append(d)

    def _http(port, method, path, body=None):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        conn.request(method, path,
                     _json.dumps(body) if body is not None else None,
                     {"Content-Type": "application/json"})
        r = conn.getresponse()
        out = _json.loads(r.read() or b"{}")
        conn.close()
        return r.status, out

    w = ShardedVectorWriter(shard_dirs, name_prefix="t_vshard_http")
    srv, port = start_http_frontend(vprimary=w)
    try:
        code, ping = _http(port, "GET", "/vping")
        assert code == 200 and ping["n_shards"] == 2

        rows = [{"vec_id": 100 + i, "embedding": vecs[i].tolist()}
                for i in range(6)]
        code, res = _http(port, "POST", "/vinsert", {"rows": rows})
        assert code == 200
        assert len(res["buffered"]["buffered_per_shard"]) == 2

        code, res = _http(port, "POST", "/vsearch",
                          {"vectors": [vecs[3].tolist()], "k": 5})
        assert code == 200 and len(res["hits"]) == 5
        assert res["hits"][0]["vec_id"] in (3, 103)  # exact self-match

        code, res = _http(port, "POST", "/vdelete", {"vec_ids": [100]})
        assert code == 200 and res["n_deleted"] == 1
    finally:
        srv.shutdown()
        w.shutdown()


def _fresh_copies(shard_dirs, tmp_path, tag):
    """Copies of the shard bases WITHOUT the shared fixture's journals
    (earlier tests' buffered rows and tombstones are not this test's)."""
    import shutil

    out = []
    for i, d in enumerate(shard_dirs):
        c = str(tmp_path / f"{tag}{i}")
        shutil.copytree(d, c)
        jp = os.path.join(c, "journal.jsonl")
        if os.path.exists(jp):
            os.unlink(jp)
        out.append(c)
    return out


def _post(port, path, body):
    import http.client
    import json as _json

    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    conn.request("POST", path, _json.dumps(body),
                 {"Content-Type": "application/json"})
    r = conn.getresponse()
    out = _json.loads(r.read() or b"{}")
    conn.close()
    return r.status, out


def test_sharded_delete_reports_deployment_total(sharded_env, tmp_path):
    """The delete response counts the WHOLE deployment's tombstones
    (like a single primary's), not just the shards the call touched."""
    corpus, single_dir, shard_dirs = sharded_env
    work = _fresh_copies(shard_dirs, tmp_path, "dc")
    keys = [{"repo": r["repo"], "path": r["path"], "commit": r["commit"]}
            for r in corpus.to_pylist()]
    by_shard = {}
    for k in keys:
        by_shard.setdefault(
            doc_id_from_key(k["repo"], k["path"], k["commit"]) % N_SHARDS, k)
    writer = ShardedWriter(work, name_prefix="t_shardw_delcount")
    try:
        assert writer.delete([by_shard[0]]) == {
            "deleted": 1, "n_tombstones": 1}
        assert writer.delete([by_shard[1]]) == {
            "deleted": 1, "n_tombstones": 2}
    finally:
        writer.shutdown()


def test_sharded_writer_adopts_across_path_spellings(sharded_env):
    """A facade over the ABSOLUTE spellings of the shard dirs adopts the
    primaries of a facade built over RELATIVE spellings of the same
    dirs (identity is compared by realpath, not as raw strings)."""
    corpus, single_dir, shard_dirs = sharded_env
    w1 = ShardedWriter([os.path.relpath(d) for d in shard_dirs],
                       name_prefix="t_shardw_paths")
    try:
        w2 = ShardedWriter([os.path.abspath(d) for d in shard_dirs],
                           name_prefix="t_shardw_paths")
        assert [p._actor_id for p in w2._primaries] == \
            [p._actor_id for p in w1._primaries]
        assert w2.ping()["status"] == "ok"
    finally:
        w1.shutdown()


def test_http_concurrent_insert_delete_never_half_commits(sharded_env,
                                                          tmp_path):
    """Concurrent /insert and /delete through the threaded HTTP frontend
    against a K=2 text facade: each delete races the insert of the batch
    holding its key. After a flush every acknowledged batch is present
    in full (minus rows whose delete was acknowledged) and no rejected
    batch is present at all."""
    import glob
    import sys
    import threading

    import pyarrow.parquet as pq_

    from donkey_ray.httpserve import start_http_frontend

    corpus, single_dir, shard_dirs = sharded_env
    work = _fresh_copies(shard_dirs, tmp_path, "race")
    n_batches = 8
    batches = [_rows(6, start=20000 + 10 * b) for b in range(n_batches)]
    writer = ShardedWriter(work, name_prefix="t_shardw_race")
    srv, port = start_http_frontend(primary=writer)
    inserted: dict = {}
    deleted: set = set()

    def do_insert(b):
        inserted[b] = _post(port, "/insert", {"rows": batches[b]})[0]

    def do_delete(b):
        r = batches[b][b % 6]
        key = {k: r[k] for k in ("repo", "path", "commit")}
        if _post(port, "/delete", {"keys": [key]})[0] == 200:
            deleted.add(doc_id_from_key(r["repo"], r["path"], r["commit"]))

    threads = [threading.Thread(target=f, args=(b,), daemon=True)
               for b in range(n_batches) for f in (do_delete, do_insert)]
    assert len(threads) > (os.cpu_count() or 1)
    old = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert set(inserted.values()) <= {200, 400}
        assert len(inserted) == n_batches
        writer.flush()
        present = set()
        for d in writer.all_dirs():
            for f in glob.glob(os.path.join(d, "docs", "*.parquet")):
                present.update(pq_.read_table(
                    f, columns=["doc_id"]).column("doc_id").to_pylist())
        for b, code in inserted.items():
            ids = {doc_id_from_key(r["repo"], r["path"], r["commit"])
                   for r in batches[b]}
            if code == 200:
                assert ids & present == ids - deleted, b
            else:
                assert not ids & present, b
    finally:
        srv.shutdown()
        writer.shutdown()
