"""Long-lived query serving (donkey analogue [PK]: the RPC service
``ping / insert / search / misc`` in api/ + src/service*, the insert
journal in src/, and the ``sync`` checkpoint — file-level, SURVEY.md
section 0 / section 2A A2/A3/A7/A8).

Re-grounded Ray-first: the server is a NAMED RAY ACTOR holding a
QueryEngine (sharded lazy dictionary — per-actor memory independent of
vocabulary). Donkey's online-insert surface maps to:

  insert(rows)  -> append to an in-memory buffer + durable JSONL journal
                   (donkey's WAL; replayed on actor restart = recover())
  delete(keys)  -> journaled tombstones; deleted docs vanish from search
                   immediately (exact over-fetch top-k) and are purged
                   from the index at the next compact()
  flush()       -> build a DELTA INDEX from the buffer (the standard
                   batch build pipeline), then re-open the engine
                   FEDERATED over base + deltas (exact BM25 over the
                   union corpus, no compaction needed)  [donkey 'sync']
  compact()     -> merge_indexes() all segments into one fresh index
                   [donkey 'misc reindex']
  search(text,k)-> engine.topk                              [A5/A6]
  ping()/stats()-> liveness + index metadata                [A7]

PRECONDITION (same as pipelines/incremental.py): inserted docs must be
NEW (repo, path, commit) keys — doc_ids are derived from that key, and
a duplicate would double-count postings across federated members.

Journal (``state/journal.py``; ``journal.jsonl`` per text primary,
``vjournal.jsonl`` per vector primary): one JSON line per call, fsynced
before the call returns. An insert call is ONE record
``{"_op": "insert", "rows": [...]}`` — a batch replays whole or not at
all — and a delete call is ``{"_op": "delete", "doc_ids" | "vec_ids":
[...]}``. Bare per-row lines from older journals still replay. Torn
tail: a crash can only tear the last line, so recovery drops a last
line that lacks its newline or fails to parse (the client never saw
that call acknowledged) and truncates it before the next append; a bad
line anywhere earlier raises.

Scale shape: one server actor per index replica; the actor itself holds
only LRU caches (no full dictionary), so replicas are cheap.
``ServeRouter`` is the multi-replica front: round-robin + failover over
N named read replicas with chunked batch fan-out (aggregate q/s scales
near-linearly with replicas — BENCH/bench_s17_serving.json).
"""

from __future__ import annotations

import functools
import os
import threading

import ray

from .stages.score import _engine_topk
from .state import journal
from .state import manifest as mf


# Soft tombstone bound: search over-fetches k + |tombstones|, so a
# long-uncompacted server degrades linearly with deletes. Past this
# count ping()/stats() raise needs_compact; servers constructed with
# auto_compact_tombstones=N compact themselves at N instead.
TOMBSTONE_WARN = 4096


class ReplicaUnavailable(RuntimeError):
    """A replica slot could not resolve to a live actor right now
    (dead name still registered, lost create races). Routers treat it
    as a failover signal, never a query failure."""


def _next_compact_dir(base: str) -> str:
    """First unused ``<base>_compact_N`` sibling (auto-compact target)."""
    i = 0
    while os.path.exists(f"{base}_compact_{i}"):
        i += 1
    return f"{base}_compact_{i}"


def _adopt_or_spawn(name: str, expect_dir: str, spawn, *, role: str):
    """Get-or-create a named serving actor — the ONE adopt-by-name
    discipline for replicas, routers, frontends and sharded primaries.
    A name that is registered but dying is waited out, a lost create
    race adopts the winner, and an adopted actor must serve
    ``expect_dir`` (its ``ping()["index_dir"]``; paths compared by
    realpath, so relative and absolute spellings of one dir agree) — a
    name collision fails loudly instead of silently serving (or
    journaling into) the wrong index."""
    import time as _time

    for _ in range(10):  # a killed actor's name frees asynchronously
        try:
            cand = ray.get_actor(name)
        except ValueError:
            cand = None
        if cand is not None:
            try:
                served = ray.get(cand.ping.remote()).get("index_dir")
            except ray.exceptions.RayActorError:
                _time.sleep(0.2)  # registered but dead: wait it out
                continue
            if served is None or (os.path.realpath(served)
                                  != os.path.realpath(expect_dir)):
                raise RuntimeError(
                    f"named {role} {name!r} serves {served!r}, not "
                    f"{expect_dir!r}; pick another name or shut the old "
                    "deployment down")
            return cand
        try:
            return spawn(name)
        except ValueError:  # lost a create race: adopt next round
            continue
    # a failover signal for routers, NOT a terminal error: other
    # replicas may be healthy, so callers route around this slot
    raise ReplicaUnavailable(f"could not (re)create {role} {name!r}")


def _start(cls, name: str, index_dir: str, *, num_cpus: float = 1,
           detached: bool = False, spread: bool = False, **kwargs):
    """Get-or-create the named ``cls(index_dir, **kwargs)`` actor via
    ``_adopt_or_spawn``. ``spread`` puts each actor of a pool on its own
    node of a real cluster (no-op single-node)."""
    opts = {"num_cpus": num_cpus}
    if detached:
        opts["lifetime"] = "detached"
    if spread:
        opts["scheduling_strategy"] = "SPREAD"
    return _adopt_or_spawn(
        name, index_dir,
        lambda nm: ray.remote(cls).options(name=nm, **opts).remote(
            index_dir, **kwargs),
        role=cls.__name__)


def _serialized(method):
    """Run a primary's write method under its ``_write_lock``."""
    @functools.wraps(method)
    def locked(self, *args, **kwargs):
        with self._write_lock:
            return method(self, *args, **kwargs)
    return locked


class _Journaled:
    """The write-ahead discipline both primaries share: every mutation
    is ONE journal record, fsynced and then applied by the same
    ``_apply`` that replays it, so pre- and post-restart state cannot
    diverge. Recovery only reads the journal; a torn tail is cut before
    this server's first append, so read replicas opened over a live
    primary's dir never truncate the file it is appending to.

    ``insert``, ``delete``, ``flush`` and ``compact`` run under one
    reentrant write lock (``delete``'s auto-compact calls ``compact``):
    an in-process primary behind the threaded HTTP frontend must not
    clear, under a running flush or compact, a write acknowledged after
    that flush or compact took its snapshot. Searches do not take it.
    (A Ray actor runs one call at a time anyway.)"""

    _journal_path: str
    _tail_checked = False
    _tombstones: set
    auto_compact_tombstones: "int | None"

    def __init__(self) -> None:
        self._write_lock = threading.RLock()

    def _apply(self, rec: dict) -> None:
        raise NotImplementedError

    def _commit(self, rec: dict) -> None:
        if not self._tail_checked:
            journal.replay(self._journal_path, truncate=True)
            self._tail_checked = True
        journal.append(self._journal_path, rec)
        self._apply(rec)

    def _replay(self) -> None:
        for rec in journal.replay(self._journal_path):
            self._apply(rec)

    def _needs_compact(self) -> bool:
        """Soft tombstone bound: ``auto_compact_tombstones`` when set,
        else TOMBSTONE_WARN."""
        bound = (self.auto_compact_tombstones
                 if self.auto_compact_tombstones is not None
                 else TOMBSTONE_WARN)
        return len(self._tombstones) >= bound

    def _maybe_auto_compact(self, base_dir: str) -> None:
        if (self.auto_compact_tombstones is not None
                and len(self._tombstones) >= self.auto_compact_tombstones):
            self.compact(_next_compact_dir(base_dir))


class IndexServer(_Journaled):
    """Serving state for one index (plus its delta chain). Wrap with
    ``ray.remote`` (see ``start_server``) or use in-process for tests.

    ``auto_compact_tombstones``: when set, a ``delete`` that pushes the
    tombstone count to this threshold triggers ``compact`` into a fresh
    sibling directory (``<base>_compact_N``) automatically, bounding the
    over-fetch cost of sustained deletes; when None (default — artifact
    locations stay caller-controlled), ``ping()['needs_compact']`` warns
    past TOMBSTONE_WARN instead."""

    CORPUS_COLS = ("repo", "path", "commit", "lang", "content")

    def __init__(self, index_dir: str, *, mode: str = "auto",
                 auto_compact_tombstones: "int | None" = None) -> None:
        from .stages.score import QueryEngine

        super().__init__()
        self.base_dir = index_dir
        self.mode = mode
        self.auto_compact_tombstones = auto_compact_tombstones
        self._dirs = [index_dir] + self._existing_deltas(index_dir)
        self.engine = QueryEngine(self._dirs, mode=mode)
        self._buffer: list[dict] = []
        self._tombstones: set[int] = set()
        self._journal_path = os.path.join(index_dir, "journal.jsonl")
        self._recover()

    # ---- donkey A3: journal + recover ----
    def _apply(self, rec: dict) -> None:
        """A delete also drops earlier buffered inserts of the doc."""
        if rec["_op"] == "delete":
            self._apply_delete(rec["doc_ids"])
        else:
            self._buffer.extend(rec["rows"])

    def _recover(self) -> None:
        self._replay()
        if self._buffer and len(self._dirs) > 1:
            # crash window: a flush's delta completed but the journal
            # rewrite didn't — replayed inserts already in a delta
            # member must not be re-flushed (double-counted postings).
            # Deltas are small by construction, so reading their doc_id
            # columns on this rare path is cheap; the BASE is never
            # scanned (colliding with it violates the insert contract).
            import glob as _glob

            import pyarrow.parquet as _pq

            from .functions.hashing import doc_id_from_key

            existing: set[int] = set()
            for d in self._dirs[1:]:
                for p in _glob.glob(os.path.join(d, "docs", "*.parquet")):
                    existing.update(
                        _pq.read_table(p, columns=["doc_id"])
                        .column("doc_id").to_pylist()
                    )
            if existing:
                self._buffer = [
                    r for r in self._buffer
                    if doc_id_from_key(r["repo"], r["path"], r["commit"])
                    not in existing
                ]

    @staticmethod
    def _existing_deltas(index_dir: str) -> list[str]:
        out = []
        i = 0
        while True:
            d = f"{index_dir}_delta_{i}"
            if not mf.is_complete(d):
                break
            out.append(d)
            i += 1
        return out

    # ---- donkey A7 surface ----
    def ping(self) -> dict:
        return {
            "status": "ok",
            "index_dir": self.base_dir,
            "n_docs": self.engine.n_docs,
            "n_indexes": len(self._dirs),
            "buffered_inserts": len(self._buffer),
            "n_deleted": len(self._tombstones),
            "needs_compact": self._needs_compact(),
        }

    def stats(self) -> dict:
        return {
            "index_dirs": list(self._dirs),
            "n_docs": self.engine.n_docs,
            "avgdl": self.engine.avgdl,
            "query_lang": self.engine.query_lang,
            "lang_stats": self.engine.lang_stats,
            "buffered_inserts": len(self._buffer),
            "n_deleted": len(self._tombstones),
        }

    def search(self, text: str, k: int = 10, *, kind: str = "topk",
               window: int = 4, neg_text: str = "", min_match: int = 1,
               boosts: "dict[str, float] | None" = None) -> list[dict]:
        """kind: "topk" (bag-of-words BM25; pass ``boosts`` for term^w
        query-time weighting), "and" (conjunctive BM25 via posting-list
        intersection), "msm" (>= ``min_match`` distinct terms), "not"
        (positive scoring excluding docs containing any ``neg_text``
        term), "prefix" (wildcard expansion over the dictionary),
        "bool" (nested AND/OR/NOT expression DSL),
        "phrase" (exact positional phrase), "near" (proximity within
        ``window``) or "sloppy" (slop-scored phrase, slop = ``window``);
        these last need every federated member built with
        positions=True.

        Tombstoned docs (``delete``) are filtered out EXACTLY: the
        engine is over-fetched by the tombstone count (deleted docs can
        occupy at most that many of the top slots), so results are
        always the true top-k of the live corpus. Serving cost grows
        with the tombstone count until ``compact`` resolves them."""
        fetch_k = k + len(self._tombstones)
        hits = _engine_topk(self.engine, text, fetch_k, kind=kind,
                            window=window, neg_text=neg_text,
                            min_match=min_match, boosts=boosts)
        if self._tombstones:
            hits = [(d, s) for d, s in hits if d not in self._tombstones][:k]
        return [
            {"rank": r, "doc_id": d, "score": s}
            for r, (d, s) in enumerate(hits, start=1)
        ]

    def search_many(self, queries: list[tuple[str, int]], *,
                    kind: str = "topk", window: int = 4) -> list[list[dict]]:
        return [self.search(text, k, kind=kind, window=window)
                for text, k in queries]

    # ---- donkey A2: insert (buffered + journaled) ----
    def validate_new(self, rows: list[dict]) -> bool:
        """EVERY insert-time check WITHOUT journaling — ``insert``'s
        first step and the sharded writer's phase-1 pre-flight."""
        from .functions.hashing import doc_id_from_key

        for r in rows:
            missing = [c for c in self.CORPUS_COLS if c not in r]
            if missing:
                raise ValueError(f"insert row missing columns {missing}")
            if "_op" in r:
                # reserved journal key: a row carrying _op would be
                # replayed as an OPERATION (e.g. a delete) on recover,
                # silently diverging pre- vs post-restart state
                raise ValueError("insert rows must not carry the "
                                 "reserved '_op' key")
            if self._tombstones and doc_id_from_key(
                r["repo"], r["path"], r["commit"]
            ) in self._tombstones:
                raise ValueError(
                    "cannot re-insert a deleted (repo, path, commit) key "
                    "before compact() resolves its tombstone"
                )
        return True

    @_serialized
    def insert(self, rows: list[dict]) -> int:
        self.validate_new(rows)
        self._commit({"_op": "insert", "rows": rows})
        return len(self._buffer)

    # ---- online delete: tombstones, resolved at compact() ----
    def _apply_delete(self, doc_ids: list[int]) -> None:
        from .functions.hashing import doc_id_from_key

        idset = set(int(i) for i in doc_ids)
        if self._buffer:
            self._buffer = [
                r for r in self._buffer
                if doc_id_from_key(r["repo"], r["path"], r["commit"])
                not in idset
            ]
        self._tombstones |= idset

    @_serialized
    def delete(self, keys: "list[dict] | list[int]") -> dict:
        """Tombstone docs by (repo, path, commit) key or raw doc_id.
        Journaled (replayed in order on recover); deleted docs vanish
        from search immediately (exact top-k over the live corpus), and
        buffered-but-unflushed inserts of the same key are dropped.
        Collection statistics (df, avgdl) still include tombstoned docs
        until ``compact`` rewrites the index without them — the standard
        tombstone trade-off."""
        from .functions.hashing import doc_id_from_key

        ids = [
            int(kk) if isinstance(kk, int)
            else doc_id_from_key(kk["repo"], kk["path"], kk["commit"])
            for kk in keys
        ]
        self._commit({"_op": "delete", "doc_ids": ids})
        self._maybe_auto_compact(self.base_dir)
        return {"deleted": len(ids), "n_tombstones": len(self._tombstones)}

    def tombstone_ids(self) -> list[int]:
        """Live tombstones, for federated / sharded readers that must
        filter exactly like this primary's own search path does."""
        return sorted(self._tombstones)

    def _rewrite_journal_tombstones_only(self) -> None:
        """Rewrite the journal to exactly the live tombstone set (the
        buffer is empty / just flushed). ATOMIC instead of
        unlink-then-append: a crash between those two steps would
        permanently lose deletes."""
        journal.rewrite(self._journal_path, [
            {"_op": "delete", "doc_ids": sorted(self._tombstones)}
        ] if self._tombstones else [])

    # ---- donkey A8: sync -> delta index build + federated reopen ----
    @_serialized
    def flush(self, *, num_partitions: int = 4) -> dict:
        from .pipelines.build import build_index
        from .stages.score import QueryEngine

        if not self._buffer:
            # an empty buffer can still leave STALE insert lines in the
            # journal (insert-then-delete before any flush; the
            # _recover crash window where replayed rows were already in
            # a delta): rewrite it to the live state so offline journal
            # readers — reshard's unflushed-insert guard — see the
            # truth, and "flush every primary" actually clears the
            # condition instead of wedging it (review finding)
            self._rewrite_journal_tombstones_only()
            return {"flushed": 0, "n_indexes": len(self._dirs)}
        import pyarrow as pa
        import ray.data

        cols = {
            c: pa.array([r[c] for r in self._buffer], pa.string())
            for c in self.CORPUS_COLS
        }
        delta_dir = f"{self.base_dir}_delta_{len(self._dirs) - 1}"
        if os.path.exists(delta_dir):
            # ANY pre-existing dir at this name — partial OR complete —
            # was cut from a DIFFERENT buffer snapshot (a dir here is by
            # construction not a federated member: a successful flush
            # appends to _dirs, bumping the next delta's name). A
            # crashed build's resume markers would silently drop rows
            # inserted since; a COMPLETE leftover (an earlier flush
            # whose federated-reopen validation failed) would make
            # build_index no-op and this flush silently lose every row
            # inserted after it (review finding). Start clean.
            import shutil

            shutil.rmtree(delta_dir)
        build_index(
            ray.data.from_arrow(pa.table(cols)),
            delta_dir,
            num_partitions=num_partitions,
            query_lang=self.engine.query_lang,
            # deltas must tokenize exactly like the base index
            analyzer_lang=self.engine.meta.get("analyzer_lang"),
            detect_hot=False,  # deltas are small; salting buys nothing
            # a positional base must stay phrase-servable after flush:
            # every federated member needs positions
            positions=bool(self.engine.meta.get("positions")),
        )
        # validate the federated reopen BEFORE touching buffer/journal:
        # if the new delta cannot federate with the existing members
        # (incompatible meta), the error must leave the server state —
        # buffered rows, WAL — fully intact, not half-flushed
        new_dirs = self._dirs + [delta_dir]
        new_engine = QueryEngine(new_dirs, mode=self.mode)
        n = len(self._buffer)
        self._buffer.clear()
        # tombstones outlive the flushed buffer
        self._rewrite_journal_tombstones_only()
        self._dirs = new_dirs
        self.engine = new_engine
        return {"flushed": n, "delta_dir": delta_dir,
                "n_indexes": len(self._dirs), "n_docs": self.engine.n_docs}

    # ---- donkey 'misc reindex': compaction (resolves tombstones) ----
    @_serialized
    def compact(self, out_dir: str, *, num_partitions: int = 16) -> dict:
        from .pipelines.incremental import merge_indexes
        from .stages.score import QueryEngine

        meta = merge_indexes(
            self._dirs, out_dir, num_partitions=num_partitions,
            exclude_doc_ids=self._tombstones or None,
        )
        self._dirs = [out_dir]
        self.base_dir = out_dir
        self._journal_path = os.path.join(out_dir, "journal.jsonl")
        self._tombstones.clear()
        if self._buffer:
            # unflushed inserts must stay durable under the new journal
            journal.append(self._journal_path,
                           {"_op": "insert", "rows": list(self._buffer)})
        self.engine = QueryEngine(self._dirs, mode=self.mode)
        return meta


def start_server(
    index_dir: str,
    *,
    name: str = "donkey_index_server",
    mode: str = "auto",
    detached: bool = False,
) -> "ray.actor.ActorHandle":
    """Start (or get) the named serving actor; an adopted one must
    serve ``index_dir``. Ray must already be initialised by the caller
    (CLI / driver) — never here."""
    return _start(IndexServer, name, index_dir, detached=detached, mode=mode)


class ServeRouter:
    """Round-robin load balancer over N IndexServer READ replicas — the
    cluster-story front donkey's A7 service implies (VERDICT r2 item 2).
    One router actor owns N named replica actors over the same immutable
    index artifact; queries round-robin across healthy replicas, a
    replica failure (RayActorError) triggers failover to the next one
    and an async respawn under the same name. Writes are deliberately
    NOT routed: replicas serve a read-only artifact; online mutation
    goes through a single designated IndexServer (the primary), and a
    flushed/compacted artifact is rolled out by starting a new router
    over the new dir.

    Scale shape: replicas hold only LRU caches (IndexServer state is
    O(cache), not O(index)), so N replicas cost N small heaps; on a real
    cluster each lands on a different node via Ray scheduling, and
    aggregate q/s scales with N (bench.py --serving-replicas measures
    exactly that on one node). Wrap with ``ray.remote`` via
    ``start_router`` or drive in-process for tests."""

    def __init__(self, index_dir: str, *, n_replicas: int = 2,
                 mode: str = "auto",
                 name_prefix: str = "donkey_replica",
                 rr_offset: int = 0) -> None:
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        self.index_dir = index_dir
        self.mode = mode
        self.n_replicas = n_replicas
        self.name_prefix = name_prefix
        self._replicas: list = [None] * n_replicas
        # rr_offset staggers the round-robin start so M FRONTENDS over
        # one shared pool (start_frontends) don't all hit replica 0 in
        # lockstep
        self._rr = rr_offset % n_replicas
        for i in range(n_replicas):
            self._ensure_replica(i)

    # ---- subclass hooks (VectorRouter reuses the pool machinery) ----
    def _spawn_replica(self, name: str):
        return (
            ray.remote(IndexServer)
            # SPREAD: on a multi-node cluster each replica lands on its
            # own node (own memory bus — the serving scaling analysis in
            # BENCH/BASELINE.md); no-op single-node
            .options(name=name, num_cpus=1, scheduling_strategy="SPREAD")
            .remote(self.index_dir, mode=self.mode)
        )

    def _ensure_replica(self, i: int):
        """Get-or-create the i-th named replica actor (respawn path),
        through the shared identity-checked ``_adopt_or_spawn``."""
        if self._replicas[i] is None:
            self._replicas[i] = _adopt_or_spawn(
                f"{self.name_prefix}_{i}", self.index_dir,
                self._spawn_replica, role="replica")
        return self._replicas[i]

    def _next_replica(self):
        """(index, handle) of the next resolvable replica in round-robin
        order; raises ReplicaUnavailable only when EVERY slot fails."""
        last: "Exception | None" = None
        for _ in range(self.n_replicas):
            i = self._rr % self.n_replicas
            self._rr += 1
            try:
                return i, self._ensure_replica(i)
            except ReplicaUnavailable as e:
                last = e
        raise ReplicaUnavailable("no replica could be resolved") from last

    def ping(self) -> dict:
        """Aggregate health: per-replica ok/dead plus index stats from
        the first healthy replica. ``n_docs`` falls back to the vector
        pool's ``n_indexed`` so VectorRouter health is never null."""
        states = []
        detail = None
        for i in range(self.n_replicas):
            try:
                p = ray.get(self._ensure_replica(i).ping.remote())
                states.append("ok")
                detail = detail or p
            except Exception:
                states.append("dead")
        d = detail or {}
        return {"status": "ok" if "ok" in states else "down",
                "replicas": states,
                "index_dir": self.index_dir,
                "n_docs": d.get("n_docs", d.get("n_indexed"))}

    def search(self, text: str, k: int = 10, **kwargs) -> list[dict]:
        """One query to the next replica in round-robin order; a dead
        replica fails over to the following one (and is respawned by
        name) — the call only raises when EVERY replica is down. One
        extra attempt beyond the replica count lets a single-replica
        router recover in the same call: the first failure unmasks the
        stale handle, the retry respawns it."""
        last_err: Exception | None = None
        for _ in range(self.n_replicas + 1):
            i = self._rr % self.n_replicas
            self._rr += 1
            try:
                h = self._ensure_replica(i)
            except ReplicaUnavailable as e:
                last_err = e  # this slot is stuck; try the next one
                continue
            try:
                return ray.get(h.search.remote(text, k, **kwargs))
            except ray.exceptions.RayTaskError:
                raise  # application error: same on every replica
            except ray.exceptions.RayActorError as e:
                last_err = e
                self._replicas[i] = None  # force a respawn next time
        raise RuntimeError(
            f"all {self.n_replicas} replicas failed") from last_err

    def search_many(self, queries: "list[tuple[str, int]]", *,
                    kind: str = "topk", window: int = 4,
                    chunk_size: int = 64) -> list[list[dict]]:
        """Fan a query batch across ALL replicas concurrently (contiguous
        chunks round-robined over replicas, results re-assembled in
        request order) — the aggregate-throughput path the scaling bench
        drives. One actor call per CHUNK, not per query: driver-side
        submission cost is O(n/chunk_size), so the driver never becomes
        the serving bottleneck. A chunk whose replica dies mid-flight
        fails over through the single-query path."""
        chunks = [queries[i:i + chunk_size]
                  for i in range(0, len(queries), chunk_size)]
        futs = []
        for ci, chunk in enumerate(chunks):
            i, h = self._next_replica()
            futs.append((i, h.search_many.remote(
                chunk, kind=kind, window=window)))
        out: list = []
        for ci, (i, f) in enumerate(futs):
            try:
                out.extend(ray.get(f))
            except ray.exceptions.RayActorError:
                self._replicas[i] = None
                out.extend(self.search(text, k, kind=kind, window=window)
                           for text, k in chunks[ci])
        return out

    def search_many_digest(self, queries: "list[tuple[str, int]]", *,
                           kind: str = "topk", window: int = 4,
                           chunk_size: int = 64) -> dict:
        """``search_many`` with result marshalling ON THIS FRONTEND:
        every hit is consumed here (order-independent checksum over
        (rank, doc_id) plus hit/query counts) and only the tiny digest
        crosses back to the caller. This is the production shape — a
        client-facing frontend serializes its own responses (to its own
        network socket), so no central coordinator deserializes every
        result batch; it is what removes the single-actor dispatch
        funnel the round-3 serving scaling measured (VERDICT r3 item
        1). The checksum lets a bench assert the full result stream was
        produced and identical across frontend counts."""
        outs = self.search_many(queries, kind=kind, window=window,
                                chunk_size=chunk_size)
        n_hits = 0
        acc = 0
        for hits in outs:
            n_hits += len(hits)
            for h in hits:
                # order-independent: sum of per-hit terms, bounded
                acc = (acc + (h["rank"] * 2654435761
                              + (h["doc_id"] % 1000003))) % (1 << 61)
        return {"n_queries": len(outs), "n_hits": n_hits,
                "checksum": acc}

    def shutdown(self) -> None:
        for i, h in enumerate(self._replicas):
            if h is not None:
                try:
                    ray.kill(h)
                except Exception:
                    pass
            self._replicas[i] = None


def start_router(
    index_dir: str,
    *,
    n_replicas: int = 2,
    name: str = "donkey_router",
    mode: str = "auto",
    detached: bool = False,
) -> "ray.actor.ActorHandle":
    """Start (or get) the named router actor over ``n_replicas`` read
    replicas. Ray must already be initialised by the caller. An ADOPTED
    pre-existing router (same name) must serve THIS index_dir, so a
    stale (e.g. detached) router over a different index fails loudly
    instead of silently answering from the wrong artifact."""
    return _start(ServeRouter, name, index_dir, num_cpus=0.5,
                  detached=detached, n_replicas=n_replicas, mode=mode,
                  name_prefix=f"{name}_replica")


def start_frontends(
    index_dir: str,
    *,
    n_replicas: int = 2,
    n_frontends: int = 2,
    name: str = "donkey_router",
    mode: str = "auto",
    frontend_cpus: float = 1.0,
    detached: bool = False,
    router_cls: type = ServeRouter,
) -> "list[ray.actor.ActorHandle]":
    """M STATELESS router frontends over ONE shared named-replica pool
    — the multi-frontend serving shape (VERDICT r3 item 1). Frontend j
    is a named router actor ``{name}_f{j}``; all M share the replica
    name_prefix ``{name}_replica``, so whichever frontend constructs
    first CREATES the replicas and the rest ADOPT them by name (the
    create-race and wrong-index guards in ``_adopt_or_spawn`` make this
    safe), with staggered round-robin offsets so they don't sweep the
    pool in lockstep. Clients hash or round-robin across frontends;
    each frontend fans its queries over ALL replicas and marshals its
    own results (``search_many_digest``), so no single actor serializes
    the full result stream. A replica killed under one frontend is
    respawned by either and re-adopted by the other (failover pytest).

    Frontends are stateless by construction (a router holds only
    handles), so any number can be added/removed at runtime; replicas
    are the stateful-but-cheap side (LRU caches only). Pass
    ``router_cls=VectorRouter`` for the vector pool."""
    if n_frontends < 1:
        raise ValueError("n_frontends must be >= 1")
    kwargs = {"mode": mode} if router_cls is ServeRouter else {}
    return [_start(router_cls, f"{name}_f{j}", index_dir,
                   num_cpus=frontend_cpus, detached=detached,
                   n_replicas=n_replicas, name_prefix=f"{name}_replica",
                   rr_offset=j, **kwargs)
            for j in range(n_frontends)]


def stop_frontends(handles: "list", *, kill_replicas: bool = True) -> None:
    """Tear down a ``start_frontends`` deployment: the shared replica
    pool is shut down through exactly ONE frontend (they all hold the
    same named replicas — M shutdowns would race), then every frontend
    actor is killed."""
    if kill_replicas and handles:
        try:
            ray.get(handles[0].shutdown.remote())
        except Exception:
            pass
    for h in handles:
        try:
            ray.kill(h)
        except Exception:
            pass


class _ShardedFacade:
    """K hash-partitioned primaries behind ONE write surface — the
    shared base of ``ShardedWriter`` (text) and ``ShardedVectorWriter``
    (vector). Each shard is a full primary (journal, buffer, tombstones)
    over its OWN dir, so K journal fsyncs run in parallel. A row routes
    by ``_key(row) % K``, a deterministic content-independent key, so it
    lands on the same primary whichever client or frontend accepted it,
    and inserts and deletes of one key always meet the same journal.
    Shard count is a deployment constant (change it by resharding).

    Primaries are named actors created through ``_adopt_or_spawn``
    (SPREAD-scheduled, so a real cluster puts each on its own node); any
    number of facades can be built over one deployment.

    Insert is two-phase: every touched shard runs ``validate_new`` on
    its sub-batch (no journaling) and only when ALL accept do the
    journaled inserts fan out, so a rejected batch leaves nothing
    half-committed for a client's whole-batch retry to double-insert.
    The facade lock serializes THIS facade's callers (the HTTP
    frontend's threads) across both phases and against deletes.
    Writers going through SEPARATE facades are uncoordinated: route a
    deployment's writes through one facade, or accept that a
    cross-facade race can half-commit, like any two writers without a
    transaction layer."""

    _server: type  # the primary actor class
    _count_key: str  # the primary's delete-response tombstone count
    _ping_sums: "tuple[str, ...]"  # ping fields summed across shards

    def __init__(self, shard_dirs: "list[str]", *, name_prefix: str,
                 **server_kwargs) -> None:
        if not shard_dirs:
            raise ValueError("need at least one shard dir")
        self.shard_dirs = list(shard_dirs)
        self.name_prefix = name_prefix
        self._lock = threading.Lock()
        # absolute: a relative dir means THIS process's cwd, not the
        # actor's
        self._primaries = [
            _start(self._server, f"{name_prefix}_{i}", os.path.abspath(d),
                   spread=True, **server_kwargs)
            for i, d in enumerate(self.shard_dirs)
        ]

    def _key(self, item) -> int:
        raise NotImplementedError

    @property
    def n_shards(self) -> int:
        return len(self._primaries)

    def shard_of(self, key: int) -> int:
        return int(key) % self.n_shards

    def _key_shard(self, item) -> int:
        return self.shard_of(self._key(item))

    def _route(self, items: list) -> "list[tuple[int, list]]":
        """(shard, sub-batch) for every shard the items touch."""
        groups: list[list] = [[] for _ in range(self.n_shards)]
        for x in items:
            try:
                groups[self._key_shard(x)].append(x)
            except (KeyError, TypeError) as e:
                raise ValueError(
                    f"cannot route {x!r}: missing or bad key {e}") from None
        return [(i, g) for i, g in enumerate(groups) if g]

    @staticmethod
    def _pings(primaries: list) -> "list[dict]":
        """Parallel ping fan-out (one round-trip, not K serial ones);
        a dead shard answers ``{"status": "dead"}``."""
        refs = [p.ping.remote() for p in primaries]
        out = []
        for r in refs:
            try:
                out.append(ray.get(r))
            except Exception:
                out.append({"status": "dead"})
        return out

    def insert(self, rows: list[dict], *, wait: bool = True) -> dict:
        """Two-phase routed insert (see the class docstring); the
        per-shard sub-batches journal CONCURRENTLY. ``wait=False``
        returns the in-flight refs instead of the buffered counts so a
        streaming client can pipeline batches (validation is still
        synchronous; per-shard order is the actor task queue); gather
        the refs before relying on durability."""
        with self._lock:
            live = self._route(rows)
            ray.get([self._primaries[i].validate_new.remote(g)
                     for i, g in live])
            refs = [self._primaries[i].insert.remote(g) for i, g in live]
            if not wait:
                return {"inserted": len(rows), "refs": refs}
            buffered = ray.get(refs)
        return {"inserted": len(rows),
                "buffered_per_shard": {i: b for (i, _), b
                                       in zip(live, buffered)}}

    def delete(self, keys: list) -> dict:
        """Routed delete under the facade lock (an unlocked delete
        could journal a tombstone between another caller's insert
        phases). The tombstone count mirrors the single primary's: the
        CUMULATIVE live count of the whole deployment — the touched
        shards' counts come from the delete round itself, the untouched
        ones are pinged. A dead shard's count is unknown, so it is
        reported as ``shards_unreachable`` instead of summed as zero."""
        with self._lock:
            touched = self._route(keys)
            outs = ray.get([self._primaries[i].delete.remote(g)
                            for i, g in touched])
        counts = {i: o[self._count_key] for (i, _), o in zip(touched, outs)}
        untouched = [i for i in range(self.n_shards) if i not in counts]
        unreachable = 0
        for i, p in zip(untouched, self._pings(
                [self._primaries[i] for i in untouched])):
            if p["status"] == "dead":
                unreachable += 1
            else:
                counts[i] = p["n_deleted"]
        out = {"deleted": len(keys), self._count_key: sum(counts.values())}
        if unreachable:
            out["shards_unreachable"] = unreachable
        return out

    def ping(self) -> dict:
        pings = self._pings(self._primaries)
        ok = all(p.get("status") == "ok" for p in pings)
        return {"status": "ok" if ok else "down",
                "n_shards": self.n_shards,
                **{f: sum(p.get(f) or 0 for p in pings)
                   for f in self._ping_sums},
                "shards": pings}

    def shutdown(self) -> None:
        for p in self._primaries:
            try:
                ray.kill(p)
            except Exception:
                pass
        self._primaries = []


class ShardedWriter(_ShardedFacade):
    """K hash-partitioned primary ``IndexServer``s behind ONE write
    surface (VERDICT r4 item 3): insert throughput scales past one
    actor, and K delta builds run in parallel at flush. Routing is
    ``doc_id_from_key(repo, path, commit) % K`` — the same key hash
    that names doc_ids everywhere, so N- vs 4N-node deployments route
    identically.

    Read side: ``all_dirs()`` flattens every shard's federated members
    (base + deltas); open a QueryEngine / ServeRouter /
    ``start_frontends`` over that list. Federated BM25 statistics are
    GLOBAL across members, so a K-shard deployment answers like a
    single primary holding the same docs (the sharded-vs-single
    pytest). The ``search`` convenience here mirrors
    ``IndexServer.search`` exactly, including tombstone over-fetch."""

    _server = IndexServer
    _count_key = "n_tombstones"
    _ping_sums = ("n_docs", "buffered_inserts", "n_deleted")

    def __init__(self, shard_dirs: "list[str]", *,
                 name_prefix: str = "donkey_primary",
                 mode: str = "auto") -> None:
        self.mode = mode
        self._engine = None
        self._engine_dirs: tuple = ()
        super().__init__(shard_dirs, name_prefix=name_prefix, mode=mode)

    def _key(self, item) -> int:
        from .functions.hashing import doc_id_from_key

        if isinstance(item, int):
            return item
        return doc_id_from_key(item["repo"], item["path"], item["commit"])

    def flush(self, *, num_partitions: int = 4) -> dict:
        """All shards flush CONCURRENTLY; each cuts its own delta, so
        per-shard flush cost is bounded by that shard's buffer."""
        outs = ray.get([p.flush.remote(num_partitions=num_partitions)
                        for p in self._primaries])
        return {"flushed": sum(o.get("flushed", 0) for o in outs),
                "per_shard": outs}

    def all_dirs(self) -> list[str]:
        """Flat federated membership across shards (base + deltas each),
        in shard order — the read-deployment input."""
        stats = ray.get([p.stats.remote() for p in self._primaries])
        return [d for s in stats for d in s["index_dirs"]]

    def _snapshot_engine(self):
        """(engine, live tombstone union) for the CURRENT membership —
        one stats round + one tombstone round, engine rebuilt only when
        the member list changed. Callers must hold ``self._lock`` (a
        racing rebuild could pair _engine with the wrong _engine_dirs)."""
        from .stages.score import QueryEngine

        dirs = tuple(self.all_dirs())
        if dirs != self._engine_dirs:
            self._engine = QueryEngine(list(dirs), mode=self.mode)
            self._engine_dirs = dirs
        tombs: set[int] = set()
        for t in ray.get([p.tombstone_ids.remote()
                          for p in self._primaries]):
            tombs.update(t)
        return self._engine, tombs

    @staticmethod
    def _rank(hits, tombs, k):
        if tombs:
            hits = [(d, s) for d, s in hits if d not in tombs][:k]
        return [{"rank": r, "doc_id": d, "score": s}
                for r, (d, s) in enumerate(hits, start=1)]

    def search(self, text: str, k: int = 10, **kwargs) -> list[dict]:
        """Exact federated read over the current membership: global
        BM25 stats (one QueryEngine over all member dirs), every query
        ``kind`` dispatched through the same ``_engine_topk`` table as
        ``IndexServer.search``, tombstones filtered by over-fetch
        exactly as it does. Production serving should deploy
        ``start_frontends`` over ``all_dirs()`` instead; this inline
        path exists for parity checks and small deployments."""
        with self._lock:
            engine, tombs = self._snapshot_engine()
            hits = _engine_topk(engine, text, k + len(tombs), **kwargs)
        return self._rank(hits, tombs, k)

    def search_many(self, queries: "list[tuple[str, int]]", *,
                    kind: str = "topk", window: int = 4) -> list:
        """Batch reads against ONE membership/tombstone snapshot —
        the per-query federated overhead (K stats + K tombstone RPCs)
        is paid once per batch, not once per query."""
        with self._lock:
            engine, tombs = self._snapshot_engine()
            out = []
            for text, k in queries:
                hits = _engine_topk(engine, text, k + len(tombs),
                                    kind=kind, window=window)
                out.append(self._rank(hits, tombs, k))
        return out


def _journal_tombstones(shard_dirs: "list[str]") -> set:
    """Union of tombstoned doc_ids recorded in the shard bases'
    journals. A QUIESCED (flushed) deployment's journals contain ONLY
    delete records — an insert record is an unflushed buffered batch
    that resharding would silently drop, so that raises instead."""
    tombs: set[int] = set()
    for d in shard_dirs:
        for rec in journal.replay(os.path.join(d, "journal.jsonl")):
            if rec["_op"] != "delete":
                raise ValueError(
                    f"shard {d!r} has unflushed buffered inserts in "
                    "its journal — flush every primary before "
                    "resharding (those rows exist only in the "
                    "journal and would be dropped)")
            tombs.update(int(i) for i in rec["doc_ids"])
    return tombs


def reshard(shard_dirs: "list[str]", new_k: int, out_base: str, *,
            num_partitions: int = 8,
            exclude_doc_ids: "set[int] | None" = None) -> "list[str]":
    """Offline compact-and-reshard for a sharded-writer deployment:
    fold every input shard's federated chain (base + deltas, discovered
    exactly as IndexServer does) into ``new_k`` fresh shard bases at
    ``{out_base}_shard{i}``, partitioned by doc_id % new_k — the same
    routing rule ShardedWriter uses, so a new deployment over the
    returned dirs serves the identical corpus under the new shard
    count. Tombstones resolve in the same pass: the shard journals'
    delete records are collected automatically (they do not travel to
    the new bases), unioned with any ``exclude_doc_ids`` the caller
    adds (e.g. live ``tombstone_ids`` not yet fsynced).

    QUIESCE FIRST: flush every primary and stop routing writes to the
    old deployment before calling this — a journal that still holds
    buffered inserts raises. Cost: new_k filtered merge passes over
    the union postings — a rare administrative operation, each pass
    resumable: a completed output shard is skipped ONLY if its
    recorded meta matches THIS job (same members, same (s, new_k),
    same exclude set) — a stale leftover from a different reshard at
    the same out_base raises instead of silently mis-covering. Every
    output shard must end up non-empty (enforced; true for any real
    corpus with new_k << n_docs)."""
    import hashlib

    from .pipelines.incremental import merge_indexes

    if new_k < 1:
        raise ValueError(f"new_k must be >= 1, got {new_k}")
    tombs = _journal_tombstones(shard_dirs)
    if exclude_doc_ids:
        tombs |= {int(i) for i in exclude_doc_ids}
    member_dirs: list[str] = []
    for d in shard_dirs:
        member_dirs.append(d)
        member_dirs.extend(IndexServer._existing_deltas(d))
    members_abs = [os.path.abspath(d) for d in member_dirs]
    excl_sha = hashlib.sha256(
        ",".join(map(str, sorted(tombs))).encode()).hexdigest()[:16]
    out_dirs = []
    for s in range(new_k):
        od = f"{out_base}_shard{s}"
        if mf.is_complete(od):
            meta = mf.load_meta(od)
            if (meta.get("merged_from") != members_abs
                    or meta.get("keep_shard") != [s, new_k]
                    or meta.get("exclude_sha") != excl_sha):
                raise ValueError(
                    f"completed dir {od!r} was produced by a DIFFERENT "
                    "reshard job (members / shard rule / exclude set "
                    "differ) — choose a fresh out_base or remove it")
        else:
            meta = merge_indexes(member_dirs, od,
                                 num_partitions=num_partitions,
                                 exclude_doc_ids=tombs or None,
                                 keep_shard=(s, new_k))
        if not meta.get("n_docs"):
            raise ValueError(
                f"reshard produced an EMPTY shard {od!r} (no doc_id "
                f"falls in residue class {s} mod {new_k}) — lower "
                "new_k; a zero-doc shard would serve nothing")
        out_dirs.append(od)
    return out_dirs


class VectorServer(_Journaled):
    """Donkey's literal serving core on the VECTOR side [PK: A2/A3/A5/
    A7/A8 — insert(key, object) -> journal -> index -> search(object)]:
    one named actor owning an IVF index artifact plus an in-memory
    insert buffer with a durable JSONL journal (WAL; replayed on actor
    restart). Wrap with ``ray.remote`` (see ``start_vector_server``) or
    use in-process for tests.

      insert(rows)   -> buffer + journal (rows: {vec_id, embedding})
      delete(ids)    -> journaled tombstones, effective immediately
      search(qv, k)  -> probed IVF top-k over the index MERGED with
                        exact brute force over the buffer (the buffer is
                        small by construction — donkey searches its
                        unindexed tail linearly too), tombstones
                        filtered by over-fetch
      compact(out)   -> rebuild the IVF artifact over (index survivors
                        + buffer), swap, clear buffer/tombstones,
                        truncate the journal atomically  [donkey 'sync'
                        + 'misc reindex']

    Scale shape: the actor holds the buffer, the tombstones and one
    ``ivf.IVFReader``, whose cache of probed partitions is bounded by
    its byte budget and is replaced with a fresh reader at ``compact``;
    one actor per replica, routing is the caller's load balancer."""

    def __init__(self, index_dir: str, *,
                 auto_compact_tombstones: "int | None" = None) -> None:
        from .pipelines.ivf import IVFReader

        super().__init__()
        self.index_dir = index_dir
        self._reader = IVFReader(index_dir)
        self.auto_compact_tombstones = auto_compact_tombstones
        self._buffer: dict[int, list[float]] = {}
        # (buffer version, sorted buffered ids, their normalized matrix):
        # every buffer change bumps the version AFTER it lands
        self._buf_version = 0
        self._buf_matrix: "tuple | None" = None
        self._tombstones: set[int] = set()
        # lazy; sorted np.int64 ids only — a TRUE 8 bytes/vec (a Python
        # set of ints would cost ~10x that), probed with searchsorted
        self._indexed: "object | None" = None
        self._journal_path = os.path.join(index_dir, "vjournal.jsonl")
        self._replay()

    def _indexed_ids(self):
        """Sorted np.int64 array of vec_ids already in the IVF artifact
        — loaded ONCE (ids column only, 8 bytes/vec; the vectors
        themselves stay on disk) to reject duplicate inserts that would
        return twice from search and write duplicate rows at compact.
        Kept as a numpy array, not a Python set, so actor memory really
        is 8 B/vec; membership is np.searchsorted (O(log n))."""
        if self._indexed is None:
            import numpy as np
            import pyarrow.parquet as _pq

            parts = []
            for p in mf.built_segment_paths(self.index_dir,
                                            self._reader.meta):
                col = _pq.read_table(p, columns=["vec_id"]).column("vec_id")
                parts.append(col.to_numpy(zero_copy_only=False))
            self._indexed = (np.sort(np.concatenate(parts))
                             if parts else np.empty(0, dtype=np.int64))
        return self._indexed

    # ---- WAL ----
    def _apply(self, rec: dict) -> None:
        if rec["_op"] == "delete":
            for v in rec["vec_ids"]:
                self._tombstones.add(int(v))
                self._buffer.pop(int(v), None)
        else:
            for r in rec["rows"]:
                self._buffer[int(r["vec_id"])] = r["embedding"]
        self._buf_version += 1

    def _buffer_matrix(self):
        """(sorted buffered ids, their normalized matrix), rebuilt only
        when the buffer's version moved. The version is read BEFORE the
        rebuild, so a rebuild that races an insert is cached under the
        older version and the next search rebuilds again: a stale matrix
        is never cached as current."""
        import numpy as np

        from .pipelines.ann import _normalize

        version, cached = self._buf_version, self._buf_matrix
        if cached is None or cached[0] != version:
            bids = np.asarray(sorted(self._buffer), dtype=np.int64)
            cached = self._buf_matrix = (version, bids, _normalize(np.asarray(
                [self._buffer[int(i)] for i in bids], dtype=np.float64)))
        return cached[1], cached[2]

    # ---- A7 surface ----
    def ping(self) -> dict:
        meta = mf.load_meta(self.index_dir)
        return {"status": "ok", "kind": "vector",
                "index_dir": self.index_dir,
                "n_indexed": int(meta["n_vecs"]),
                "n_buffered": len(self._buffer),
                "n_deleted": len(self._tombstones),
                "needs_compact": self._needs_compact()}

    def validate_new(self, rows: list[dict]) -> bool:
        """EVERY insert-time check WITHOUT journaling — the sharded
        vector writer's pre-flight, so a cross-shard batch rejects
        atomically (before ANY shard journals its sub-batch). That
        contract means the embedding payloads must be validated here
        too (review finding): a float()-unconvertible value surfacing
        only at journal time would half-commit the batch."""
        import numpy as np

        seen: set[int] = set()
        indexed = self._indexed_ids()
        for r in rows:
            v = int(r["vec_id"])
            if v in self._buffer or v in seen:
                raise ValueError(f"vec_id {v} already buffered")
            if v in self._tombstones:
                raise ValueError(
                    f"vec_id {v} is tombstoned; compact() before reuse")
            j = int(np.searchsorted(indexed, v))
            if j < len(indexed) and int(indexed[j]) == v:
                raise ValueError(
                    f"vec_id {v} already indexed; delete() it first")
            try:
                arr = np.asarray(r.get("embedding"), dtype=np.float64)
            except (TypeError, ValueError):
                raise ValueError(
                    f"vec_id {v} embedding has non-numeric values")
            if arr.ndim != 1 or arr.size == 0:
                raise ValueError(
                    f"vec_id {v} embedding must be a non-empty 1-D "
                    f"vector (got shape {arr.shape})")
            if not np.isfinite(arr).all():
                # numpy coerces None -> nan, so without this check the
                # pre-flight would be LAXER than it looks and a nan
                # vector would poison every cosine it ever meets
                raise ValueError(
                    f"vec_id {v} embedding has non-finite values")
            seen.add(v)
        return True

    @_serialized
    def insert(self, rows: list[dict]) -> int:
        """rows: [{vec_id:int, embedding:[float,...]}, ...]. vec_ids
        must be NEW (not indexed, buffered, or tombstoned) — ids are the
        caller's keys and a duplicate would return twice from search.
        The journaled payload is EXACTLY the conversion validate_new
        checks (one np.asarray), so the sharded writer's phase-1
        pre-flight can never pass a row that phase 2 then rejects."""
        import numpy as np

        self.validate_new(rows)
        clean = [
            {"vec_id": int(r["vec_id"]),
             "embedding": np.asarray(r["embedding"],
                                     dtype=np.float64).tolist()}
            for r in rows
        ]
        self._commit({"_op": "insert", "rows": clean})
        return len(self._buffer)

    @_serialized
    def delete(self, vec_ids: list[int]) -> dict:
        self._commit({"_op": "delete", "vec_ids": [int(v) for v in vec_ids]})
        self._maybe_auto_compact(self.index_dir)
        return {"n_deleted": len(self._tombstones)}

    def search(self, query_vectors, k: int = 10,
               *, nprobe: int | None = None) -> list[dict]:
        """Merged exact-over-buffer + probed-index cosine top-k per
        query; tombstoned ids can occupy at most len(tombstones) slots,
        so over-fetching by that count keeps the filtered page exact."""
        import numpy as np

        from .pipelines.ann import _normalize, _topk_table

        q = np.asarray(query_vectors, dtype=np.float64)
        if q.ndim == 1:
            q = q[None, :]
        qi, ids, sims = self._reader.topk(
            q, k + len(self._tombstones), nprobe)
        if self._tombstones:
            keep = ~np.isin(ids, np.fromiter(self._tombstones, np.int64))
            qi, ids, sims = qi[keep], ids[keep], sims[keep]
        if self._buffer:
            bids, m = self._buffer_matrix()
            qi = np.concatenate([qi, np.repeat(np.arange(len(q)), len(bids))])
            ids = np.concatenate([ids, np.tile(bids, len(q))])
            sims = np.concatenate([sims, (_normalize(q) @ m.T).ravel()])
        return _topk_table(qi, ids, sims, k).to_pylist()

    @_serialized
    def compact(self, out_dir: str, *, n_lists: int | None = None,
                num_partitions: int = 4) -> dict:
        """Rebuild the IVF artifact over (indexed survivors + buffer) at
        a FRESH out_dir and swap the serving dir. The OLD dir's journal
        is left untouched: a crash (or an actor restarted with the old
        constructor arg) replays the old journal over the old index —
        a consistent pre-compact view, never lost deletes/inserts."""
        import pyarrow as pa
        import pyarrow.parquet as _pq
        import ray.data

        from .pipelines.ivf import IVFReader, build_ivf_index

        if mf.is_complete(out_dir):
            # build_ivf_index would no-op on a complete dir and this
            # method would then clear state the new index never saw
            raise ValueError(
                f"compact target {out_dir} already holds a complete "
                "index; compact to a fresh directory")
        tables = [_pq.read_table(p, columns=["vec_id", "embedding"])
                  for p in mf.built_segment_paths(self.index_dir,
                                                  self._reader.meta)]
        live = pa.concat_tables(tables) if tables else pa.table(
            {"vec_id": pa.array([], pa.int64()),
             "embedding": pa.array([], pa.list_(pa.float64()))})
        if self._tombstones:
            import pyarrow.compute as pc

            keep = pc.invert(pc.is_in(
                live.column("vec_id"),
                value_set=pa.array(sorted(self._tombstones), pa.int64())))
            live = live.filter(keep)
        if self._buffer:
            buf = pa.table({
                "vec_id": pa.array(sorted(self._buffer), pa.int64()),
                "embedding": pa.array(
                    [self._buffer[i] for i in sorted(self._buffer)],
                    pa.list_(pa.float64())),
            })
            live = pa.concat_tables([
                live.cast(buf.schema) if live.num_rows else buf.schema.empty_table(),
                buf])
        kwargs = {} if n_lists is None else {"n_lists": n_lists}
        new_meta = build_ivf_index(
            ray.data.from_arrow(live), out_dir,
            num_partitions=num_partitions, **kwargs)
        self.index_dir = out_dir
        self._reader = IVFReader(out_dir)
        self._buffer.clear()
        self._buf_version += 1
        self._tombstones.clear()
        self._indexed = None  # re-derive lazily from the new segments
        # the new dir starts with an (absent =) empty journal; the old
        # dir keeps its journal so a restart against it stays consistent
        self._journal_path = os.path.join(out_dir, "vjournal.jsonl")
        return {"n_vecs": int(new_meta["n_vecs"]), "index_dir": out_dir}


def start_vector_server(
    index_dir: str,
    *,
    name: str = "donkey_vector_server",
    detached: bool = False,
) -> "ray.actor.ActorHandle":
    """Start (or get) the named vector-serving actor; an adopted one
    must serve ``index_dir``. Ray must already be initialised by the
    caller — never here."""
    return _start(VectorServer, name, index_dir, detached=detached)


class VectorRouter(ServeRouter):
    """The vector-side twin of ServeRouter: the same replica-pool
    machinery (round-robin, failover, respawn-by-name, wrong-index
    adoption guard) over read-only VectorServer replicas. Replicas
    must be treated READ-ONLY — insert/delete/compact go through a
    single designated primary; a replica that compacted itself changed
    identity and is refused on re-adoption."""

    def _spawn_replica(self, name: str):
        return (
            ray.remote(VectorServer)
            .options(name=name, num_cpus=1, scheduling_strategy="SPREAD")
            .remote(self.index_dir)
        )

    def search_many(self, vectors, k: int = 10, *, nprobe: int | None = None,
                    chunk_size: int = 64) -> list[dict]:
        """(n, dim) query matrix fanned across replicas one CHUNK per
        actor call; rows come back re-numbered to the global query ids
        in request order."""
        import numpy as np

        q = np.asarray(vectors, dtype=np.float64)
        if q.ndim == 1:  # single query: (dim,) -> (1, dim), same as
            q = q[None, :]  # VectorServer.search — never chunk on dims
        chunks = [(lo, q[lo:lo + chunk_size])
                  for lo in range(0, len(q), chunk_size)]
        futs = []
        for lo, chunk in chunks:
            i, h = self._next_replica()
            futs.append((i, lo, h.search.remote(chunk, k, nprobe=nprobe)))
        out: list[dict] = []
        for i, lo, f in futs:
            try:
                rows = ray.get(f)
            except ray.exceptions.RayActorError:
                self._replicas[i] = None
                rows = self.search(q[lo:lo + chunk_size], k, nprobe=nprobe)
            out.extend({**r, "query_id": r["query_id"] + lo} for r in rows)
        return out


def start_vector_router(
    index_dir: str,
    *,
    n_replicas: int = 2,
    name: str = "donkey_vector_router",
    detached: bool = False,
) -> "ray.actor.ActorHandle":
    """Start (or get) the named vector router over ``n_replicas`` read
    replicas. Ray must already be initialised by the caller. Same
    adopted-router identity guard as ``start_router``."""
    return _start(VectorRouter, name, index_dir, num_cpus=0.5,
                  detached=detached, n_replicas=n_replicas,
                  name_prefix=f"{name}_replica")


class ShardedVectorWriter(_ShardedFacade):
    """K hash-partitioned ``VectorServer`` primaries behind one write
    surface — the vector-side twin of ``ShardedWriter``, routed by
    ``vec_id % K`` (vec_ids are the caller's keys), with K independent
    compacts.

    Search fans the query batch to every shard and merges per query by
    (-cos_sim, vec_id): cosine needs NO cross-shard statistics (unlike
    BM25's df/avgdl), so the union of per-shard top-k's contains the
    global top-k exactly — at ``nprobe=None`` (= every list probed,
    exact brute force) a K-shard deployment answers IDENTICALLY to a
    single primary holding the same vectors, which the parity pytest
    pins. Each shard applies its own tombstone over-fetch internally."""

    _server = VectorServer
    _count_key = "n_deleted"
    _ping_sums = ("n_indexed", "n_buffered", "n_deleted")

    def __init__(self, shard_dirs: "list[str]", *,
                 name_prefix: str = "donkey_vprimary") -> None:
        super().__init__(shard_dirs, name_prefix=name_prefix)

    def _key(self, item) -> int:
        return int(item["vec_id"] if isinstance(item, dict) else item)

    def ping(self) -> dict:
        return {"kind": "vector", **super().ping()}

    def search(self, query_vectors, k: int = 10,
               *, nprobe: "int | None" = None) -> list[dict]:
        """Fan-out + exact merge (see class docstring). Output rows
        mirror ``VectorServer.search``: one dict per (query_id, rank)."""
        import numpy as np

        from .pipelines.ann import _topk_table

        q = np.asarray(query_vectors, dtype=np.float64)
        # ship the converted array (shards asarray it again for free)
        # instead of converting here only to throw the copy away
        outs = ray.get([p.search.remote(q, k, nprobe=nprobe)
                        for p in self._primaries])
        hits = [r for shard_hits in outs for r in shard_hits]
        qi = np.array([r["query_id"] for r in hits], dtype=np.int64)
        ids = np.array([r["vec_id"] for r in hits], dtype=np.int64)
        sims = np.array([r["cos_sim"] for r in hits], dtype=np.float64)
        return _topk_table(qi, ids, sims, k).to_pylist()

    def compact_all(self, out_base: str, *, n_lists: "int | None" = None,
                    num_partitions: int = 4) -> "list[dict]":
        """All shards compact CONCURRENTLY, each into its own fresh
        ``{out_base}_shard{i}`` dir (per-shard buffer + tombstones
        resolve independently — no cross-shard coordination needed)."""
        kwargs = {} if n_lists is None else {"n_lists": n_lists}
        with self._lock:  # never interleave with an in-flight insert
            return ray.get([
                p.compact.remote(f"{out_base}_shard{i}",
                                 num_partitions=num_partitions, **kwargs)
                for i, p in enumerate(self._primaries)])
