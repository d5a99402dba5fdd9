"""The four workloads, untraced (the metric runs).

Each returns a dict of end-to-end metrics plus a dict of the named
per-workload figures printed for people. Failures (non-200 responses and
failed output checks) are counted on the ``Run``.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np

from donkey_ray import synth
from donkey_ray.functions.hashing import doc_id_from_key
from donkey_ray.pipelines.build import build_index

from . import checks, streams
from .common import (RaySession, Server, dir_bytes, median, now, percentile,
                     ray_worker_peak_mb, request, warm_ray)

SERVING = ("search-hot", "search-cold", "ingest")
SEARCH = ("search-hot", "search-cold")
SETUP_REPS = 3          # set-up runs this often; setup_s is the median
# A search run is rounds of: fresh server (empty caches), warm-up, closed
# loop, open loop. A round's queries fit one pass of the cold term list.
SECONDS_PER_ROUND = 5.0 # one round per this many --seconds
CLOSED_QUERIES = 1100   # per round: closed loop, one connection
CLOSED_WINDOW = 25      # closed-loop requests per throughput sample
OPEN_QUERIES = 100      # per round: open loop at RATE
# open-loop queries/s: 10-20% of one core, so a slower host stretches
# service time without also building a queue
RATE = 100.0
CHECK_SHARE = 0.03      # share of search responses checked vs the oracle
INSERT_BATCH = 100      # rows per /insert
FLUSH_ROWS = 1000       # rows per /flush
SEARCHES_PER_BATCH = 20 # /search requests after each /insert
DELETES_PER_BATCH = 2   # keys per /delete, one /delete per /insert
MIN_FLUSHES = 2
SECONDS_PER_WINDOW = 2.5  # ingest: one flush window per this many --seconds
UNFLUSHED_ROWS = 3000   # journal replayed by the recovery


class Run:
    """One benchmark run: its paths, seeded inputs and failure counts."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 docs: int, work: str) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.docs = docs
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.ray: RaySession | None = None
        self.server: Server | None = None
        self.corpus = ""
        self.index = ""
        self.setup_parts: dict[str, float] = {}

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def start_server(self, index_dir: str) -> Server:
        addr = self.ray.address if self.workload == "ingest" else None
        return Server(index_dir, self.path("server.log"), ray_addr=addr)


def setup(run: Run) -> float:
    """Ray start and warm-up, then SETUP_REPS times: generate the corpus
    and, for the serving workloads, build the shared index and start the
    server on it. Returns setup_s = Ray start + the median rep. Untimed,
    the search workloads then stop Ray: their server needs no Ray, and its
    idle daemons would share the CPU with the timed requests."""
    t0 = now()
    run.ray = RaySession()
    warm_ray()
    ray_s = now() - t0
    reps = []
    for r in range(SETUP_REPS):
        t = now()
        run.corpus = run.path(f"corpus{r}")
        synth.generate_corpus_parquet(run.docs, run.corpus, seed=run.seed)
        server = None
        if run.workload in SERVING:
            run.index = run.path(f"index{r}")
            build_index(run.corpus, run.index)
            server = run.start_server(run.index)
        reps.append(now() - t)
        if run.server is not None:
            run.server.kill()
        run.server = server
    if run.workload in SEARCH:
        run.ray.stop()
        run.ray = None
    run.setup_parts = {"setup.ray_s": ray_s, "setup.rep_s": median(reps)}
    return ray_s + median(reps)


def _storage_ratio(index_dir: str, corpus_dir: str) -> float:
    return dir_bytes(index_dir) / dir_bytes(corpus_dir)


# ---------------------------------------------------------------- build

def build(run: Run) -> tuple[dict, dict]:
    corpus = checks.read_corpus_table(run.corpus)
    walls, ratio = [], None
    t_end = now() + run.seconds
    i = 0
    while not walls or now() < t_end:
        out = run.path(f"build{i}")
        t = now()
        build_index(run.corpus, out)
        walls.append(now() - t)
        errs = checks.check_build(corpus, out)
        run.op(not errs, f"build {i}: {errs}")
        if ratio is None:
            ratio = _storage_ratio(out, run.corpus)
        shutil.rmtree(out)
        i += 1
    docs_per_s = run.docs / median(walls)
    e2e = {
        "throughput_per_s": docs_per_s,
        "p50_ms": median(walls) * 1e3,
        "peak_rss_mb": ray_worker_peak_mb(),
        "storage_bytes_per_input_byte": ratio,
    }
    named = {"build_docs_per_s": (docs_per_s, "docs/s"),
             "build_p90_ms": (percentile(walls, 90) * 1e3, "ms"),
             "index_bytes_per_corpus_byte": (ratio, "ratio"),
             "builds": (len(walls), "count")}
    return e2e, named


# --------------------------------------------------------------- search

def _search(run: Run, text: str, k: int, checked: list | None,
            tag: tuple = (0, frozenset())) -> float:
    """One /search; returns its wall. A checked response is kept with
    ``tag`` (flushes before it, deleted ids) for the oracle comparison
    after the run."""
    t = now()
    status, body = request(run.server.port, "POST", "/search",
                           {"text": text, "k": k})
    wall = now() - t
    if run.op(status == 200, f"/search {text!r}: HTTP {status}") \
            and checked is not None:
        checked.append((text, k, json.loads(body)["hits"], tag))
    return wall


def search_rounds(seconds: float) -> int:
    """Rounds in a search run. Fixed by ``--seconds``, so runs of one
    length send the same number of requests."""
    return max(1, round(seconds / SECONDS_PER_ROUND))


def search(run: Run) -> tuple[dict, dict]:
    rng = np.random.default_rng(run.seed + 23)
    checked: list = []
    rates, walls, lat, lag, rss = [], [], [], [], 0.0

    def pick():
        return checked if rng.random() < CHECK_SHARE else None

    for r in range(search_rounds(run.seconds)):
        if r:  # a fresh server, so its caches hold none of this round
            run.server.kill()
            run.server = run.start_server(run.index)
        st = streams.stream(run.workload, run.seed, r)
        for text, k in st.warmup():
            _search(run, text, k, None)

        # closed loop over one connection: request walls, and rates of
        # CLOSED_WINDOW-request windows, so a host stall moves one sample
        for _ in range(CLOSED_QUERIES // CLOSED_WINDOW):
            t0 = now()
            for text, k in st.take(CLOSED_WINDOW):
                walls.append(_search(run, text, k, pick()))
            rates.append(CLOSED_WINDOW / (now() - t0))

        # open loop at a fixed rate, timed from when each request was due
        start = now() + 0.01
        for i, (text, k) in enumerate(st.take(OPEN_QUERIES)):
            due = start + i / RATE
            wait = due - now()
            if wait > 0:
                time.sleep(wait)
            lag.append(now() - due)
            _search(run, text, k, pick())
            lat.append(now() - due)
        rss = max(rss, run.server.rss_mb())
    run.server.kill()
    run.server = None

    check_searches(run, checked, [])
    qps = median(rates)
    p50 = median(walls) * 1e3
    o50, o90, o99 = (percentile(lat, q) * 1e3 for q in (50, 90, 99))
    e2e = {
        "throughput_per_s": qps,
        "p50_ms": p50,
        "peak_rss_mb": rss,
        "storage_bytes_per_input_byte": _storage_ratio(run.index,
                                                       run.corpus),
    }
    named = {"search_qps": (qps, "queries/s"),
             "search_p50_ms": (p50, "ms"),
             "search_p90_ms": (percentile(walls, 90) * 1e3, "ms"),
             "search_p99_ms": (percentile(walls, 99) * 1e3, "ms"),
             "open_loop_p50_ms": (o50, "ms"), "open_loop_p90_ms": (o90, "ms"),
             "open_loop_p99_ms": (o99, "ms"), "server_rss_mb": (rss, "MiB"),
             "closed_loop_samples": (len(walls), "count"),
             "open_loop_samples": (len(lat), "count"),
             "loadgen.lag_p99_ms": (percentile(lag, 99) * 1e3, "ms"),
             "oracle_checked": (len(checked), "count")}
    return e2e, named


# --------------------------------------------------------------- ingest

def ingest_windows(seconds: float) -> int:
    """Flush windows in an ingest run. Fixed by ``--seconds``, so runs of
    one length make the same writes and end with the same members."""
    return max(MIN_FLUSHES, round(seconds / SECONDS_PER_WINDOW))


def doc_ids(rows: list[dict]) -> list[int]:
    return [doc_id_from_key(r["repo"], r["path"], r["commit"]) for r in rows]


def ingest_plan(run: Run, windows: int):
    """The seeded op stream. Per window: /insert batches, each followed
    by one /delete of searchable docs and SEARCHES_PER_BATCH /search,
    then one /flush. Then the unflushed tail: inserts, a delete of two
    buffered rows and a delete of two flushed ones. Returns (ops, rows
    of each window, tail rows)."""
    rng = np.random.default_rng(run.seed + 29)
    hot = streams.HotStream(run.seed)
    live = doc_ids(checks.read_corpus_table(run.corpus).to_pylist())
    ops: list[tuple] = []
    wins: list[list[dict]] = []
    start = 0
    for w in range(windows):
        rows = streams.ingest_rows(run.seed, start, FLUSH_ROWS, w)
        start += len(rows)
        for b in range(0, len(rows), INSERT_BATCH):
            ops.append(("insert", rows[b:b + INSERT_BATCH]))
            ops.append(("delete", [live.pop(int(rng.integers(len(live))))
                                   for _ in range(DELETES_PER_BATCH)]))
            ops.extend(("search", t, k)
                       for t, k in hot.take(SEARCHES_PER_BATCH))
        ops.append(("flush", w))
        wins.append(rows)
        live.extend(doc_ids(rows))
    tail = streams.ingest_rows(run.seed, start, UNFLUSHED_ROWS, windows)
    ops.extend(("insert", tail[b:b + INSERT_BATCH])
               for b in range(0, len(tail), INSERT_BATCH))
    deleted = {d for op in ops if op[0] == "delete" for d in op[1]}
    ops.append(("delete", sorted(doc_ids(tail))[:DELETES_PER_BATCH]))
    ops.append(("delete", sorted(set(doc_ids(wins[-1])) - deleted)
                [:DELETES_PER_BATCH]))
    return ops, wins, tail


def _marker_hits(run: Run, window: int, n: int) -> set[int] | None:
    status, body = request(run.server.port, "POST", "/search",
                           {"text": streams.marker(run.seed, window),
                            "k": n + 10})
    if status != 200:
        return None
    return {h["doc_id"] for h in json.loads(body)["hits"]}


def check_recovery(run: Run, wins: list[list[dict]], tail: list[dict],
                   deleted: set[int]) -> None:
    """After the restart: every acknowledged unflushed insert and every
    delete shows in ``ping()``, and deleted docs are not returned."""
    status, body = request(run.server.port, "GET", "/ping")
    ping = json.loads(body) if status == 200 else {}
    run.op(ping.get("buffered_inserts") == len(tail) - DELETES_PER_BATCH,
           f"buffered_inserts after recovery: {ping}")
    run.op(ping.get("n_deleted") == len(deleted),
           f"n_deleted after recovery: {ping}")
    run.op(ping.get("n_indexes") == len(wins) + 1, f"members: {ping}")
    for w, rows in enumerate(wins):
        run.op(_marker_hits(run, w, len(rows))
               == set(doc_ids(rows)) - deleted,
               f"window {w} after recovery: wrong docs returned")


def check_searches(run: Run, checked: list, wins: list[list[dict]]) -> None:
    """Compare kept responses with the oracle as of their window."""
    oracle = checks.SearchOracle(checks.read_corpus_table(run.corpus))
    version = 0
    for text, k, hits, (w, deleted) in sorted(checked,
                                              key=lambda c: c[3][0]):
        while version < w:
            oracle.add(wins[version])
            version += 1
        run.op(checks.hits_match(hits, oracle.expected(text, k, deleted)),
               f"oracle mismatch on {text!r} after {w} flushes")


def ingest(run: Run) -> tuple[dict, dict]:
    ops, wins, tail = ingest_plan(run, ingest_windows(run.seconds))
    rng = np.random.default_rng(run.seed + 23)
    port = run.server.port
    checked: list = []
    lat: list[float] = []
    flush_walls: list[float] = []
    deleted: set[int] = set()
    insert_walls: list[float] = []
    rows_acked, insert_bytes = 0, 0
    for op in ops:
        if op[0] == "insert":
            body = json.dumps({"rows": op[1]}).encode()
            insert_bytes += len(body)
            t = now()
            status, _ = request(port, "POST", "/insert", body=body)
            insert_walls.append(now() - t)
            if run.op(status == 200, f"/insert HTTP {status}"):
                rows_acked += len(op[1])
        elif op[0] == "delete":
            status, body = request(port, "POST", "/delete", {"keys": op[1]})
            if run.op(status == 200, f"/delete HTTP {status}"):
                deleted.update(op[1])
                run.op(json.loads(body)["n_tombstones"] == len(deleted),
                       "/delete tombstone count")
        elif op[0] == "search":
            keep = checked if rng.random() < CHECK_SHARE else None
            wall = _search(run, op[1], op[2], keep,
                           (len(flush_walls), frozenset(deleted)))
            lat.append(wall)
        else:
            w = op[1]
            t = now()
            status, body = request(port, "POST", "/flush", {})
            flush_walls.append(now() - t)
            run.op(status == 200
                   and json.loads(body)["flushed"] == len(wins[w]),
                   f"/flush HTTP {status}")
            run.op(_marker_hits(run, w, len(wins[w])) == set(doc_ids(wins[w])),
                   f"window {w} not searchable after flush")
    rss = run.server.rss_mb()
    written = os.path.getsize(os.path.join(run.index, "journal.jsonl")) + sum(
        dir_bytes(f"{run.index}_delta_{i}") for i in range(len(wins)))

    # crash between acknowledged requests, then reopen (journal replay)
    run.server.kill()
    run.server = Server(run.index, run.path("server.log"))
    recover_s = run.server.open_s
    check_recovery(run, wins, tail, deleted)
    run.server.kill()
    run.server = None
    check_searches(run, checked, wins)

    # rows per /insert over the median /insert wall (every batch holds
    # INSERT_BATCH rows), so one slow request moves one sample, not the mean
    rows_per_s = INSERT_BATCH / median(insert_walls)
    p50, p90, p99 = (percentile(lat, q) * 1e3 for q in (50, 90, 99))
    e2e = {
        "throughput_per_s": rows_per_s,
        "p50_ms": p50,
        "peak_rss_mb": rss,
        "storage_bytes_per_input_byte": written / insert_bytes,
    }
    named = {"insert_rows_per_s": (rows_per_s, "rows/s"),
             "insert_rows_acked": (rows_acked, "count"),
             "flush_s": (median(flush_walls), "s"),
             "recover_s": (recover_s, "s"),
             "search_p50_ms": (p50, "ms"), "search_p90_ms": (p90, "ms"),
             "search_p99_ms": (p99, "ms"), "server_rss_mb": (rss, "MiB"),
             "flushes": (len(flush_walls), "count"),
             "searches": (len(lat), "count"),
             "tombstones": (len(deleted), "count"),
             "oracle_checked": (len(checked), "count")}
    return e2e, named


RUNNERS = {"build": build, "search-hot": search, "search-cold": search,
           "ingest": ingest}
