"""The traced run (``--trace 1``): per-layer metrics from spans the
benchmark puts around its own calls into each layer's public functions.

It replays each workload's stream in the metric run's order: the build
stage by stage (each stage materialized, its ``Dataset.stats()`` kept),
and the serving streams through an in-process ``IndexServer`` on the same
index followed by the HTTP call for the same request. Every run also
times the untraced form of the same work, so the difference is the
tracing overhead. Spans are written to ``.perfbench/spans/``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import shutil

import ray
import ray.data

import donkey_ray.pipelines.build as build_mod
import donkey_ray.stages.score as score_mod
from donkey_ray.functions.tokenize import get_tokenizer
from donkey_ray.pipelines.build import (build_index, compute_lang_stats,
                                        detect_hot_terms)
from donkey_ray.serve import IndexServer
from donkey_ray.sources.corpus import read_corpus
from donkey_ray.stages.encode import SegmentWriter
from donkey_ray.stages.extract import doc_meta, extract_postings
from donkey_ray.state import manifest as mf

from . import checks, streams, workloads
from .common import WORK, Server, Tracer, dir_bytes, median, now, request

TRACE_QUERIES = 1000    # queries replayed after the warm-up
TRACE_WINDOWS = 2       # ingest flush windows replayed

UNITS = {
    "build.read_s": "s",
    "build.hot_sample_s": "s",
    "build.docs_pass_s": "s",
    "build.extract_s": "s",
    "build.exchange_s": "s",
    "build.encode_write_s": "s",
    "build.stats_fold_s": "s",
    "build.unattributed_s": "s",
    "build.wall_s": "s",
    "build.postings": "count",
    "build.segment_bytes": "bytes",
    "build.shuffle_bytes": "bytes",
    "build.part_skew_postings": "ratio",
    "build.part_skew_wall": "ratio",
    "serve.tokenize_s": "s",
    "serve.resolve_s": "s",
    "serve.score_s": "s",
    "frontend.http_s": "s",
    "serve.engine_share": "ratio",
    "frontend.http_share": "ratio",
    "serve.postings_per_query": "count",
    "serve.working_set_postings": "count",
    "serve.result_bytes": "bytes",
    "serve.fetch_k_over_k": "ratio",
    "ingest.insert_s": "s",
    "ingest.delete_s": "s",
    "ingest.flush_s": "s",
    "ingest.flush_input_s": "s",
    "ingest.flush_build_s": "s",
    "ingest.flush_reopen_s": "s",
    "ingest.recover_s": "s",
    "ingest.replay_rows_per_s": "rows/s",
    "ingest.journal_bytes_per_input_byte": "ratio",
    "ingest.write_bytes_per_input_byte": "ratio",
    "ingest.members": "count",
    "ingest.tombstones": "count",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_share": "ratio",
}


def _skew(values: list[float]) -> float:
    m = median(values)
    return max(values) / m if m else 0.0


def _finish(run: workloads.Run, tr: Tracer, layer: dict,
            traced_wall: float, untraced_wall: float,
            extra: list[dict] = ()) -> tuple[dict, dict]:
    """All per-layer metrics (0 for layers this workload does not run),
    the spans written out, and the same figures for the printed table."""
    layer["trace.traced_wall_s"] = traced_wall
    layer["trace.untraced_wall_s"] = untraced_wall
    layer["trace.overhead_share"] = (traced_wall - untraced_wall) \
        / untraced_wall
    metrics = {name: float(layer.get(name, 0.0)) for name in UNITS}
    tr.write(os.path.join(WORK, "spans",
                          f"{run.workload}-s{run.seed}.jsonl"), extra)
    named = {name: (v, UNITS[name]) for name, v in metrics.items()
             if name in layer}
    return metrics, named


# ---------------------------------------------------------------- build

def _default(name: str):
    return inspect.signature(build_index).parameters[name].default


def build(run: workloads.Run) -> tuple[dict, dict]:
    """One untraced ``build_index`` (its wall is ``build.wall_s``), then
    the same build stage by stage into a fresh directory."""
    tr = Tracer()
    corpus = checks.read_corpus_table(run.corpus)
    out = run.path("traced-build")
    t = now()
    build_index(run.corpus, run.path("untraced-build"))
    untraced = now() - t
    run.op(not checks.check_build(corpus, run.path("untraced-build")),
           "untraced build check")

    stats = {}
    parts = _default("num_partitions")
    cpus = int(ray.cluster_resources().get("CPU", 1))
    t = now()
    with tr.span("build.read"):
        ds = read_corpus(run.corpus,
                         override_num_blocks=max(2 * cpus, 8)).materialize()
    stats["read"] = ds.stats()
    with tr.span("build.hot_sample"):
        hot, _, _ = detect_hot_terms(
            ds, id_col=None, sample_mod=_default("sample_mod"),
            hot_df_ratio=_default("hot_df_ratio"))
    with tr.span("build.docs_pass"):
        docs = ds.map_batches(functools.partial(doc_meta, id_col=None),
                              batch_format="pyarrow", zero_copy_batch=True)
        docs.write_parquet(os.path.join(out, "docs"))
    with tr.span("build.extract"):
        postings = ds.map_batches(
            functools.partial(
                extract_postings, num_partitions=parts,
                hot_ref=ray.put(hot) if hot else None,
                salt_bits=_default("salt_bits"), id_col=None),
            batch_format="pyarrow", zero_copy_batch=True,
            batch_size=_default("batch_size")).materialize()
    stats["extract"] = postings.stats()
    with tr.span("build.exchange_encode"):
        written = postings.groupby("part").map_groups(
            SegmentWriter(out), batch_format="pyarrow").materialize()
        written.take_all()
    stats["exchange_encode"] = written.stats()
    with tr.span("build.stats_fold"):
        compute_lang_stats(out)
    traced = now() - t

    entries = [e for p in range(parts)
               if (e := mf.load_partition_manifest(out, p)) is not None]
    st = tr.self_times()
    encode = sum(e["wall_s"] for e in entries)
    layer = {
        "build.read_s": st["build.read"],
        "build.hot_sample_s": st["build.hot_sample"],
        "build.docs_pass_s": st["build.docs_pass"],
        "build.extract_s": st["build.extract"],
        "build.exchange_s": st["build.exchange_encode"] - encode,
        "build.encode_write_s": encode,
        "build.stats_fold_s": st["build.stats_fold"],
        "build.wall_s": untraced,
        "build.postings": sum(e["n_postings"] for e in entries),
        "build.segment_bytes": sum(e["n_bytes"] for e in entries),
        "build.shuffle_bytes": postings.size_bytes(),
        "build.part_skew_postings": _skew([e["n_postings"]
                                           for e in entries]),
        "build.part_skew_wall": _skew([e["wall_s"] for e in entries]),
    }
    stages = sum(layer[k] for k in STAGES)
    layer["build.unattributed_s"] = untraced - stages
    return _finish(run, tr, layer, traced, untraced,
                   [{"dataset_stats": stats}])


STAGES = ("build.read_s", "build.hot_sample_s", "build.docs_pass_s",
          "build.extract_s", "build.exchange_s", "build.encode_write_s",
          "build.stats_fold_s")


# -------------------------------------------------------------- serving

class ServingTrace:
    """Spans for one serving stream: each request runs in an in-process
    ``IndexServer`` on its own copy of the index, then over HTTP against
    the server under test. ``frontend.http`` is the HTTP round trip
    minus the in-process spans of the same request."""

    def __init__(self, run: workloads.Run, index_dir: str) -> None:
        self.run = run
        self.tr = Tracer()
        self.srv = IndexServer(index_dir)
        self.tok = get_tokenizer(self.srv.engine.query_lang)
        self.http_s = 0.0
        self.http_total = 0.0
        self.terms_df: dict[str, int] = {}
        self.postings = 0
        self.result_bytes = 0
        self.fetch_ratio = 0.0
        self.searches = 0
        self.checked: list = []

    def _http(self, req: int, path: str, obj: dict,
              inproc: float) -> tuple[int, bytes]:
        with self.tr.span("frontend.http", req) as h:
            status, body = request(self.run.server.port, "POST", path, obj)
        wall = h["end"] - h["start"]
        self.http_total += wall
        self.http_s += wall - inproc
        self.run.op(status == 200, f"{path} HTTP {status}")
        return status, body

    def search(self, req: int, text: str, k: int, keep=None) -> None:
        tr = self.tr
        with tr.span("request", req):
            with tr.span("serve.tokenize", req) as a:
                terms = sorted(set(self.tok.tokenize(text)))
            with tr.span("serve.resolve", req) as b:
                dfs = [sum(int(r["df"]) for r in self.srv.engine.term_runs(t))
                       for t in terms]
            with tr.span("serve.score", req) as c:
                self.srv.search(text, k)
            inproc = sum(s["end"] - s["start"] for s in (a, b, c))
            status, body = self._http(req, "/search",
                                      {"text": text, "k": k}, inproc)
        self.terms_df.update(zip(terms, dfs))
        self.postings += sum(dfs)
        self.result_bytes += len(body)
        self.fetch_ratio += (k + len(self.srv.tombstone_ids())) / k
        self.searches += 1
        if keep is not None and status == 200:
            self.checked.append((text, k, json.loads(body)["hits"], keep))

    def write(self, req: int, op: tuple) -> None:
        """An /insert, /delete or /flush, in-process then over HTTP."""
        with self.tr.span("request", req):
            with self.tr.span(f"ingest.{op[0]}", req) as s:
                if op[0] == "insert":
                    self.srv.insert(op[1])
                elif op[0] == "delete":
                    self.srv.delete(op[1])
                else:
                    self._flush()
            self._http(req, f"/{op[0]}", _write_body(op),
                       s["end"] - s["start"])

    def _flush(self) -> None:
        """``IndexServer.flush`` with spans around the three calls it
        makes: the buffer to a Dataset, the delta build, and the
        federated reopen."""
        calls = [(ray.data, "from_arrow", "ingest.flush_input"),
                 (build_mod, "build_index", "ingest.flush_build"),
                 (score_mod, "QueryEngine", "ingest.flush_reopen")]
        saved = [getattr(mod, attr) for mod, attr, _ in calls]

        def traced(fn, name):
            def call(*a, **kw):
                with self.tr.span(name):
                    return fn(*a, **kw)
            return call

        for (mod, attr, name), fn in zip(calls, saved):
            setattr(mod, attr, traced(fn, name))
        try:
            self.srv.flush()
        finally:
            for (mod, attr, _), fn in zip(calls, saved):
                setattr(mod, attr, fn)

    def layers(self) -> dict:
        st = self.tr.self_times()
        engine = st.get("serve.resolve", 0.0) + st.get("serve.score", 0.0)
        n = max(self.searches, 1)
        layer = {
            "serve.tokenize_s": st.get("serve.tokenize", 0.0),
            "serve.resolve_s": st.get("serve.resolve", 0.0),
            "serve.score_s": st.get("serve.score", 0.0),
            "frontend.http_s": self.http_s,
            "serve.engine_share": engine / self.http_total,
            "frontend.http_share": self.http_s / self.http_total,
            "serve.postings_per_query": self.postings / n,
            "serve.working_set_postings": sum(self.terms_df.values()),
            "serve.result_bytes": self.result_bytes / n,
            "serve.fetch_k_over_k": self.fetch_ratio / n,
        }
        return layer


def _write_body(op: tuple) -> dict:
    if op[0] == "flush":
        return {}
    return {"rows" if op[0] == "insert" else "keys": op[1]}


def _copy_index(src: str, dst: str) -> str:
    shutil.copytree(src, dst)
    return dst


def search(run: workloads.Run) -> tuple[dict, dict]:
    st = streams.stream(run.workload, run.seed)
    warm, queries = st.warmup(), st.take(TRACE_QUERIES)
    for text, k in warm:
        request(run.server.port, "POST", "/search", {"text": text, "k": k})
    t = now()
    for text, k in queries:
        request(run.server.port, "POST", "/search", {"text": text, "k": k})
    untraced = now() - t

    # fresh caches on both sides for the traced replay of the same stream
    run.server.kill()
    run.server = run.start_server(run.index)
    trace = ServingTrace(run, _copy_index(run.index, run.path("inproc")))
    for text, k in warm:
        trace.srv.search(text, k)
        request(run.server.port, "POST", "/search", {"text": text, "k": k})
    t = now()
    for i, (text, k) in enumerate(queries):
        trace.search(i, text, k, keep=(0, frozenset())
                     if i % 50 == 0 else None)
    traced = now() - t
    workloads.check_searches(run, trace.checked, [])
    return _finish(run, trace.tr, trace.layers(), traced, untraced)


def ingest(run: workloads.Run) -> tuple[dict, dict]:
    """The first TRACE_WINDOWS windows of the ingest stream and its tail,
    untraced over HTTP on one copy of the index, then traced on two more
    copies (in-process and HTTP); then a crash and reopen of each."""
    ops, wins, tail = workloads.ingest_plan(run, TRACE_WINDOWS)
    http_dir = _copy_index(run.index, run.path("http-copy"))
    inproc_dir = _copy_index(run.index, run.path("inproc"))
    port = run.server.port
    t = now()
    for op in ops:
        if op[0] == "search":
            request(port, "POST", "/search", {"text": op[1], "k": op[2]})
        else:
            request(port, "POST", f"/{op[0]}", _write_body(op))
    untraced = now() - t
    run.server.kill()
    run.server = run.start_server(http_dir)

    trace = ServingTrace(run, inproc_dir)
    deleted: set[int] = set()
    flushes = 0
    t = now()
    for i, op in enumerate(ops):
        if op[0] == "search":
            trace.search(i, op[1], op[2], keep=(flushes, frozenset(deleted))
                         if i % 50 == 0 else None)
        else:
            trace.write(i, op)
            deleted.update(op[1] if op[0] == "delete" else ())
            flushes += op[0] == "flush"
    traced = now() - t

    journal = os.path.join(inproc_dir, "journal.jsonl")
    with open(journal) as f:
        journal_rows = sum(1 for _ in f)
    tail_bytes = len(json.dumps({"rows": tail}))
    all_bytes = sum(len(json.dumps({"rows": op[1]})) for op in ops
                    if op[0] == "insert")
    written = os.path.getsize(journal) + sum(
        dir_bytes(f"{inproc_dir}_delta_{i}") for i in range(len(wins)))
    ping = trace.srv.ping()
    with trace.tr.span("ingest.recover"):
        trace.srv = IndexServer(inproc_dir)
    recover = trace.tr.total("ingest.recover")

    run.server.kill()
    run.server = Server(http_dir, run.path("server.log"))
    workloads.check_recovery(run, wins, tail, deleted)
    workloads.check_searches(run, trace.checked, wins)

    layer = trace.layers()
    st = trace.tr.self_times()
    layer.update({
        "ingest.insert_s": st.get("ingest.insert", 0.0),
        "ingest.delete_s": st.get("ingest.delete", 0.0),
        "ingest.flush_s": trace.tr.total("ingest.flush"),
        "ingest.flush_input_s": st.get("ingest.flush_input", 0.0),
        "ingest.flush_build_s": st.get("ingest.flush_build", 0.0),
        "ingest.flush_reopen_s": st.get("ingest.flush_reopen", 0.0),
        "ingest.recover_s": run.server.open_s,
        "ingest.replay_rows_per_s": journal_rows / recover,
        "ingest.journal_bytes_per_input_byte":
            os.path.getsize(journal) / tail_bytes,
        "ingest.write_bytes_per_input_byte": written / all_bytes,
        "ingest.members": ping["n_indexes"],
        "ingest.tombstones": ping["n_deleted"],
    })
    return _finish(run, trace.tr, layer, traced, untraced)


RUNNERS = {"build": build, "search-hot": search, "search-cold": search,
           "ingest": ingest}
