"""HTTP/JSON serving frontend (donkey A7's network RPC analogue [PK]:
the Thrift ``ping / insert / search / misc`` service in api/ +
src/server.cpp — file-level, SURVEY.md section 0 / section 2A A7).

Donkey exposes its engine to non-C++ clients over a wire protocol; here
the same surface is a dependency-free stdlib ``ThreadingHTTPServer``
wrapping the Ray serving actors, so non-Python clients reach the
cluster through plain JSON-over-HTTP. Request threads are reused
(``_HTTPServer``); concurrency is unchanged, every request is handled at
once on its own thread:

    GET  /ping                     liveness + index stats
    GET  /stats                    full index stats (primary only)
    POST /search   {"text": q, "k": 10, "kind": "topk", ...}
    POST /search_batch {"queries": [[text, k], ...], "kind": ...}
    POST /insert   {"rows": [{repo,path,commit,lang,content}, ...]}
    POST /delete   {"keys": [...]}       (doc_ids or key objects)
    POST /flush    {}                    [donkey 'sync']
    POST /compact  {"out_dir": ...}      [donkey 'misc reindex']
    POST /vsearch  {"vectors": [[f,...],...], "k": 10, "nprobe": N}
    POST /vinsert  {"rows": [{"vec_id": i, "embedding": [...]}]}
    POST /vdelete  {"vec_ids": [...]}
    GET  /vping                    vector pool liveness

Topology: text reads go through ``router`` (a ServeRouter/frontend
actor — round-robin + failover over the replica pool, so a replica
death is invisible to HTTP clients); text writes go through
``primary`` — either a single IndexServer actor or a
``serve.ShardedWriter`` facade (K hash-partitioned primaries; inserts/
deletes route by key hash over the wire, flush cuts K deltas; the
single-primary-only routes /stats and /compact answer 405 — reshard a
sharded deployment offline). The vector side mirrors this with ``vrouter``
(VectorRouter/VectorServer reads) and ``vprimary`` (VectorServer —
or a ``serve.ShardedVectorWriter`` facade — writes) — donkey's literal
insert/search core over the wire.

Write responses follow the deployment shape. /insert and /vinsert
answer ``{"buffered": N}`` from a single primary (its buffered row
count) but ``{"buffered": {"inserted": n, "buffered_per_shard":
{shard: N}}}`` from a sharded facade. /delete and /vdelete answer the
primary's own dict; a facade's tombstone count is the whole
deployment's, plus ``shards_unreachable`` when a shard is down. Any
subset may be attached: missing read actors answer 503, missing write
actors 405. The process is stateless — run several (one per node)
behind any TCP balancer; each wraps its own frontend actor over the
shared replica pool (``serve.start_frontends``)."""

from __future__ import annotations

import json
import queue
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import ray


def _call(handle, method, *args, **kwargs):
    """Dispatch to an actor handle (``.remote`` + ray.get) OR a
    driver-side facade (plain call) — the text ``primary`` slot accepts
    either a single IndexServer actor or a ``serve.ShardedWriter``
    (K hash-partitioned primaries behind one facade), so the HTTP write
    surface covers both deployment shapes with one route table."""
    m = getattr(handle, method)
    remote = getattr(m, "remote", None)
    if remote is not None:
        return ray.get(remote(*args, **kwargs))
    return m(*args, **kwargs)


class _Handler(BaseHTTPRequestHandler):
    # quiet by default: per-request stderr lines are noise under pytest
    def log_message(self, fmt, *args):  # noqa: D102
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(fmt, *args)

    # ---- plumbing ----
    def _json(self, code: int, obj) -> None:
        body = json.dumps(obj).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> dict:
        n = int(self.headers.get("Content-Length") or 0)
        if n < 0:  # read(-1) would wait for an EOF the client never sends
            raise ValueError(f"negative Content-Length {n}")
        if n == 0:
            return {}
        return json.loads(self.rfile.read(n) or b"{}")

    def _read_actor(self):
        srv = self.server  # type: ignore[assignment]
        return srv.router if srv.router is not None else srv.primary

    def _vread_actor(self):
        srv = self.server  # type: ignore[assignment]
        return srv.vrouter if srv.vrouter is not None else srv.vprimary

    # ---- routes ----
    def do_GET(self) -> None:  # noqa: N802
        try:
            if self.path == "/ping":
                h = self._read_actor()
                if h is None:
                    self._json(503, {"error": "no serving actor attached"})
                    return
                self._json(200, _call(h, "ping"))
            elif self.path == "/stats":
                h = self.server.primary  # type: ignore[attr-defined]
                if h is None or not hasattr(h, "stats"):
                    self._json(405, {"error": "stats needs a (single) "
                                     "primary IndexServer"})
                    return
                self._json(200, _call(h, "stats"))
            elif self.path == "/vping":
                h = self._vread_actor()
                if h is None:
                    self._json(503, {"error": "no vector actor attached"})
                    return
                self._json(200, _call(h, "ping"))
            else:
                self._json(404, {"error": f"unknown path {self.path}"})
        except Exception as ex:  # surface, never kill the server thread
            self._json(500, {"error": repr(ex)})

    def do_POST(self) -> None:  # noqa: N802
        srv = self.server  # type: ignore[assignment]
        try:
            req = self._body()
            if self.path == "/search":
                h = self._read_actor()
                if h is None:
                    self._json(503, {"error": "no serving actor attached"})
                    return
                kwargs = {k: req[k] for k in
                          ("kind", "window", "neg_text", "min_match")
                          if k in req}
                if "boosts" in req:
                    kwargs["boosts"] = req["boosts"]
                hits = _call(h, "search",
                             req["text"], int(req.get("k", 10)), **kwargs)
                self._json(200, {"hits": hits})
            elif self.path == "/search_batch":
                h = self._read_actor()
                if h is None:
                    self._json(503, {"error": "no serving actor attached"})
                    return
                qs = [(t, int(k)) for t, k in req["queries"]]
                kwargs = {k: req[k] for k in ("kind", "window")
                          if k in req}
                outs = (_call(h, "search_many", qs, **kwargs)
                        if hasattr(h, "search_many")
                        else [_call(h, "search", t, k, **kwargs)
                              for t, k in qs])
                self._json(200, {"results": outs})
            elif self.path == "/vsearch":
                h = self._vread_actor()
                if h is None:
                    self._json(503, {"error": "no vector actor attached"})
                    return
                k = int(req.get("k", 10))
                nprobe = req.get("nprobe")
                if hasattr(h, "search_many"):  # router: chunked fan-out
                    hits = _call(h, "search_many",
                                 req["vectors"], k, nprobe=nprobe)
                else:
                    hits = _call(h, "search",
                                 req["vectors"], k, nprobe=nprobe)
                self._json(200, {"hits": hits})
            elif self.path in ("/vinsert", "/vdelete"):
                h = srv.vprimary
                if h is None:
                    self._json(
                        405, {"error": "vector writes need a vprimary"})
                    return
                if self.path == "/vinsert":
                    self._json(200, {"buffered": _call(
                        h, "insert", req["rows"])})
                else:
                    self._json(200, _call(h, "delete", req["vec_ids"]))
            elif self.path in ("/insert", "/delete", "/flush", "/compact"):
                h = srv.primary
                if h is None:
                    self._json(
                        405, {"error": "writes need a primary IndexServer"})
                    return
                if self.path == "/insert":
                    self._json(200, {"buffered": _call(
                        h, "insert", req["rows"])})
                elif self.path == "/delete":
                    self._json(200, _call(h, "delete", req["keys"]))
                elif self.path == "/flush":
                    self._json(200, _call(h, "flush"))
                elif not hasattr(h, "compact"):
                    self._json(405, {"error": "compact needs a (single) "
                                     "primary IndexServer; reshard a "
                                     "sharded deployment offline"})
                else:
                    self._json(200, _call(h, "compact", req["out_dir"]))
            else:
                self._json(404, {"error": f"unknown path {self.path}"})
        except ray.exceptions.RayTaskError as ex:
            # MUST be the first clause: ray.get re-raises actor errors
            # as a dual-inheritance class (RayTaskError AND the cause
            # type), so a later (ValueError, ...) clause would shadow
            # this one. Classify by the actor-side cause: a bad request
            # (bad insert row, unknown query kind) is the client's 400
            # with the clean message; anything else is a server 500.
            if isinstance(ex.cause, (KeyError, ValueError, TypeError)):
                self._json(400, {"error": str(ex.cause)})
            else:
                self._json(500, {"error": repr(ex.cause)})
        except (KeyError, ValueError, TypeError) as ex:
            self._json(400, {"error": repr(ex)})
        except Exception as ex:
            self._json(500, {"error": repr(ex)})


class _HTTPServer(ThreadingHTTPServer):
    """``ThreadingHTTPServer`` whose request threads are reused: every
    request is still handled at once on a daemon thread (no cap, no
    queue), but a thread that has answered waits for the next request,
    and a new one starts only when none is idle."""

    def __init__(self, *args, **kwargs) -> None:
        self._lock = threading.Lock()
        self._idle: list[queue.SimpleQueue] = []  # idle threads' inboxes
        self._closed = False
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._lock:
            inbox = self._idle.pop() if self._idle else None
        if inbox is None:
            inbox = queue.SimpleQueue()
            threading.Thread(target=self._work, args=(inbox,),
                             daemon=True).start()
        inbox.put((request, client_address))

    def _work(self, inbox: queue.SimpleQueue) -> None:
        while (job := inbox.get()) is not None:
            try:
                self.finish_request(*job)
            except Exception:
                self.handle_error(*job)
            # idle before the connection closes: the client has its
            # answer, and its next request should find this thread
            with self._lock:
                if self._closed:
                    inbox.put(None)
                else:
                    self._idle.append(inbox)
            self.shutdown_request(job[0])

    def server_close(self) -> None:
        """Also ends the idle threads; a busy one ends after its request."""
        super().server_close()
        with self._lock:
            self._closed = True
            for inbox in self._idle:
                inbox.put(None)
            self._idle.clear()


def make_http_frontend(
    *,
    router=None,
    primary=None,
    vrouter=None,
    vprimary=None,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """Build (not start) the HTTP frontend over the given actor handles
    (text: router/primary; vector: vrouter/vprimary — any subset).
    ``port=0`` binds an ephemeral port (tests); read the bound port from
    ``server.server_address``. Call ``serve_forever()`` (or
    ``start_http_frontend`` for a daemon thread) to serve."""
    if router is None and primary is None and vrouter is None \
            and vprimary is None:
        raise ValueError("need at least one serving actor handle")
    srv = _HTTPServer((host, port), _Handler)
    srv.router = router  # type: ignore[attr-defined]
    srv.primary = primary  # type: ignore[attr-defined]
    srv.vrouter = vrouter  # type: ignore[attr-defined]
    srv.vprimary = vprimary  # type: ignore[attr-defined]
    srv.verbose = verbose  # type: ignore[attr-defined]
    return srv


def start_http_frontend(**kwargs) -> tuple[ThreadingHTTPServer, int]:
    """make_http_frontend + serve_forever on a daemon thread; returns
    (server, bound_port). ``server.shutdown()`` stops it."""
    srv = make_http_frontend(**kwargs)
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    return srv, srv.server_address[1]
