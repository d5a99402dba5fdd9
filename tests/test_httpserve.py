"""The HTTP frontend's request threads and body parsing, over a stub
primary (no Ray, no index): every request is handled at once (no cap),
threads are reused, none outlives ``server_close``, and a bad
Content-Length is answered 400 instead of hanging the connection."""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading

import pytest

from donkey_ray.httpserve import start_http_frontend


class _Primary:
    """Records the thread of every ``/ping``; optionally waits on a
    barrier first."""

    def __init__(self, barrier: threading.Barrier | None = None) -> None:
        self.barrier = barrier
        self.threads: list[threading.Thread] = []

    def ping(self) -> dict:
        self.threads.append(threading.current_thread())
        if self.barrier is not None:
            self.barrier.wait()
        return {"ok": True}


def _ping(port: int) -> int:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    conn.request("GET", "/ping")
    r = conn.getresponse()
    assert json.loads(r.read()) == {"ok": True}
    conn.close()
    return r.status


def _closed(srv, threads) -> None:
    srv.shutdown()
    srv.server_close()
    for t in set(threads):
        t.join(5)
        assert t.daemon and not t.is_alive(), t


def test_concurrent_requests_are_not_capped():
    """16 handlers must all be inside ping at once to pass the barrier,
    round after round on reused threads; a short switch interval makes
    a lost update to the idle list (one thread handed two requests)
    likely, and it would break the barrier."""
    primary = _Primary(threading.Barrier(16, timeout=20))
    srv, port = start_http_frontend(primary=primary)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            codes: list[int] = []
            clients = [threading.Thread(
                target=lambda: codes.append(_ping(port)))
                for _ in range(16)]
            for c in clients:
                c.start()
            for c in clients:
                c.join(30)
                assert not c.is_alive()
            assert codes == [200] * 16
            assert len(set(primary.threads[-16:])) == 16
    finally:
        sys.setswitchinterval(interval)
        _closed(srv, primary.threads)


def test_sequential_requests_reuse_threads():
    primary = _Primary()
    srv, port = start_http_frontend(primary=primary)
    try:
        for _ in range(200):
            assert _ping(port) == 200
        assert len(primary.threads) == 200
        assert len(set(primary.threads)) <= 2
    finally:
        _closed(srv, primary.threads)


@pytest.mark.parametrize("length", ["-1", "-5", "abc"])
def test_bad_content_length_answers_400(length):
    """A negative length used to read to EOF: a client holding its
    connection open never got an answer and held a thread forever."""
    primary = _Primary()
    srv, port = start_http_frontend(primary=primary)
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
            s.sendall(b"POST /search HTTP/1.0\r\nContent-Length: "
                      + length.encode() + b"\r\n\r\n{}")
            reply = b""
            while b"\r\n\r\n" not in reply:  # socket timeout: no answer
                chunk = s.recv(4096)
                assert chunk, reply
                reply += chunk
        assert reply.startswith(b"HTTP/1.0 400"), reply
        assert _ping(port) == 200
    finally:
        _closed(srv, primary.threads)
