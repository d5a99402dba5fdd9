"""Shared plumbing for the benchmark: spans, percentiles, process memory,
the HTTP client of the load generator, the Ray session, and the server
under test (``server.py``) as a child process."""

from __future__ import annotations

import http.client
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")
SERVER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "server.py")

# Ray puts unix sockets under its temp dir; their paths must stay below
# the AF_UNIX limit (107 bytes) with ~63 bytes of session suffix.
_SOCKET_SUFFIX = 64
_AF_UNIX_MAX = 107


def nproc() -> int:
    """Processing units available, as coreutils ``nproc`` counts them:
    ``OMP_NUM_THREADS`` (capped by ``OMP_THREAD_LIMIT``) when set, else
    the CPUs this process may run on."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "").split(",")[0]
    if omp.isdigit() and int(omp) > 0:
        n = int(omp)
    limit = os.environ.get("OMP_THREAD_LIMIT", "")
    if limit.isdigit() and int(limit) > 0:
        n = min(n, int(limit))
    return n


def pin_to_nproc() -> None:
    """Run this process, and every process it starts (Ray's included), on
    the first ``nproc()`` CPUs it may use. The load generator, the server
    under test and Ray then share the CPUs a one-core host would have,
    and a run does not depend on where the scheduler places them."""
    os.sched_setaffinity(0, set(sorted(os.sched_getaffinity(0))[:nproc()]))


def now() -> float:
    return time.perf_counter()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample: the
    smallest value with at least q% of the sample at or below it."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def median(values: list[float]) -> float:
    return statistics.median(values)


def dir_bytes(path: str) -> int:
    total = 0
    for d, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(d, f))
    return total


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def descendants(pid: int) -> list[int]:
    """All live descendant pids of ``pid`` (from /proc/<n>/stat)."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except OSError:
            continue
        children.setdefault(ppid, []).append(int(name))
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def ray_worker_peak_mb() -> float:
    """Largest VmHWM among this session's Ray worker processes (where
    Ray Data tasks run), in MiB."""
    peak = 0.0
    for pid in descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
            if b"default_worker" in cmd:
                peak = max(peak, vm_hwm_mb(pid))
        except OSError:
            continue
    return peak


class Tracer:
    """In-memory spans: (id, name, start, end, parent, req). Written out
    once, when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, req: int | None = None):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "start": now(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "req": req}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = now()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per-name self time: a span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = (out.get(s["name"], 0.0)
                              + (s["end"] - s["start"]) - child[s["id"]])
        return out

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def write(self, path: str, extra: list[dict] = ()) -> None:
        """Spans as JSON lines, then any ``extra`` records."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for rec in [*self.spans, *extra]:
                f.write(json.dumps(rec) + "\n")


class RaySession:
    """A local Ray session sized to the host (num_cpus = nproc), with
    its temp dir inside the checkout when the socket paths fit.
    ``stop`` waits until every process the session started has exited."""

    def __init__(self) -> None:
        import ray
        import ray.data

        os.environ["PYTHONPATH"] = ROOT  # Ray workers import donkey_ray
        kwargs = {}
        self._tmp = os.path.join(WORK, f"ray{os.getpid()}")
        if len(self._tmp) + _SOCKET_SUFFIX <= _AF_UNIX_MAX:
            os.makedirs(self._tmp, exist_ok=True)
            kwargs["_temp_dir"] = self._tmp
        before = set(descendants(os.getpid()))
        ray.init(address="local", num_cpus=nproc(),
                 include_dashboard=False, log_to_driver=False,
                 object_store_memory=256 << 20, logging_level="ERROR",
                 **kwargs)
        ray.data.DataContext.get_current().enable_progress_bars = False
        self._roots = [p for p in descendants(os.getpid())
                       if p not in before]
        self.address = ray.get_runtime_context().gcs_address

    def stop(self, timeout_s: float = 30.0) -> None:
        import ray

        pids = set(self._roots)
        for p in self._roots:
            pids.update(descendants(p))
        started = {p: _stat(p) for p in pids}
        ray.shutdown()
        deadline = now() + timeout_s
        while True:
            # alive = same process (same start time) and not a zombie
            left = [p for p, st in started.items()
                    if st and (cur := _stat(p)) and cur[1] == st[1]
                    and cur[0] != "Z"]
            if not left:
                shutil.rmtree(self._tmp, ignore_errors=True)
                return
            if now() > deadline:  # SIGKILL what did not exit in time
                for p in left:
                    try:
                        os.kill(p, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                deadline = now() + timeout_s
            time.sleep(0.05)


def _stat(pid: int) -> tuple[str, int] | None:
    """(state, start time) of a process from /proc/<pid>/stat, or None."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[19])


def warm_ray() -> None:
    """Spawn the worker pool and import the build stages in it, then run
    one small shuffle, so the first timed build pays no process start
    (mirrors ``bench.py``'s scaling child)."""
    import pyarrow as pa
    import ray.data

    def _warm(batch):
        import donkey_ray.stages.encode  # noqa: F401
        import donkey_ray.stages.extract  # noqa: F401
        return batch

    n = nproc()
    ray.data.range(n * 4, override_num_blocks=n * 2).map_batches(
        _warm, batch_size=2).materialize()

    def _key(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_numpy()
        return pa.table({"k": pa.array((ids % 7).astype("int32"))})

    ray.data.range(5000, override_num_blocks=4).map_batches(
        _key, batch_format="pyarrow").groupby("k").map_groups(
        lambda g: g.slice(0, 1), batch_format="pyarrow").materialize()


class Server:
    """The server under test: ``server.py`` in its own process, hosting
    an ``IndexServer`` as the primary of the HTTP frontend."""

    def __init__(self, index_dir: str, log_path: str, *,
                 ray_addr: str | None = None) -> None:
        cmd = [sys.executable, SERVER, "--index", index_dir]
        if ray_addr:
            cmd += ["--ray-address", ray_addr]
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": ROOT})
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=30)
            self._log.close()
            raise RuntimeError(f"server exited rc={self.proc.returncode}; "
                               f"see {log_path}")
        ready = json.loads(line)
        self.port = int(ready["port"])
        self.open_s = float(ready["open_s"])

    def rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def kill(self) -> None:
        """SIGKILL and reap: the crash the journal exists for."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self._log.close()


def request(port: int, method: str, path: str, obj: dict | None = None,
            *, body: bytes | None = None) -> tuple[int, bytes]:
    """One request on a fresh connection (the frontend speaks HTTP/1.0),
    so at most one connection is open at a time. ``body`` is ``obj``
    already encoded."""
    if body is None and obj is not None:
        body = json.dumps(obj).encode()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        if body is None:
            conn.request(method, path)
        else:
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()
