"""The server under test: ``IndexServer`` (in-process, no Ray actors) as
the primary of ``httpserve.make_http_frontend``.

Prints one JSON line ``{"port", "open_s", "pid"}`` once it accepts
requests, then serves until killed. ``open_s`` is the wall time of the
``IndexServer(index_dir)`` constructor, which replays the journal when
one is present. ``--ray-address`` joins an existing Ray session, which
``/flush`` needs for its delta build; the join runs in the background.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time


def _join_ray_for_flush(primary, address: str) -> None:
    """Join the Ray session on a background thread, so the server answers
    while it connects; ``flush`` waits for the connection."""
    joined = threading.Event()
    failure: list[BaseException] = []

    def join() -> None:
        try:
            import ray
            import ray.data

            ray.init(address=address, log_to_driver=False,
                     logging_level="ERROR")
            ray.data.DataContext.get_current().enable_progress_bars = False
        except BaseException as ex:  # surfaced by the next flush
            failure.append(ex)
        finally:
            joined.set()

    threading.Thread(target=join, daemon=True).start()
    flush = primary.flush

    def flush_when_joined(*args, **kwargs):
        joined.wait()
        if failure:
            raise RuntimeError("could not join Ray") from failure[0]
        return flush(*args, **kwargs)

    primary.flush = flush_when_joined


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--index", required=True)
    ap.add_argument("--ray-address")
    args = ap.parse_args()

    from donkey_ray.httpserve import make_http_frontend
    from donkey_ray.serve import IndexServer
    from donkey_ray.stages import score  # noqa: F401  (keep imports out of open_s)

    t0 = time.perf_counter()
    primary = IndexServer(args.index)
    open_s = time.perf_counter() - t0
    if args.ray_address:
        _join_ray_for_flush(primary, args.ray_address)
    srv = make_http_frontend(primary=primary)
    print(json.dumps({"port": srv.server_address[1], "open_s": open_s,
                      "pid": os.getpid()}), flush=True)
    srv.serve_forever()


if __name__ == "__main__":
    sys.exit(main())
