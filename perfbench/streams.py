"""Seeded inputs: the hot and cold query streams and the ingest rows.

The same seed gives the same streams. The program under test only ever
sees the generated texts and rows."""

from __future__ import annotations

import numpy as np

from donkey_ray import synth

HOT_POOL = 200        # distinct queries in the hot pool (pinned query mix)
ZIPF_S = 1.0          # popularity skew over the hot pool
COLD_WARMUP = 150     # disjoint warm-up queries before a cold stream


def hot_pool(seed: int) -> list[tuple[str, int]]:
    """Distinct (text, k) queries of the pinned ``synth.make_queries``
    mix in its own order, which cycles through the five query kinds, so
    every seed's most popular queries cover each kind once."""
    seen, pool = set(), []
    for r in synth.make_queries(HOT_POOL, seed=seed).to_pylist():
        if r["text"] not in seen:
            seen.add(r["text"])
            pool.append((r["text"], int(r["k"])))
    return pool


class HotStream:
    """Zipf-popular draws from the hot pool; each ``part`` of a run draws
    its own sequence from the same pool."""

    def __init__(self, seed: int, part: int = 0) -> None:
        self.pool = hot_pool(seed)
        p = 1.0 / np.arange(1, len(self.pool) + 1) ** ZIPF_S
        self._p = p / p.sum()
        self._rng = np.random.default_rng([seed, 13, part])

    def warmup(self) -> list[tuple[str, int]]:
        return list(self.pool)

    def take(self, n: int) -> list[tuple[str, int]]:
        idx = self._rng.choice(len(self.pool), size=n, p=self._p)
        return [self.pool[i] for i in idx]


def cold_terms() -> list[str]:
    """The corpus vocabulary plus the language keywords."""
    kws = sorted({w for ws in synth._KW.values() for w in ws})
    return synth._vocab() + kws


class ColdStream:
    """Distinct 1-4 term queries in which no term repeats, so each term's
    dictionary resolve and run decode happen once per server. The warm-up
    stream uses a disjoint slice. The term list holds about 1800 queries
    after the warm-up; each ``part`` of a run is a new permutation."""

    def __init__(self, seed: int, part: int = 0) -> None:
        self._rng = np.random.default_rng([seed, 17, part])
        terms = cold_terms()
        perm = self._rng.permutation(len(terms))
        self._terms = [terms[i] for i in perm]
        self._warm = self._queries(self._terms[:COLD_WARMUP * 3],
                                   COLD_WARMUP)
        self._pool = self._terms[COLD_WARMUP * 3:]
        self._pos = 0

    def _queries(self, terms: list[str], n: int) -> list[tuple[str, int]]:
        out, pos = [], 0
        for _ in range(n):
            m = int(self._rng.integers(1, 5))
            out.append((" ".join(terms[(pos + j) % len(terms)]
                                 for j in range(m)), 10))
            pos += m
        return out

    def warmup(self) -> list[tuple[str, int]]:
        return list(self._warm)

    def take(self, n: int) -> list[tuple[str, int]]:
        out = []
        for _ in range(n):
            m = int(self._rng.integers(1, 5))
            if self._pos + m > len(self._pool):
                raise ValueError("cold stream used up its terms")
            out.append((" ".join(self._pool[self._pos:self._pos + m]), 10))
            self._pos += m
        return out


def stream(workload: str, seed: int, part: int = 0):
    cls = HotStream if workload == "search-hot" else ColdStream
    return cls(seed, part)


def marker(seed: int, window: int) -> str:
    """A token found only in the rows of one ingest window."""
    return f"ingestmark{seed}w{window}"


def ingest_rows(seed: int, start: int, n: int, window: int) -> list[dict]:
    """``n`` new corpus rows (keys disjoint from the base corpus), each
    carrying its window's marker token."""
    t = synth.make_corpus(n, seed=seed * 1000 + start).to_pylist()
    mark = marker(seed, window)
    return [{"repo": "ingest/stream", "path": f"ins/{start + i}.py",
             "commit": r["commit"], "lang": r["lang"],
             "content": r["content"] + f"\nreturn {mark};"}
            for i, r in enumerate(t)]
