"""Output checks. Expected results come from ``oracle.BM25Oracle``, the
brute-force reference; they are reference data, computed once per seed
and never timed."""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.dataset as pads

from donkey_ray.functions.hashing import doc_id_from_key
from donkey_ray.oracle import BM25Oracle
from donkey_ray.state import manifest as mf


def read_corpus_table(corpus_dir: str) -> pa.Table:
    return pads.dataset(corpus_dir).to_table()


def check_build(corpus: pa.Table, index_dir: str) -> list[str]:
    """``n_docs`` equals the corpus row count, and every row's
    ``content_sha256`` in the docs artifact is sha256 of its content."""
    errors = []
    meta = mf.load_meta(index_dir)
    if meta["n_docs"] != corpus.num_rows:
        errors.append(f"n_docs {meta['n_docs']} != {corpus.num_rows} rows")
    want = {
        doc_id_from_key(r["repo"], r["path"], r["commit"]):
            hashlib.sha256(r["content"].encode()).hexdigest()
        for r in corpus.select(["repo", "path", "commit", "content"])
        .to_pylist()
    }
    docs = pads.dataset(os.path.join(index_dir, "docs")).to_table(
        columns=["doc_id", "content_sha256"])
    got = dict(zip(docs.column("doc_id").to_pylist(),
                   docs.column("content_sha256").to_pylist()))
    if got != want:
        bad = sum(1 for d, h in want.items() if got.get(d) != h)
        errors.append(f"docs sha256 mismatch on {bad} of {len(want)} rows"
                      f" ({len(got)} docs rows)")
    return errors


class SearchOracle:
    """Reference top-k over the base corpus plus flushed insert windows,
    with tombstones filtered the way the server does it (over-fetch by
    the tombstone count, then drop deleted docs)."""

    def __init__(self, corpus: pa.Table) -> None:
        self.ref = BM25Oracle.from_corpus(corpus)

    def add(self, rows: list[dict]) -> None:
        """Fold newly flushed rows into the reference statistics."""
        more = BM25Oracle.from_corpus(pa.Table.from_pylist(rows))
        for term, plist in more.postings.items():
            self.ref.postings.setdefault(term, {}).update(plist)
        self.ref.dl.update(more.dl)
        self.ref.n_docs += more.n_docs
        self.ref.total_len += more.total_len

    def expected(self, text: str, k: int,
                 deleted: frozenset = frozenset()) -> list[tuple[int, float]]:
        hits = self.ref.topk(text, k + len(deleted))
        return [(d, s) for d, s in hits if d not in deleted][:k]


def hits_match(hits: list[dict], want: list[tuple[int, float]]) -> bool:
    """Rank-, doc- and score-identical (exact float64)."""
    if len(hits) != len(want):
        return False
    return all(h["rank"] == r and h["doc_id"] == d and h["score"] == s
               for r, (h, (d, s)) in enumerate(zip(hits, want), start=1))
