"""Pinned BM25 scoring spec (SURVEY.md section 2B) — single source of truth.

Engine, oracle and DuckDB oracle SQL all derive from these constants:
  k1 = 1.2, b = 0.75
  idf(t)     = ln((N - df + 0.5) / (df + 0.5) + 1)        (Lucene-style, >= 0)
  score(d,q) = sum_t idf(t) * tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl))
Ties broken by ascending doc_id. Query terms are DEDUPLICATED (a duplicated
query term counts once). All math in float64. Every ranked answer, per
query or per group, takes its order from ``topk_order`` (one group) or
``grouped_topk`` (many): score desc, then id asc, ranked 1..k.

Donkey parallel [PK]: donkey's object-level rerank aggregates per-feature
match scores (src/donkey.cpp search path, file-level, see SURVEY.md
section 0); BM25 is the north rule's mandated scorer.
"""

from __future__ import annotations

import numpy as np

K1 = 1.2
B = 0.75


def idf(df, n_docs: float):
    """Lucene-style non-negative idf; df may be scalar or ndarray."""
    df = np.asarray(df, dtype=np.float64)
    return np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)


def tf_weight(tf, dl, avgdl: float):
    """tf*(k1+1) / (tf + k1*(1 - b + b*dl/avgdl)); tf, dl may be ndarrays."""
    tf = np.asarray(tf, dtype=np.float64)
    dl = np.asarray(dl, dtype=np.float64)
    return tf * (K1 + 1.0) / (tf + K1 * (1.0 - B + B * dl / avgdl))


def merge_scored_runs(
    per_ids: "list[np.ndarray]", per_scores: "list[np.ndarray]"
) -> "tuple[np.ndarray, np.ndarray]":
    """Sum (ids, scores) pairs, ids unique within each pair, into one
    (sorted ids, summed scores) pair.

    bincount adds its weights in input order, so each doc's
    contributions add in LIST ORDER: the float64 sums are bit-identical
    to a per-doc accumulation in term order (property-pinned in tests),
    whatever order the ids come in within a list. One pair is returned
    as given; input arrays are never modified."""
    if len(per_ids) == 1:
        return per_ids[0], per_scores[0]
    uniq, inv = np.unique(np.concatenate(per_ids), return_inverse=True)
    return uniq, np.bincount(inv, weights=np.concatenate(per_scores),
                             minlength=uniq.size)


def topk_order(doc_ids: np.ndarray, scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the top-k by (score desc, doc_id asc) — pinned tie-break.

    O(n) partition prefilter: every true top-k row scores >= the k-th
    largest score, so only that candidate pool (k + boundary ties) pays
    the O(c log c) lexsort — identical output to sorting everything."""
    n = len(scores)
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    if k >= n or n == 0:
        return np.lexsort((doc_ids, -scores))[:k]
    kth = np.partition(scores, n - k)[n - k]
    cand = np.flatnonzero(scores >= kth)
    order = cand[np.lexsort((doc_ids[cand], -scores[cand]))]
    return order[:k]


def group_ranks(sorted_groups: np.ndarray) -> np.ndarray:
    """Each row's 0-based position within its run of equal values
    (``sorted_groups`` ascending)."""
    g = sorted_groups
    return np.arange(len(g)) - np.searchsorted(g, g)


def grouped_topk(groups: np.ndarray, ids: np.ndarray, scores: np.ndarray,
                 k, *, descending: bool = True) -> np.ndarray:
    """Row indices of each group's top-k by (score desc, id asc), in
    (group asc, rank) order — ``topk_order`` for many groups at once.
    ``k`` is an int or one value per row (equal within a group).
    ``descending=False`` ranks score asc instead (distances, unsigned
    keys that cannot be negated). Rows tied on (score, id) keep their
    input order (the sort is stable)."""
    key = -scores if descending else scores
    order = np.lexsort((ids, key, groups))
    kk = k if np.isscalar(k) else k[order]
    return order[group_ranks(groups[order]) < kk]


class BM25Scorer:
    """Default scorer (the pinned spec above) in registry form."""

    name = "bm25"
    idf = staticmethod(idf)
    tf_weight = staticmethod(tf_weight)


_SCORERS: dict[str, type] = {"bm25": BM25Scorer}


def register_scorer(name: str, factory) -> None:
    """Extension point (the engine's second sanctioned plugin surface,
    beside the tokenizer registry — donkey's compile-time plugin
    specialization analogue). A scorer provides:

      idf(df, n_docs) -> float/ndarray          (term weight)
      tf_weight(tf, dl, avgdl) -> float/ndarray (per-posting weight)

    REQUIREMENT for correctness under block-max WAND pruning:
    ``tf_weight`` must be non-decreasing in tf and non-increasing in dl
    (so score(max_tf, min_dl) upper-bounds every posting of a block),
    and ``idf`` must be non-negative. Any scorer violating this must be
    served with mode="exact"."""
    _SCORERS[name] = factory


def get_scorer(name: str):
    if name not in _SCORERS:
        raise KeyError(f"unknown scorer {name!r}; registered: {sorted(_SCORERS)}")
    return _SCORERS[name]()
