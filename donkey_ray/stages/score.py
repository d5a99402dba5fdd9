"""Query scoring: dictionary + segment reader + exact/WAND top-k
(SURVEY.md B14/B19; donkey analogue [PK]: Index::search + object rerank,
src/donkey.cpp search path — SURVEY.md section 0).

``QueryEngine`` is the per-actor state (donkey's in-RAM index handle):
built once per ``QueryScorerStage`` actor, reused for every query batch.
Its dictionary is sharded and lazy (``_SegmentShard``): terms are routed
to candidate partitions by the build-time hash (+ salt table for hot
terms) and resolved by row-group-pruned binary search, so per-actor
memory never scales with corpus vocabulary.

A term's postings may live in several runs (salted hot terms land in
multiple partitions); the runs of one term hold disjoint doc_id sets,
each with its own block-max metadata, and idf comes from the summed df.

Two scorers, rank- and score-identical bit for bit (tested on tie-heavy
corpora):
  exact — every operator except WAND reads one decoded, doc-merged
          ``_TermPostings`` entry per term from one term-keyed LRU, then
          scores vectorized + top-k.
  wand  — block-max WAND whose memory does not grow with the posting
          lists. A multi-term query walks doc-id windows cut at block
          ends, skips what the block bounds rule out and decodes only
          the blocks holding surviving candidates (the doc-id delta
          stream resets per block and the segment stores per-block byte
          offsets); scores add in term order, as exact's do. A
          single-term query visits its blocks in descending bound order.
``auto`` runs exact when the query's decoded entries fit the postings
cache, else WAND: exact was faster on every shape measured.
"""

from __future__ import annotations

import bisect
from functools import reduce
from itertools import accumulate
from operator import add

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions import scoring
from ..functions.codec import decode_runs, varbyte_decode
from ..functions.hashing import candidate_parts
from ..functions.tokenize import get_tokenizer
from ..state import manifest as mf
from ..util import _LRU
from .. import schemas

_CACHE_GROUPS = 16      # per shard: cached term/df columns and row groups
_CACHE_PARTS = 64       # open segment shards per engine
_CACHE_TERM_RUNS = 1024  # term -> segment rows
_TOPDOCS_K = 256        # ranked depth of a postings entry's ``top``
# decoded values over every array a postings entry holds: 4M postings
# of (docs, tfs, dls, scores), ~128 MB per engine at 8 bytes a value
_POSTINGS_BUDGET = 16_000_000


def _flat_columns(tbl: pa.Table) -> dict:
    """A row group as flat columns, taken from the arrow buffers once: a
    binary or list column as (offsets, values) numpy arrays, any other
    column as a Python list."""
    cols = {}
    for name in tbl.column_names:
        a = tbl.column(name).combine_chunks()
        if pa.types.is_binary(a.type):
            _, off, data = a.buffers()
            cols[name] = (np.frombuffer(off, np.int32)[a.offset:][:len(a) + 1],
                          np.frombuffer(data or b"", np.uint8))
        elif pa.types.is_list(a.type):
            cols[name] = (a.offsets.to_numpy(), a.values.to_numpy())
        else:
            cols[name] = a.to_pylist()
    return cols


def _ranked(docs: np.ndarray, scores: np.ndarray,
            k: int) -> list[tuple[int, float]]:
    """Top-k (doc_id, score) pairs in the pinned (score desc, doc_id
    asc) order."""
    o = scoring.topk_order(docs, scores, k)
    return list(zip(docs[o].tolist(), scores[o].tolist()))


def _in_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the ``a`` values present in the sorted, non-empty ``b``."""
    return b[np.minimum(np.searchsorted(b, a), b.size - 1)] == a


class _Run:
    """One posting run of a WAND query term: its blocks' last docs and
    score bounds, and a lazy decode of one block at a time. Only the
    last block decoded is kept, so a run never holds more than one
    decoded block; a scorer that visits a run's blocks in ascending
    order decodes each at most once."""

    __slots__ = ("row", "idf", "scorer", "avgdl", "bld", "bub", "blk",
                 "docs", "tf_dl", "scores", "blocks_decoded")

    def __init__(self, idf, row, scorer, avgdl):
        self.row, self.idf, self.scorer, self.avgdl = row, idf, scorer, avgdl
        self.bld = np.asarray(row["block_last_doc"], dtype=np.int64)
        self.bub = idf * scorer.tf_weight(
            np.asarray(row["block_max_tf"], dtype=np.float64),
            np.asarray(row["block_min_dl"], dtype=np.float64), avgdl)
        self.blk = -1
        self.blocks_decoded = 0

    def block_docs(self, b: int) -> np.ndarray:
        """The sorted docs of block ``b``."""
        if b != self.blk:
            r = self.row
            # the block's doc, tf and dl streams in one varbyte pass
            v = varbyte_decode(np.concatenate([
                r[col][r[off][b]: r[off][b + 1]] for col, off in (
                    ("doc_ids", "block_doc_boff"), ("tfs", "block_tf_boff"),
                    ("dls", "block_dl_boff"))]))
            n = v.size // 3
            # the doc-id delta stream restarts at every block
            self.docs = np.cumsum(v[:n], dtype=np.uint64).astype(np.int64)
            self.tf_dl, self.blk, self.scores = v[n:], b, None
            self.blocks_decoded += 1
        return self.docs

    def block_scores(self, b: int) -> np.ndarray:
        """idf * tf_weight of block ``b``'s postings, in doc order."""
        n = self.block_docs(b).size
        if self.scores is None:
            self.scores = self.idf * self.scorer.tf_weight(
                self.tf_dl[:n], self.tf_dl[n:], self.avgdl)
        return self.scores


class _SegmentShard:
    """Lazy sharded-dictionary access for ONE segment file (SURVEY.md A5
    serving path at scale).

    Segment rows are term-sorted on disk, so a term lookup is: (1) prune
    to one parquet row group via the term column's min/max statistics,
    (2) binary-search the (cached) term column of that row group, (3)
    fetch the full row group only on a hit, kept as flat numpy columns
    (``_flat_columns``). Per-shard memory is bounded by the row-group LRU
    caches — NEVER proportional to the partition's vocabulary, so actors
    stay small at 10^9+-term corpora."""

    def __init__(self, path: str) -> None:
        self.pf = pq.ParquetFile(path)
        md = self.pf.metadata
        self.n_groups = md.num_row_groups if md.num_rows else 0
        self._term_ci = None
        self.rg_min: list[str | None] = []
        self.rg_max: list[str | None] = []
        if self.n_groups:
            rg0 = md.row_group(0)
            for i in range(rg0.num_columns):
                if rg0.column(i).path_in_schema == "term":
                    self._term_ci = i
                    break
            for g in range(self.n_groups):
                st = md.row_group(g).column(self._term_ci).statistics
                if st is not None and st.has_min_max:
                    self.rg_min.append(st.min)
                    self.rg_max.append(st.max)
                else:
                    self.rg_min.append(None)
                    self.rg_max.append(None)
        self._stats_complete = None not in self.rg_max
        # a row group is read without its (separately cached) terms
        self._row_columns = [n for n in self.pf.schema_arrow.names
                             if n != "term"]
        # term column of group g under key g, its df column under -g - 1
        self._columns = _LRU(_CACHE_GROUPS)
        self._groups = _LRU(_CACHE_GROUPS)

    def _candidate_group(self, term: str) -> int | None:
        if not self.n_groups:
            return None
        if not self._stats_complete:
            # stats missing (shouldn't happen with our writer): scan
            for g in range(self.n_groups):
                terms = self._group_terms(g)
                if len(terms) and terms[0] <= term <= terms[-1]:
                    return g
            return None
        g = bisect.bisect_left(self.rg_max, term)
        if g >= self.n_groups or self.rg_min[g] > term:
            return None
        return g

    def _group_column(self, g: int, key: int, name: str) -> np.ndarray:
        return self._columns.load(
            key, lambda: self.pf.read_row_group(g, columns=[name])
            .column(name).to_numpy(zero_copy_only=False))

    def _group_terms(self, g: int) -> np.ndarray:
        return self._group_column(g, g, "term")

    def terms_in_range(self, lo: str, hi: str) -> list[str]:
        """All dictionary terms t with lo <= t < hi, in term order.
        Row groups whose [min, max] term statistics don't overlap the
        range are never read; overlapping groups cost one (LRU-cached)
        term-column read + binary search."""
        out: list[str] = []
        for g in range(self.n_groups):
            mn, mx = self.rg_min[g], self.rg_max[g]
            if mn is not None and (mx < lo or mn >= hi):
                continue
            terms = self._group_terms(g)
            i = int(np.searchsorted(terms, lo, side="left"))
            j = int(np.searchsorted(terms, hi, side="left"))
            out.extend(terms[i:j].tolist())
        return out

    def find_df(self, term: str) -> int | None:
        """df of ``term`` (or None) WITHOUT touching posting buffers:
        reads only the candidate row group's df column (LRU-cached).
        Used by df pre-passes (scatter-gather idf resolution) where the
        full row-group read of find() would be wasted I/O."""
        g = self._candidate_group(term)
        if g is None:
            return None
        terms = self._group_terms(g)
        i = int(np.searchsorted(terms, term))
        if i >= len(terms) or terms[i] != term:
            return None
        return int(self._group_column(g, -g - 1, "df")[i])

    def find(self, term: str) -> dict | None:
        """Segment row for ``term`` (postings + block metadata, without
        the term itself), or None: binary and list cells as numpy arrays
        COPIED out of the row group (a kept row never pins its group),
        others as Python values. Costs at most one row-group term-column
        read + (on hit) one row-group read, both LRU-cached."""
        g = self._candidate_group(term)
        if g is None:
            return None
        terms = self._group_terms(g)
        i = int(np.searchsorted(terms, term))
        if i >= len(terms) or terms[i] != term:
            return None
        cols = self._groups.load(g, lambda: _flat_columns(
            self.pf.read_row_group(g, columns=self._row_columns)))
        return {name: c[i] if isinstance(c, list)
                else c[1][c[0][i]:c[0][i + 1]].copy()
                for name, c in cols.items()}


class _TermPostings:
    """ONE term's postings across all its runs (salted / federated —
    disjoint doc sets), decoded and merged doc-sorted: ``docs``,
    ``tfs``, ``dls`` (float64) and the query-independent BM25 ``scores``
    = idf(df) * tf_weight (df, n_docs and avgdl are engine constants),
    plus a lazily ranked ``top`` for repeated single-term top-k.
    Positions decode LAZILY per block (``positions_for``): only blocks
    holding selected postings are ever decoded (the position delta
    stream resets at every posting and the segment stores per-block
    byte offsets). Arrays are shared across queries, so read-only; each
    owns its memory (none is a view of a row group or of the decode
    batch it came from)."""

    def __init__(self, runs: list[tuple], block_size: int, scorer,
                 n_docs: int, avgdl: float) -> None:
        """``runs``: per run, its decoded (docs, tfs, dls) from
        ``codec.decode_runs`` and its segment row."""
        self.block_size = block_size
        runs = sorted(runs, key=lambda r: int(r[0][0]))
        # run r holds concatenated postings [off[r], off[r + 1])
        self._off = [0, *accumulate(r[0].size for r in runs)]
        # per run: the position stream and its block byte offsets (only
        # these of a segment row are kept; positional indexes only)
        self._poss = [(r["poss"], np.asarray(r["block_pos_boff"], np.int64))
                      for *_, r in runs] if "poss" in runs[0][3] else None
        # concatenate copies, even a single run
        docs = np.concatenate([r[0] for r in runs])
        tfs = np.concatenate([r[1] for r in runs], dtype=np.float64)
        dls = np.concatenate([r[2] for r in runs], dtype=np.float64)
        # each run is doc-sorted, so runs in first-doc order concatenate
        # sorted (salted runs) unless two interleave (federated members):
        # one argsort repairs that
        self._perm = self._inv = None  # merged <-> concatenated index
        if any(a[0][-1] > b[0][0] for a, b in zip(runs, runs[1:])):
            self._perm = np.argsort(docs, kind="stable")
            self._inv = np.empty_like(self._perm)
            self._inv[self._perm] = np.arange(self._perm.size)
            docs, tfs, dls = docs[self._perm], tfs[self._perm], dls[self._perm]
        self.idf = float(scorer.idf(docs.size, n_docs))
        self.docs, self.tfs, self.dls = docs, tfs, dls
        self.scores = self.idf * scorer.tf_weight(tfs, dls, avgdl)
        for a in (docs, tfs, dls, self.scores):
            a.flags.writeable = False
        self._top: tuple[np.ndarray, np.ndarray] | None = None
        # the budgeted size in 8-byte values: every array, ``top`` at its
        # full depth, and the kept position streams
        self.n_values = (4 * docs.size + 2 * min(_TOPDOCS_K, docs.size)
                         + (0 if self._perm is None else 2 * docs.size)
                         + sum(len(p) // 8 + o.size for p, o in self._poss or ()))

    def top(self) -> tuple[np.ndarray, np.ndarray]:
        """(docs, scores) of the term's top ``_TOPDOCS_K`` postings,
        ranked; computed on first use."""
        if self._top is None:
            o = scoring.topk_order(self.docs, self.scores, _TOPDOCS_K)
            self._top = (self.docs[o], self.scores[o])
        return self._top

    def positions_for(self, sel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sel: indices into self.docs. Returns (docs_rep, positions) —
        every (doc, token position) pair of the selected postings,
        flattened. Decodes only the blocks the selected postings live in."""
        cat = sel if self._perm is None else self._perm[sel]
        run = np.searchsorted(self._off, cat, side="right") - 1
        out_docs: list[np.ndarray] = []
        out_pos: list[np.ndarray] = []
        for r in np.unique(run):
            d, p = self._run_positions(int(r), np.sort(cat[run == r]))
            out_docs.append(d)
            out_pos.append(p)
        if not out_docs:
            return (np.empty(0, dtype=np.int64),) * 2
        return np.concatenate(out_docs), np.concatenate(out_pos)

    def _run_positions(self, r: int, cat: np.ndarray):
        poss, boff = self._poss[r]
        base = self._off[r]
        idxs = cat - base  # run-local posting indices, sorted
        bs = self.block_size
        n = self._off[r + 1] - base
        out_docs: list[np.ndarray] = []
        out_pos: list[np.ndarray] = []
        for b in np.unique(idxs // bs):
            lo, hi = int(b) * bs, min((int(b) + 1) * bs, n)
            # merged indices of the block's postings, in run order
            blk = (np.arange(base + lo, base + hi) if self._inv is None
                   else self._inv[base + lo: base + hi])
            deltas = varbyte_decode(poss[boff[b]: boff[b + 1]])
            counts = self.tfs[blk].astype(np.int64)
            starts = np.zeros(len(counts), dtype=np.int64)
            np.cumsum(counts[:-1], out=starts[1:])
            c = np.cumsum(deltas, dtype=np.uint64)
            prefix = c[starts] - deltas[starts]
            abs_pos = (c - np.repeat(prefix, counts)).astype(np.int64)
            j = idxs[(idxs >= lo) & (idxs < hi)] - lo
            s, cnt = starts[j], counts[j]
            total = int(cnt.sum())
            # ragged gather: flat indices of the selected postings' slices
            flat = np.repeat(s, cnt) + (
                np.arange(total, dtype=np.int64)
                - np.repeat(np.cumsum(cnt) - cnt, cnt)
            )
            out_pos.append(abs_pos[flat])
            out_docs.append(np.repeat(self.docs[blk[j]], cnt))
        return np.concatenate(out_docs), np.concatenate(out_pos)


class QueryEngine:
    """Index handle with a SHARDED, lazily-loaded dictionary; serves top-k.

    No global term dictionary is ever built: a term's candidate
    partitions are recomputed from the routing hash (cold terms: one
    partition; hot terms: the salted partition set from the build
    manifest), and each partition shard resolves the term by row-group-
    pruned binary search (_SegmentShard). Per-actor memory is O(LRU
    caches), independent of corpus vocabulary.

    The engine never changes after construction (a flush or compaction
    opens a new one), so a term string is an exact cache key: every
    exact operator reads one ``_TermPostings`` entry per term from one
    values-budgeted, term-keyed LRU (``postings``); WAND reads the raw
    segment rows (``term_runs``) and holds one decoded block per run."""

    def __init__(self, index_dir: str | list[str], *, mode: str = "auto",
                 scorer: str = "bm25") -> None:
        """``index_dir`` may be a LIST of index dirs: federated exact BM25
        over the union corpus (incremental builds are queried without
        compaction — donkey's multi-segment search analogue). Stats are
        summed; runs across indexes are extra disjoint iterators."""
        dirs = [index_dir] if isinstance(index_dir, str) else list(index_dir)
        for d in dirs:
            if not mf.is_complete(d):
                raise FileNotFoundError(f"index at {d} is not complete")
        self.index_dirs = dirs
        self.index_dir = dirs[0]
        metas = [mf.load_meta(d) for d in dirs]
        self.metas = metas
        self.meta = metas[0]
        # federated correctness requires ONE segment format + ONE query
        # tokenizer across all member indexes; differing members would
        # silently mis-decode doc ids / tokenize inconsistently.
        # format_version compares by SEGMENT-FORMAT GENERATION: v3 only
        # added the optional docs doc_len column + lang_stats meta (the
        # posting encoding is byte-identical to v2), so a v2 base with a
        # v3 delta federates fine — a hard equality here would wedge
        # IndexServer.flush on every pre-bump artifact.
        compat = {2: 2, 3: 2}
        for key in ("block_size", "format_version", "query_lang"):
            vals = {m.get(key) for m in metas}
            if key == "format_version":
                vals = {compat.get(v, v) for v in vals}
            if len(vals) > 1:
                raise ValueError(
                    f"federated indexes disagree on {key}: {sorted(map(str, vals))}"
                )
        self.n_docs = int(sum(m["n_docs"] for m in metas))
        total_len = sum(m["total_len"] for m in metas)
        self.avgdl = (total_len / self.n_docs) if self.n_docs else 0.0
        # per-lang collection stats (SURVEY §1.2 "+ per-lang"), summed
        # across federated members; {} for pre-v3 artifacts
        self.lang_stats: dict = {}
        for m in metas:
            for lg, st in (m.get("lang_stats") or {}).items():
                cur = self.lang_stats.setdefault(
                    lg, {"n_docs": 0, "total_len": 0})
                cur["n_docs"] += int(st["n_docs"])
                cur["total_len"] += int(st["total_len"])
        for st in self.lang_stats.values():
            st["avgdl"] = (st["total_len"] / st["n_docs"]
                           if st["n_docs"] else 0.0)
        self.block_size = int(self.meta.get("block_size", schemas.BLOCK_SIZE))
        self.mode = mode
        self.query_lang = self.meta.get("query_lang", "simple")
        self._tok = get_tokenizer(self.query_lang)
        # pluggable scorer (functions.scoring.register_scorer); WAND
        # requires the monotonicity contract documented there
        self.scorer = scoring.get_scorer(scorer)
        self._hot = [set(m.get("hot_terms", ())) for m in metas]
        self._parts_built = [set(m["parts_built"]) for m in metas]
        self._shards = _LRU(_CACHE_PARTS)  # (ix, part) -> shard | None
        self._runs = _LRU(_CACHE_TERM_RUNS)
        self._postings = _LRU(_POSTINGS_BUDGET, size=lambda p: p.n_values)
        self.blocks_decoded = 0  # instrumentation (pruning effectiveness)

    def _shard(self, ix: int, part: int) -> _SegmentShard | None:
        """Partition ``part``'s shard of index ``ix``; None when the
        partition was never built (it had no postings). A built
        partition whose segment is gone raises FileNotFoundError."""
        def open_shard():
            paths = mf.built_segment_paths(self.index_dirs[ix],
                                           self.metas[ix], [part])
            return _SegmentShard(paths[0]) if paths else None

        return self._shards.load((ix, part), open_shard)

    def _candidate_parts(self, ix: int, term: str) -> list[int]:
        m = self.metas[ix]
        return candidate_parts(term, int(m["num_partitions"]), self._hot[ix],
                               int(m.get("salt_bits", 4)))

    def term_runs(self, term: str) -> list[dict]:
        """All posting runs of ``term`` across indexes/salted partitions
        (disjoint doc sets), resolved via the sharded dictionary."""
        def resolve():
            runs = []
            for ix in range(len(self.index_dirs)):
                for part in self._candidate_parts(ix, term):
                    if part not in self._parts_built[ix]:
                        continue
                    shard = self._shard(ix, part)
                    row = shard.find(term) if shard is not None else None
                    if row is not None:
                        runs.append(row)
            return runs

        return self._runs.load(term, resolve)

    def term_df(self, term: str) -> int:
        return sum(int(r["df"]) for r in self.term_runs(term))

    def postings(self, term: str) -> _TermPostings | None:
        """The decoded, doc-merged postings of ``term`` (None when no
        index holds it) — the one cache every exact operator reads."""
        return self._load([term]).get(term)

    def _load(self, terms) -> dict[str, _TermPostings]:
        """Entries of the ``terms`` that have postings, in first-seen
        order. Every run of every uncached term decodes in ONE pass."""
        terms = list(dict.fromkeys(terms))
        post = {t: p for t in terms if (p := self._postings.get(t)) is not None}
        rows = {t: rs for t in terms if t not in post
                and (rs := [r for r in self.term_runs(t) if int(r["df"])])}
        decoded = iter(decode_runs([(r["doc_ids"], r["tfs"], r["dls"], r["df"])
                                    for rs in rows.values() for r in rs],
                                   self.block_size))
        for t, rs in rows.items():
            post[t] = self._postings.put(t, _TermPostings(
                [(*next(decoded), r) for r in rs], self.block_size,
                self.scorer, self.n_docs, self.avgdl))
        return {t: post[t] for t in terms if t in post}

    def _conjunction(
        self, terms: list[str]
    ) -> tuple[dict[str, _TermPostings], np.ndarray] | None:
        """Entries of every term and the sorted docs holding them all
        (intersected rarest first, so cost is bounded by the rarest
        list); None when a term is missing or no doc holds them all."""
        post = self._load(terms)
        if len(post) < len(set(terms)):
            return None
        ts = sorted(post, key=lambda t: post[t].docs.size)
        cand = post[ts[0]].docs
        for t in ts[1:]:
            cand = cand[np.isin(cand, post[t].docs, assume_unique=True)]
            if cand.size == 0:
                return None
        return post, cand

    def _contributions(self, post: dict[str, _TermPostings],
                       terms: list[str], docs: np.ndarray,
                       boosts: dict[str, float] | None = None):
        """Per term of ``terms`` (caller's order) with an entry that
        occurs in some of the sorted ``docs``: (term, its entry, mask of
        those docs, their posting indices, their contributions
        ``(boost * idf) * tf_weight``)."""
        for t in terms:
            p = post.get(t)
            if p is None:
                continue
            sel = np.searchsorted(p.docs, docs)
            inb = sel < p.docs.size
            present = inb.copy()
            present[inb] = p.docs[sel[inb]] == docs[inb]
            if not present.any():
                continue
            s = sel[present]
            w = float((boosts or {}).get(t, 1.0))
            yield t, p, present, s, (w * p.idf) * self.scorer.tf_weight(
                p.tfs[s], p.dls[s], self.avgdl)

    def _score_docs(self, post: dict[str, _TermPostings], terms: list[str],
                    docs: np.ndarray,
                    boosts: dict[str, float] | None = None) -> np.ndarray:
        """Summed (boosted) BM25 of each of the sorted ``docs`` over the
        ``terms`` it contains, added in ``terms`` order."""
        scores = np.zeros(docs.size, dtype=np.float64)
        for _t, _p, present, _s, c in self._contributions(
                post, terms, docs, boosts):
            scores[present] += c
        return scores

    def _doc_union(self, terms) -> np.ndarray:
        """Sorted docs holding ANY of ``terms``."""
        docs = [p.docs for p in self._load(terms).values()]
        return (np.unique(np.concatenate(docs)) if docs
                else np.empty(0, dtype=np.int64))

    def _require_positions(self, what: str) -> None:
        if not all(m.get("positions") for m in self.metas):
            raise ValueError(
                f"{what} queries require an index built with positions=True")

    def topk(self, text: str, k: int) -> list[tuple[int, float]]:
        return self.terms_topk(sorted(set(self._tok.tokenize(text))), k)

    def terms_topk(self, terms: list[str],
                   k: int) -> list[tuple[int, float]]:
        """Disjunctive BM25 top-k over an explicit term list (query
        terms or an expansion: prefix, synonym, fuzzy, wildcard); scores
        add in list order. Terms without postings drop out."""
        runs_by_term = {t: r for t in terms if (r := self.term_runs(t))}
        if not runs_by_term or k <= 0:
            return []
        mode = self.mode
        if mode == "auto":
            # exact was faster on every shape measured, so WAND serves
            # only the queries whose decoded entries (docs, tfs, dls,
            # scores: 4 values a posting) would not fit the postings cache
            total = sum(int(r["df"]) for rs in runs_by_term.values() for r in rs)
            mode = "exact" if 4 * total <= _POSTINGS_BUDGET else "wand"
        if mode == "exact":
            return self._topk_exact(list(runs_by_term), k)
        return self._topk_wand(runs_by_term, k)

    def expand_prefix(self, prefix: str, *, max_terms: int = 256) -> list[str]:
        """All dictionary terms starting with ``prefix``, unioned across
        every built partition of every federated index. A hash-sharded
        dictionary cannot route a prefix, so the scan fans out to ALL
        partitions — but each partition only reads the row groups whose
        term-statistics range overlaps [prefix, prefix+1), so the cost is
        O(partitions) row-group reads, not O(vocabulary). Raises if the
        expansion exceeds ``max_terms`` (guard against one-letter
        prefixes over a 10^9-term vocabulary)."""
        if not prefix:
            raise ValueError("empty prefix")
        lo, hi = prefix, prefix[:-1] + chr(ord(prefix[-1]) + 1)
        found: set[str] = set()
        for ix in range(len(self.index_dirs)):
            for part in sorted(self._parts_built[ix]):
                shard = self._shard(ix, part)
                if shard is None:
                    continue
                found.update(shard.terms_in_range(lo, hi))
                if len(found) > max_terms:
                    raise ValueError(
                        f"prefix {prefix!r} expands to more than "
                        f"{max_terms} terms"
                    )
        return sorted(found)

    def prefix_topk(
        self, prefix: str, k: int, *, max_terms: int = 256
    ) -> list[tuple[int, float]]:
        """Wildcard (prefix*) top-k: expand the prefix to its matching
        dictionary terms, then ordinary disjunctive BM25 over the
        expansion — each expanded term contributes with its own global
        df, exactly as if the user had typed all matching terms."""
        toks = self._tok.tokenize(prefix)
        if not toks or k <= 0:
            return []
        return self.terms_topk(
            self.expand_prefix(toks[0], max_terms=max_terms), k)

    def phrase_topk(self, text: str, k: int) -> list[tuple[int, float]]:
        """Exact phrase top-k over a POSITIONAL index (built with
        positions=True). The phrase is scored as a pseudo-term: tf = number
        of occurrence start positions (overlaps counted), df = number of
        matching docs (global — all runs are gathered here), score = the
        pluggable scorer's idf(df) * tf_weight(tf, dl, avgdl); ties broken
        by ascending doc_id.

        Evaluation is fully vectorized: candidate docs = sorted-array
        intersection of the terms' doc lists (rarest first); adjacency via
        intersection of (doc, pos - slot) key sets, with positions decoded
        LAZILY only for blocks holding candidate postings."""
        self._require_positions("phrase")
        terms = self._tok.tokenize(text)
        if not terms or k <= 0 or (conj := self._conjunction(terms)) is None:
            return []
        post, cand = conj
        keys: np.ndarray | None = None
        for i, t in enumerate(terms):
            p = post[t]
            docs_rep, pos_flat = p.positions_for(np.searchsorted(p.docs, cand))
            di = np.searchsorted(cand, docs_rep).astype(np.int64)
            m = pos_flat >= i
            # dense candidate index in the high bits keeps the key an
            # int64 (positions < 2^32, |cand| < 2^31)
            ki = (di[m] << np.int64(32)) | (pos_flat[m] - i)
            keys = ki if keys is None else keys[
                np.isin(keys, ki, assume_unique=True)
            ]
            if keys.size == 0:
                return []
        di = (keys >> np.int64(32)).astype(np.int64)
        tf = np.bincount(di, minlength=cand.size).astype(np.float64)
        return self._pseudo_term_topk(post[terms[0]], cand, tf, k)

    def _pseudo_term_topk(self, p0: _TermPostings, cand: np.ndarray,
                          tf: np.ndarray, k: int) -> list[tuple[int, float]]:
        """Score a phrase as one pseudo-term: ``tf`` per candidate doc,
        df = docs with tf > 0, dl from the first term's entry."""
        matched = tf > 0
        df = int(matched.sum())
        if df == 0:
            return []
        dl = p0.dls[np.searchsorted(p0.docs, cand)]
        idf = float(self.scorer.idf(df, self.n_docs))
        scores = idf * self.scorer.tf_weight(tf[matched], dl[matched], self.avgdl)
        return _ranked(cand[matched], scores, k)

    def sloppy_topk(self, text: str, k: int,
                    slop: int = 2) -> list[tuple[int, float]]:
        """Slop-scored phrase retrieval (the Lucene sloppy-PhraseQuery
        shape) over a positional index. PINNED SPEC: for query tokens
        t1..tn IN ORDER, every ADJACENT pair (ti, ti+1) contributes, per
        doc, weight 2^-gap for each position pair (p, q) with q = p + 1
        + gap and 0 <= gap <= slop — dyadic weights, so the weighted
        frequency is EXACT in float64 on both engines (1/(1+gap) would
        drift in the last ulp). The phrase scores as a pseudo-term like
        like phrase_topk: df = docs with tfw > 0 (global), score =
        idf(df) * tf_weight(tfw, dl, avgdl), ties doc_id asc. slop=0 =
        chained-bigram adjacency (NOT full phrase alignment — each pair
        matches independently).

        Vectorized: one (doc<<32|pos) key-set intersection per adjacent
        pair per gap value — (n-1)(slop+1) np.isin passes over unique
        key arrays, no per-doc Python loop."""
        self._require_positions("sloppy-phrase")
        if slop < 0:
            raise ValueError("slop must be >= 0")
        terms = self._tok.tokenize(text)
        if len(terms) < 2:
            raise ValueError("sloppy phrase needs >= 2 query tokens")
        if k <= 0 or (conj := self._conjunction(terms)) is None:
            return []
        post, cand = conj
        keys: dict[str, np.ndarray] = {}
        for t, p in post.items():
            docs_rep, pos_flat = p.positions_for(np.searchsorted(p.docs, cand))
            di = np.searchsorted(cand, docs_rep).astype(np.int64)
            keys[t] = (di << np.int64(32)) | pos_flat
        tfw = np.zeros(cand.size, dtype=np.float64)
        for a, b in zip(terms, terms[1:]):
            ka, kb = keys[a], keys[b]
            for gap in range(slop + 1):
                hit = ka[np.isin(ka + np.int64(1 + gap), kb,
                                 assume_unique=True)]
                if hit.size:
                    np.add.at(tfw, (hit >> np.int64(32)).astype(np.int64),
                              2.0 ** -gap)
        return self._pseudo_term_topk(post[terms[0]], cand, tfw, k)

    def near_topk(self, text: str, k: int, window: int = 4) -> list[tuple[int, float]]:
        """Proximity-filtered conjunctive BM25 over a positional index.

        Pinned semantics: a doc matches iff it contains EVERY distinct
        query term AND there is a position p of the FIRST query term (the
        anchor) such that each other term occurs at some position q with
        |q - p| < window (``window`` >= 1). Matching docs are scored with
        the ordinary BM25 sum over the distinct query terms (global
        per-term df), ties broken by ascending doc_id. SQL equivalent:
        correlated EXISTS per non-anchor term with abs(b.p - a.p) <
        window."""
        self._require_positions("proximity")
        if window < 1:
            raise ValueError("window must be >= 1")
        terms = list(dict.fromkeys(self._tok.tokenize(text)))  # distinct, ordered
        if not terms or k <= 0 or (conj := self._conjunction(terms)) is None:
            return []
        post, cand = conj
        if len(terms) == 1:
            # degenerate: no proximity constraint — plain single-term BM25
            # (skips the position decode entirely)
            return _ranked(cand, self._score_docs(post, terms, cand), k)
        anchor = post[terms[0]]
        d0, p0 = anchor.positions_for(np.searchsorted(anchor.docs, cand))
        di0 = np.searchsorted(cand, d0).astype(np.int64)
        ok = np.ones(len(p0), dtype=bool)
        for t in terms[1:]:
            p = post[t]
            dt, pt = p.positions_for(np.searchsorted(p.docs, cand))
            kt = np.sort(
                (np.searchsorted(cand, dt).astype(np.int64) << np.int64(32)) | pt
            )
            lo_key = (di0 << np.int64(32)) | np.maximum(p0 - window + 1, 0)
            hi_key = (di0 << np.int64(32)) | (p0 + window)
            ok &= np.searchsorted(kt, lo_key) < np.searchsorted(kt, hi_key)
            if not ok.any():
                return []
        matched = np.unique(d0[ok])
        return _ranked(matched, self._score_docs(post, terms, matched), k)

    def and_topk(self, text: str, k: int) -> list[tuple[int, float]]:
        """Conjunctive (AND) BM25 top-k via posting-list intersection:
        docs containing EVERY distinct query term, scored with the
        ordinary summed BM25 over the distinct terms (global per-term
        df), ties broken by ascending doc_id. Works on any index —
        positions are never decoded; the intersection runs rarest-first
        over the terms' sorted doc arrays, so cost is bounded by the
        rarest term's posting list after the first step. SQL equivalent:
        the bag-of-words scorer plus HAVING count(matched terms) = n."""
        terms = sorted(set(self._tok.tokenize(text)))
        if not terms or k <= 0 or (conj := self._conjunction(terms)) is None:
            return []
        post, cand = conj
        return _ranked(cand, self._score_docs(post, terms, cand), k)

    def synonym_topk(
        self, text: str, k: int, synonyms: dict[str, list[str]]
    ) -> list[tuple[int, float]]:
        """Query-time synonym expansion: each query term contributes
        itself plus its mapped synonyms to the distinct term set, then
        ordinary disjunctive BM25 — every synonym scores with its OWN
        global df, exactly as if the user had typed it (the analyzer-
        level expansion shape; expansion is one-way, not transitive).
        Unknown synonyms (no postings) drop out silently."""
        terms = set(self._tok.tokenize(text))
        for t in list(terms):
            terms.update(synonyms.get(t, ()))
        return self.terms_topk(sorted(terms), k)

    def search_after(
        self, text: str, k: int, after: tuple[float, int] | None
    ) -> list[tuple[int, float]]:
        """Cursor (deep) pagination: the next ``k`` results STRICTLY
        after the (score, doc_id) cursor in the global (score desc,
        doc_id asc) order — the stateless alternative to offset paging
        (the cursor is the previous page's last hit, so page N+1 never
        re-ships pages 1..N and two clients paging concurrently can't
        skew each other). ``after=None`` returns page 1 (== topk). The
        cursor score must be the engine's own float64, from any mode
        (comparison is exact). SQL mirror: row_number window, rank in
        (cursor_rank, cursor_rank + k]."""
        terms = sorted(set(self._tok.tokenize(text)))
        if after is None or k <= 0:
            return self.terms_topk(terms, k)
        hits = self._topk_exact(terms, 1 << 62)  # full sorted order
        s_a, d_a = float(after[0]), int(after[1])
        start = len(hits)
        for i, (d, s) in enumerate(hits):
            if s < s_a or (s == s_a and d > d_a):
                start = i
                break
        return hits[start:start + k]

    def explain(
        self, text: str, k: int
    ) -> list[tuple[int, str, float, int, float]]:
        """Score breakdown for the top-k result page: one row per
        (result doc, matched query term) with the term's tf in the doc,
        global df, and its BM25 contribution — the relevance-debugging
        surface ("why is this hit first?"). The doc set is EXACTLY
        topk(text, k); contributions sum to each doc's score. Rows
        ordered (doc_id asc, term asc). SQL mirror: the per-term scorer
        CTE before its GROUP BY sum, joined to the ranked top-k."""
        terms = sorted(set(self._tok.tokenize(text)))
        hits = self.terms_topk(terms, k)
        if not hits:
            return []
        docs = np.sort(np.array([d for d, _ in hits], dtype=np.int64))
        out = [
            (d, t, tf, int(p.docs.size), c)
            for t, p, present, s, contrib in self._contributions(
                self._load(terms), terms, docs)
            for d, tf, c in zip(docs[present].tolist(), p.tfs[s].tolist(),
                                contrib.tolist())
        ]
        out.sort(key=lambda r: (r[0], r[1]))
        return out

    def msm_topk(
        self, text: str, k: int, min_match: int
    ) -> list[tuple[int, float]]:
        """min_should_match retrieval: ordinary disjunctive BM25, but a
        doc qualifies only if it contains at least ``min_match`` (>= 1)
        DISTINCT query terms. min_match=1 is plain disjunctive top-k and
        min_match=len(distinct terms) is conjunctive AND, so this is the
        general dial between OR and AND recall. The restriction applies
        BEFORE truncation. Qualifying docs are found by counting each
        doc's appearances across the terms' (unique) doc arrays; scoring
        adds each present term's contribution via a searchsorted
        membership probe. SQL mirror: the bag-of-words scorer plus
        HAVING count(DISTINCT matched term) >= min_match."""
        if min_match < 1:
            raise ValueError("min_match must be >= 1")
        return self._weighted_disjunctive(text, k, min_match=min_match)

    def boosted_topk(
        self, text: str, k: int, boosts: dict[str, float]
    ) -> list[tuple[int, float]]:
        """Query-time term boosting (the ``term^w`` operator): ordinary
        disjunctive BM25 with each term's contribution multiplied by its
        boost (missing terms boost 1.0). Boosts reweight RANKING only —
        df/idf stay global. SQL mirror: the scorer CTE with a per-term
        weight joined in."""
        return self._weighted_disjunctive(text, k, boosts=boosts)

    def _weighted_disjunctive(
        self,
        text: str,
        k: int,
        *,
        min_match: int = 1,
        boosts: dict[str, float] | None = None,
    ) -> list[tuple[int, float]]:
        """Shared kernel for msm/boosted retrieval: docs matching at
        least ``min_match`` distinct query terms, scored by the weighted
        BM25 sum over their present terms."""
        if k <= 0:
            return []
        res = self._weighted_scores(text, min_match=min_match, boosts=boosts)
        return [] if res is None else _ranked(*res, k)

    def score_all(self, text: str) -> tuple[np.ndarray, np.ndarray] | None:
        """Every matching doc's disjunctive BM25 score, as numpy arrays
        (docs ascending) — the UNTRUNCATED hit-set feed for collapse /
        facet-filter stages. No per-hit Python objects are built, so the
        cost is the posting decode plus a few vectorized passes even
        when a common term matches half the corpus."""
        return self._weighted_scores(text, min_match=1, boosts=None)

    def _weighted_scores(
        self,
        text: str,
        *,
        min_match: int = 1,
        boosts: dict[str, float] | None = None,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        terms = sorted(set(self._tok.tokenize(text)))
        post = self._load(terms)
        if len(post) < min_match:
            return None
        all_docs = np.concatenate([p.docs for p in post.values()])
        docs_u, counts = np.unique(all_docs, return_counts=True)
        matched = docs_u[counts >= min_match]
        if matched.size == 0:
            return None
        return matched, self._score_docs(post, terms, matched, boosts)

    def hit_count(self, text: str) -> int:
        """Exact number of docs matching ANY query term (the "about N
        results" figure) — the size of the union of the terms' doc
        arrays."""
        return int(self._doc_union(set(self._tok.tokenize(text))).size)

    def not_topk(self, text: str, neg_text: str, k: int) -> list[tuple[int, float]]:
        """Boolean NOT: ordinary disjunctive BM25 over ``text``'s distinct
        terms, EXCLUDING every doc that contains any term of ``neg_text``
        (SQL mirror: the bag-of-words scorer plus NOT EXISTS per negated
        term). Exclusion must happen before truncation, so this uses the
        decode-everything exact scorer and subtracts the union of the
        negated terms' doc arrays (sorted-array membership)."""
        terms = sorted(set(self._tok.tokenize(text)))
        if k <= 0 or (res := self._exact_scores(terms)) is None:
            return []
        docs, scores = res
        keep = ~np.isin(docs, self._doc_union(self._tok.tokenize(neg_text)))
        return _ranked(docs[keep], scores[keep], k)

    def bool_topk(self, expr: str, k: int) -> list[tuple[int, float]]:
        """Nested boolean retrieval (a Lucene-style query DSL). Pinned
        grammar: ``OR`` binds loosest; ``AND`` and binary ``NOT``
        (``x NOT y`` = x minus y) bind tighter, left-associative;
        adjacent operands imply ``AND``; parentheses group. An atom is
        run through the query tokenizer and its terms are ANDed (an atom
        with a missing term matches nothing). Scoring is disjunctive
        BM25 over the distinct POSITIVE-context terms — context parity
        flips across each NOT's right operand — so negated terms filter
        but never score; a matched doc containing no positive term keeps
        score 0.0. Ties: score desc, doc_id asc. Malformed expressions
        (unbalanced parens, dangling operators) return [] rather than
        raising — a bad query must not kill the serving actor. SQL
        mirror: per-query EXISTS predicates over the term table plus the
        bag-of-words scorer left-joined on the positive term list."""
        import re as _re

        if k <= 0:
            return []
        toks: list = []
        for m in _re.finditer(r"\(|\)|[^\s()]+", expr):
            s = m.group(0)
            toks.append(
                s if s in ("(", ")", "AND", "OR", "NOT") else ("atom", s))

        def _unary(i):
            if i < len(toks) and toks[i] == "(":
                node, i = _or(i + 1)
                if i >= len(toks) or toks[i] != ")":
                    raise ValueError("unbalanced paren")
                return node, i + 1
            if i < len(toks) and isinstance(toks[i], tuple):
                return ("atom", self._tok.tokenize(toks[i][1])), i + 1
            raise ValueError("expected operand")

        def _and(i):
            node, i = _unary(i)
            while i < len(toks) and (
                toks[i] in ("AND", "NOT") or toks[i] == "("
                or isinstance(toks[i], tuple)
            ):
                if toks[i] == "AND":
                    rhs, i = _unary(i + 1)
                    node = ("and", node, rhs)
                elif toks[i] == "NOT":
                    rhs, i = _unary(i + 1)
                    node = ("not", node, rhs)
                else:  # implicit AND between adjacent operands
                    rhs, i = _unary(i)
                    node = ("and", node, rhs)
            return node, i

        def _or(i):
            node, i = _and(i)
            while i < len(toks) and toks[i] == "OR":
                rhs, i = _and(i + 1)
                node = ("or", node, rhs)
            return node, i

        try:
            tree, end = _or(0)
            if end != len(toks):
                raise ValueError("trailing tokens")
        except ValueError:
            return []

        # one postings entry per distinct term (positive or negative)
        atom_terms: list[str] = []
        pos_terms: set[str] = set()

        def _walk(node, parity: int) -> None:
            if node[0] == "atom":
                atom_terms.extend(node[1])
                if parity == 0:
                    pos_terms.update(node[1])
                return
            _walk(node[1], parity)
            _walk(node[2], parity ^ (node[0] == "not"))

        _walk(tree, 0)
        post = self._load(atom_terms)
        empty = np.empty(0, dtype=np.int64)

        def _eval(node) -> np.ndarray:
            if node[0] == "atom":
                if not node[1]:
                    return empty
                out: np.ndarray | None = None
                for t in node[1]:
                    p = post.get(t)
                    if p is None:
                        return empty
                    out = p.docs if out is None else np.intersect1d(
                        out, p.docs, assume_unique=True)
                return out
            left, right = _eval(node[1]), _eval(node[2])
            if node[0] == "and":
                return np.intersect1d(left, right, assume_unique=True)
            if node[0] == "or":
                return np.union1d(left, right)
            return np.setdiff1d(left, right, assume_unique=True)

        matched = _eval(tree)
        if matched.size == 0:
            return []
        return _ranked(
            matched, self._score_docs(post, sorted(pos_terms), matched), k)

    # ---- exact: decode-everything vectorized scoring ----
    def _exact_scores(
        self, terms: list[str]
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """(docs ascending, summed BM25) over ``terms``' entries. A doc
        appears once per term (runs are disjoint, merged in the entry);
        across terms its contributions add in term order, so the float64
        sums are bit-identical to the oracle's (oracle-pinned)."""
        post = [p for p in self._load(terms).values() if p.docs.size]
        if not post:
            return None
        return scoring.merge_scored_runs([p.docs for p in post],
                                         [p.scores for p in post])

    def _topk_exact(self, terms: list[str], k: int) -> list[tuple[int, float]]:
        if len(terms) == 1 and k <= _TOPDOCS_K:
            # a single term's ranking is query-independent: its entry's
            # ``top`` answers in O(k) (k > len only when len == df)
            p = self.postings(terms[0])
            if p is None:
                return []
            docs, scores = p.top()
            return list(zip(docs[:k].tolist(), scores[:k].tolist()))
        res = self._exact_scores(terms)
        return [] if res is None else _ranked(*res, k)

    # ---- block-max WAND: lazy per-block decode, bounded memory ----
    def _topk_wand(self, runs_by_term: dict[str, list[dict]],
                   k: int) -> list[tuple[int, float]]:
        terms: list[list[_Run]] = []
        for rows in runs_by_term.values():
            idf = float(self.scorer.idf(sum(int(r["df"]) for r in rows),
                                        self.n_docs))
            if rs := [_Run(idf, r, self.scorer, self.avgdl)
                      for r in rows if int(r["df"])]:
                terms.append(rs)
        try:
            if len(terms) == 1:
                return self._disjoint_runs_topk(terms[0], k)
            return self._window_topk(terms, k) if terms else []
        finally:
            self.blocks_decoded += sum(r.blocks_decoded
                                       for rs in terms for r in rs)

    def _disjoint_runs_topk(self, runs: list[_Run], k: int) -> list[tuple[int, float]]:
        """Single-term queries (possibly many salted runs with disjoint doc
        sets): visit the union of blocks in descending upper bound,
        decode+score a block only while its bound can beat the current
        threshold; merge fully vectorized."""
        ubs = np.concatenate([r.bub for r in runs])
        blocks = [(r, b) for r in runs for b in range(r.bub.size)]
        order = np.argsort(-ubs, kind="stable")
        best_docs = np.empty(0, dtype=np.int64)
        best_scores = np.empty(0, dtype=np.float64)
        threshold = -np.inf
        for j in order:
            if len(best_docs) >= k and ubs[j] < threshold:
                break
            run, b = blocks[j]
            best_docs = np.concatenate((best_docs, run.block_docs(b)))
            best_scores = np.concatenate((best_scores, run.block_scores(b)))
            sel = scoring.topk_order(best_docs, best_scores, k)
            best_docs, best_scores = best_docs[sel], best_scores[sel]
            if len(best_docs) >= k:
                threshold = float(best_scores[-1])
        return list(zip(best_docs.tolist(), best_scores.tolist()))

    def _window_topk(self, terms: list[list[_Run]],
                     k: int) -> list[tuple[int, float]]:
        """Block-max WAND over ``terms`` (each term's runs, in the
        query's term order). Windows walk the doc ids in order and fold
        into a running top-k whose k-th score is the threshold. The
        lowest-bound terms whose largest bounds, summed, stay below it
        are non-essential (MaxScore). A window ends at the nearest block
        end of an essential run; it is skipped undecoded when its block
        bounds cannot reach the threshold. Its candidates are the
        essential runs' docs whose block bounds reach it (``>=``: doc_id
        asc breaks ties), and only the blocks holding them are decoded.
        Scores and bounds add in term order, scores with
        ``scoring.merge_scored_runs`` as on the exact path, so the sums
        are bit-identical; float addition is monotone, so a bound never
        falls below the score it bounds. Memory: one decoded block per
        run; no per-query block cache grows with the posting lists."""
        m = len(terms)
        tmax = np.array([max(float(r.bub.max()) for r in rs) for rs in terms])
        order = np.argsort(tmax, kind="stable")
        # ne_sum[j]: the j + 1 lowest term bounds, summed in term order
        low = np.argsort(order)[None, :] <= np.arange(m)[:, None]
        ne_sum = np.cumsum(np.where(low, tmax, 0.0), axis=1)[:, -1]
        # per run: its term, the run, and its block ends and bounds as lists
        runs = [(t, r, r.bld.tolist(), r.bub.tolist())
                for t, rs in enumerate(terms) for r in rs]
        cur = [0] * len(runs)  # each run's first block ending at or after lo
        docs = np.empty(0, dtype=np.int64)
        scores = np.empty(0, dtype=np.float64)
        thr, hi = -np.inf, -(1 << 63) - 1
        while True:
            lo = hi + 1
            ess = set(order[int(np.searchsorted(ne_sum, thr)):].tolist())
            cur = [bisect.bisect_left(bl, lo, b)
                   for (_, _, bl, _), b in zip(runs, cur)]
            ends = [bl[b] for (t, _, bl, _), b in zip(runs, cur)
                    if t in ess and b < len(bl)]
            if not ends:
                break
            hi = min(ends)
            live = []  # (term, run, b, e, bounds): blocks b..e overlap [lo, hi]
            term_ub = [0.0] * m
            for (t, r, bl, bu), b in zip(runs, cur):
                if b < len(bl):
                    e = min(bisect.bisect_left(bl, hi, b), len(bl) - 1)
                    live.append((t, r, b, e, bu))
                    term_ub[t] = max(term_ub[t], *bu[b:e + 1])
            if reduce(add, term_ub) < thr:  # summed in term order
                continue
            # the docs in [lo, hi] of the essential runs and of every run
            # whose one block here is already decoded
            window = {}
            for t, r, b, e, _ in live:
                if t in ess or (e == b and r.blk == b):
                    d = r.block_docs(b)
                    window[r] = d[np.searchsorted(d, lo):
                                  np.searchsorted(d, hi, "right")]
            cand = np.unique(np.concatenate(
                [window[r] for t, r, *_ in live if t in ess]))
            if not cand.size:
                continue
            term_ub = [0.0] * m
            for t, r, b, e, bu in live:
                if r in window:  # decoded: bound only its own docs
                    if not window[r].size:
                        continue
                    u = np.where(_in_sorted(cand, window[r]), bu[b], 0.0)
                elif e == b:
                    u = bu[b]
                else:  # bound 0 past the run's last block
                    u = np.append(r.bub[b:e + 1], 0.0)[
                        np.searchsorted(r.bld[b:e + 1], cand)]
                term_ub[t] = np.maximum(term_ub[t], u)
            keep = cand[reduce(add, term_ub) >= thr]
            if not keep.size:
                continue
            # one list per block, in term order: a doc lies in one block
            # of one run per term, so its scores add in term order
            hit_docs, hit_scores = [], []
            for _, r, b, e, _ in live:
                if r in window and not window[r].size:
                    continue
                i = np.searchsorted(r.bld[b:e + 1], keep)
                for x in (b + np.unique(i[i <= e - b])).tolist():
                    hit = _in_sorted(r.block_docs(x), keep)
                    hit_docs.append(r.docs[hit])
                    hit_scores.append(r.block_scores(x)[hit])
            wd, ws = scoring.merge_scored_runs(hit_docs, hit_scores)
            docs, scores = np.concatenate((docs, wd)), np.concatenate((scores, ws))
            o = scoring.topk_order(docs, scores, k)
            docs, scores = docs[o], scores[o]
            if docs.size == k:
                thr = float(scores[-1])
        return list(zip(docs.tolist(), scores.tolist()))


def _engine_topk(engine, text: str, fetch_k: int, *, kind: str = "topk",
                 window: int = 4, neg_text: str = "", min_match: int = 1,
                 boosts: "dict[str, float] | None" = None):
    """The one kind->QueryEngine dispatch, shared by every serving
    surface (``serve.IndexServer.search``, ``serve.ShardedWriter.search``,
    ``pipelines.query.QueryScorerStage``) so a new query kind lands
    everywhere at once. Returns raw (doc_id, score) hits; tombstone
    filtering/ranking stays with the caller."""
    if kind == "phrase":
        return engine.phrase_topk(text, fetch_k)
    if kind == "near":
        return engine.near_topk(text, fetch_k, window=window)
    if kind == "sloppy":
        # slop rides the window parameter (same "how far apart" role)
        return engine.sloppy_topk(text, fetch_k, slop=window)
    if kind == "and":
        return engine.and_topk(text, fetch_k)
    if kind == "not":
        return engine.not_topk(text, neg_text, fetch_k)
    if kind == "prefix":
        return engine.prefix_topk(text, fetch_k)
    if kind == "msm":
        return engine.msm_topk(text, fetch_k, min_match)
    if kind == "bool":
        # nested boolean DSL: text IS the expression
        return engine.bool_topk(text, fetch_k)
    if kind == "topk":
        return (engine.boosted_topk(text, fetch_k, boosts)
                if boosts else engine.topk(text, fetch_k))
    raise ValueError(f"unknown query kind: {kind!r}")
