"""Extraction stages: doc metadata + exploded postings (SURVEY.md B6-B8, B12).

Donkey analogue [PK]: ``Extractor::extract(raw) -> Object`` (plugin header,
see SURVEY.md section 0) — here the 'features' are (term, tf) pairs and the
extractor is the per-lang tokenizer registry. Stateful setup (compiled
regexes, hot-term set) happens once per actor in ``__init__``; per-batch
work is vectorized Arrow/numpy.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.codec import (binary_runs, delta_encode_segments,
                               varbyte_encode_all)
from ..functions.hashing import (doc_ids_for_batch, partition_column,
                                sha256_hex_column)
from ..functions.tokenize import get_tokenizer
from ..state import manifest as mf


def doc_meta(batch: pa.Table, *, id_col: str | None = None,
             doc_ids: np.ndarray | None = None,
             doc_len: np.ndarray | None = None) -> pa.Table:
    """Corpus batch -> DOCS-schema batch (sha256 carried, content dropped).

    Embarrassingly parallel; preserves the per-row sha256(content)
    invariant (BASELINE.json input_hint). ``doc_len`` is the tokenized
    length under the build's analyzer (SURVEY §1.2 per-lang stats feed).
    The build passes the extractor's ``doc_ids`` and ``doc_len``; when
    they are absent they are derived here, tokenizing each row with its
    lang's registered tokenizer."""
    if doc_ids is None:
        doc_ids = doc_ids_for_batch(batch, id_col)
    if doc_len is None:
        doc_len = PostingsExtractor(
            1, id_col=id_col, emit_part=False).tokenize(batch)[3]
    content = batch.column("content")
    return pa.table({
        "doc_id": pa.array(doc_ids, pa.int64()),
        "repo": batch.column("repo"),
        "path": batch.column("path"),
        "commit": batch.column("commit"),
        "lang": batch.column("lang"),
        "content_sha256": sha256_hex_column(content),
        "n_chars": pc.utf8_length(content).cast(pa.int64()),
        "doc_len": pa.array(doc_len, pa.int64()),
    })


# per-worker-process extractor cache: tasks get actor-like amortization of
# setup (hot-term set, compiled regexes) without actor-pool
# startup latency. Keyed by config; hot set resolved from the object store
# once per process.
_EXTRACTOR_CACHE: dict = {}
LANG_STATS_KEY = b"lang_stats"  # docs footer key, see write_docs


def extract_postings(batch: pa.Table, *, num_partitions: int, hot_ref=None,
                     salt_bits: int = 4, id_col: str | None = None,
                     positions: bool = False,
                     lang_override: str | None = None,
                     docs_dir: str | None = None) -> pa.Table:
    """Corpus batch -> postings (``PostingsExtractor``). With ``docs_dir``
    the same pass also writes the batch's DOCS rows (``write_docs``),
    carrying the extractor's doc ids and lengths."""
    key = (
        num_partitions,
        hot_ref.hex() if hot_ref is not None else None,
        salt_bits,
        id_col,
        positions,
        lang_override,
    )
    ex = _EXTRACTOR_CACHE.get(key)
    if ex is None:
        import ray

        hot = ray.get(hot_ref) if hot_ref is not None else None
        ex = PostingsExtractor(
            num_partitions, hot_terms=hot, salt_bits=salt_bits, id_col=id_col,
            positions=positions, lang_override=lang_override,
        )
        _EXTRACTOR_CACHE.clear()  # one live config per worker is enough
        _EXTRACTOR_CACHE[key] = ex
    postings, doc_ids, dl = ex.extract(batch)
    if docs_dir is not None and batch.num_rows:
        write_docs(docs_dir, doc_meta(batch, doc_ids=doc_ids, doc_len=dl))
    return postings


def write_docs(docs_dir: str, docs: pa.Table) -> None:
    """Write a DOCS table atomically to ``docs_dir/<sha16 of its doc
    ids>.parquet`` (the build's extract map, merge and prune alike).
    Doc ids are unique per corpus, so a name repeats only when a retried
    task rewrites the same rows: the rewrite is idempotent. The footer
    carries the file's per-lang ``{lang: [n_docs, total_len]}`` under
    ``LANG_STATS_KEY`` (none without a ``doc_len`` column)."""
    if not docs.num_rows:
        return
    # rows read back from a docs file carry that file's stamp: drop it
    meta = {k: v for k, v in (docs.schema.metadata or {}).items()
            if k != LANG_STATS_KEY}
    if {"lang", "doc_len"} <= set(docs.column_names):
        g = docs.group_by("lang", use_threads=False).aggregate(
            [("doc_len", "count"), ("doc_len", "sum")]).to_pydict()
        meta[LANG_STATS_KEY] = json.dumps(sort_keys=True, obj={
            str(lang): [c, s or 0] for lang, c, s in zip(
                g["lang"], g["doc_len_count"], g["doc_len_sum"])})
    ids = np.asarray(docs.column("doc_id"), dtype=np.int64)
    name = hashlib.sha256(ids.tobytes()).hexdigest()[:16]
    mf.atomic_write_parquet(os.path.join(docs_dir, f"{name}.parquet"),
                            docs.replace_schema_metadata(meta),
                            compression="zstd")


class PostingsExtractor:
    """Map stage: corpus batches -> exploded (term, doc_id, tf, dl[, pos],
    part) postings batches (SURVEY.md B12/B15/B18). The build runs it
    through ``extract_postings`` in a task pool, one cached instance per
    worker process.

    Partition routing: ``functions.hashing.partition_column`` — home
    partition blake2b(term) % P, hot (high-df) terms salted by the TOP
    ``salt_bits`` bits of doc_id (B17/B18).
    """

    def __init__(
        self,
        num_partitions: int,
        hot_terms=None,
        salt_bits: int = 4,
        id_col: str | None = None,
        emit_part: bool = True,
        positions: bool = False,
        lang_override: str | None = None,
    ) -> None:
        self.num_partitions = int(num_partitions)
        self.salt_bits = int(salt_bits)
        self.id_col = id_col
        self.emit_part = emit_part
        # positional postings (phrase/proximity queries): each output row
        # additionally carries ``pos`` = varbyte(delta(token positions of
        # this (term, doc))) — a self-contained cell, so the shuffle and
        # the segment encoder treat it as an opaque byte string
        self.positions = bool(positions)
        self.hot_terms = frozenset(hot_terms or ())
        self._tokenizers = {}
        # analyzer override: when set, EVERY row tokenizes through this
        # analyzer regardless of its lang column (stem/fold indexes —
        # index-side terms must come from the same analyzer queries use;
        # None keeps the per-lang registry routing, the default)
        self.lang_override = lang_override

    def _tokenizer(self, lang: str):
        if self.lang_override is not None:
            lang = self.lang_override
        tok = self._tokenizers.get(lang)
        if tok is None:
            tok = self._tokenizers[lang] = get_tokenizer(lang)
        return tok

    def tokenize(self, batch: pa.Table):
        """Per-lang tokenize of the batch's content: (token arrays, their
        row indices, their in-doc positions, per-row token count dl)."""
        langs = batch.column("lang").to_numpy(zero_copy_only=False)
        content = batch.column("content")
        term_arrs: list[pa.Array] = []
        row_arrs: list[np.ndarray] = []
        pos_arrs: list[np.ndarray] = []
        dl_batch = np.zeros(batch.num_rows, dtype=np.int64)
        for lang in np.unique(langs):
            idx = np.flatnonzero(langs == lang)
            sub = content.take(pa.array(idx))
            flat, parents, dl = self._tokenizer(str(lang)).tokenize_column(sub)
            term_arrs.append(flat)
            row_arrs.append(idx[parents])
            dl_batch[idx] = dl
            if self.positions:
                # token position within its doc: tokenize_column yields
                # tokens in doc order with nondecreasing parents, so
                # pos = global index - first index of the parent's run
                pos_arrs.append(
                    np.arange(len(parents), dtype=np.int64)
                    - np.searchsorted(parents, parents)
                )
        return term_arrs, row_arrs, pos_arrs, dl_batch

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.extract(batch)[0]

    def extract(self, batch: pa.Table
                ) -> tuple[pa.Table, np.ndarray, np.ndarray]:
        """One corpus batch -> (postings, per-row doc_id, per-row dl)."""
        doc_ids = doc_ids_for_batch(batch, self.id_col)
        term_arrs, row_arrs, pos_arrs, dl_batch = self.tokenize(batch)
        if not term_arrs or sum(len(a) for a in term_arrs) == 0:
            empty = {
                "term": pa.array([], pa.string()),
                "doc_id": pa.array([], pa.int64()),
                "tf": pa.array([], pa.int32()),
                "dl": pa.array([], pa.int32()),
            }
            if self.positions:
                empty["pos"] = pa.array([], pa.binary())
            empty["part"] = pa.array([], pa.int32())
            return pa.table(empty), doc_ids, dl_batch

        pos_cells: pa.Array | None = None
        terms_flat = pa.concat_arrays(
            [a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
             for a in term_arrs])
        rows_flat = np.concatenate(row_arrs)
        if self.positions:
            rows, terms, tf, pos_cells = self._group_with_positions(
                terms_flat, rows_flat, np.concatenate(pos_arrs))
        else:
            # vectorized tf per (row, term): Arrow hash-groupby
            grouped = pa.table({"term": terms_flat, "row": rows_flat}).group_by(
                ["row", "term"], use_threads=False).aggregate([("term", "count")])
            rows = grouped.column("row").to_numpy(zero_copy_only=False)
            terms = grouped.column("term")
            tf = grouped.column("term_count").to_numpy(zero_copy_only=False).astype(np.int32)

        out_doc_ids = doc_ids[rows]
        out_dl = dl_batch[rows].astype(np.int32)

        cols = {
            "term": terms,
            "doc_id": pa.array(out_doc_ids, pa.int64()),
            "tf": pa.array(tf, pa.int32()),
            "dl": pa.array(out_dl, pa.int32()),
        }
        if pos_cells is not None:
            cols["pos"] = pos_cells
        if not self.emit_part:
            return pa.table(cols), doc_ids, dl_batch

        cols["part"] = pa.array(partition_column(
            terms, out_doc_ids,
            self.num_partitions, self.hot_terms, self.salt_bits), pa.int32())
        return pa.table(cols), doc_ids, dl_batch

    def _group_with_positions(self, terms_flat, rows_flat, pos_flat):
        """(row, term) aggregation that also emits each posting's encoded
        position list. numpy lexsort replaces the Arrow hash-groupby so the
        per-group positions stay doc-ordered; the cell bytes are produced
        by ONE vectorized codec pass over all groups."""
        dict_arr = terms_flat.dictionary_encode()
        codes = dict_arr.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((pos_flat, codes, rows_flat))
        rows_s = rows_flat[order]
        codes_s = codes[order]
        pos_s = pos_flat[order].astype(np.uint64)
        n = len(order)
        change = (rows_s[1:] != rows_s[:-1]) | (codes_s[1:] != codes_s[:-1])
        starts = np.concatenate(([0], np.flatnonzero(change) + 1))
        ends = np.concatenate((starts[1:], [n]))
        tf = (ends - starts).astype(np.int32)
        buf, offs = varbyte_encode_all(delta_encode_segments(pos_s, starts))
        cells = binary_runs(buf, offs[np.append(starts, n)])
        terms_g = dict_arr.dictionary.take(pa.array(codes_s[starts]))
        return rows_s[starts], terms_g, tf, cells
