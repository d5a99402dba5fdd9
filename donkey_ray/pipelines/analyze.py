"""Text-analysis pipelines over a document table (training-data ops):
token counts, term df, corpus stats, quality scoring, language ID,
fingerprints. Each has a DuckDB-oracle mirror in __ray_entry__.oracle_sql
(pinned logic lives in functions/textstats.py)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.scoring import grouped_topk
from ..functions.textstats import LANG_MARKERS, LANG_PRIORITY, STOPWORDS
from ..functions.tokenize import SimpleTokenizer

_TOK = SimpleTokenizer()


def doc_token_counts(ds: ray.data.Dataset, *, text_col: str = "text",
                     id_col: str = "doc_id") -> ray.data.Dataset:
    """(doc_id, n_tokens) via the vectorized Arrow tokenize path."""

    def f(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        _, _, dl = _TOK.tokenize_column(col)
        return pa.table(
            {
                "doc_id": batch.column(id_col).cast(pa.int64()),
                "n_tokens": pa.array(dl, pa.int64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def term_df(ds: ray.data.Dataset, *, text_col: str = "text",
            id_col: str = "doc_id", lang: str = "simple") -> ray.data.Dataset:
    """(term, df): docs containing each term. Partial aggregation happens
    inside the batch (distinct per doc) before the term groupby.
    ``lang`` picks the analyzer (e.g. 'stem' for the pinned s-stemmer)."""
    from ..functions.tokenize import get_tokenizer

    def explode_distinct(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat, parents, _ = get_tokenizer(lang).tokenize_column(col)
        t = pa.table({"term": flat, "row": pa.array(parents, pa.int64())})
        dedup = t.group_by(["row", "term"], use_threads=False).aggregate([])
        return pa.table({"term": dedup.column("term")})

    exploded = ds.map_batches(explode_distinct, batch_format="pyarrow", zero_copy_batch=True)
    from ..stages.exchange import partitioned_aggregate

    return partitioned_aggregate(
        exploded, ["term"], [("term", "count")], rename={"term_count": "df"}
    )


def corpus_stats(ds: ray.data.Dataset, *, text_col: str = "text",
                 id_col: str = "doc_id") -> pa.Table:
    """One row: (n_docs, total_len, avgdl) — partial sums per batch, tiny
    final reduce on the driver."""
    counts = doc_token_counts(ds, text_col=text_col, id_col=id_col)
    agg = counts.aggregate(
        ray.data.aggregate.Count(), ray.data.aggregate.Sum("n_tokens")
    )
    n = int(agg["count()"])
    total = int(agg["sum(n_tokens)"])
    return pa.table(
        {
            "n_docs": pa.array([n], pa.int64()),
            "total_len": pa.array([total], pa.int64()),
            "avgdl": pa.array([total / n if n else 0.0], pa.float64()),
        }
    )


def top_bigrams(ds: ray.data.Dataset, *, text_col: str = "text",
                k: int = 20) -> pa.Table:
    """Global top-k adjacent token pairs by total occurrence count
    (count desc, bigram asc tie-break) — corpus phrase statistics.

    Scale shape: bigrams are built vectorized (Arrow elementwise join of
    the token stream against its shift) and pre-counted INSIDE each batch
    before one keyed exchange; each hash partition then emits only its
    local top-k, so the driver merges P*k rows, never the bigram
    vocabulary."""
    from ..stages.exchange import keyed_partition_map
    from ..util import dataset_to_table

    empty = pa.table({"bigram": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64())})

    def explode_count(batch: pa.Table) -> pa.Table:
        flat, parents, _ = _tokenized(batch, text_col)
        if len(flat) < 2:
            return empty
        m = pa.array(parents[1:] == parents[:-1])
        a = flat.slice(0, len(flat) - 1).filter(m)
        b = flat.slice(1).filter(m)
        if len(a) == 0:
            return empty
        big = pc.binary_join_element_wise(a, b, " ")
        t = pa.table({"bigram": big}).group_by(
            ["bigram"], use_threads=False
        ).aggregate([("bigram", "count")])
        return pa.table({
            "bigram": t.column("bigram").cast(pa.string()),
            "n": t.column("bigram_count").cast(pa.int64()),
        })

    pre = ds.map_batches(explode_count, batch_format="pyarrow",
                         zero_copy_batch=True)

    def local_topk(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return empty
        agg = part.group_by(["bigram"], use_threads=False).aggregate(
            [("n", "sum")]
        )
        agg = pa.table({"bigram": agg.column("bigram").cast(pa.string()),
                        "n": agg.column("n_sum").cast(pa.int64())})
        return agg.sort_by(
            [("n", "descending"), ("bigram", "ascending")]
        ).slice(0, k)

    local_topk.__name__ = "top_bigrams"
    merged = dataset_to_table(keyed_partition_map(pre, ["bigram"], local_topk))
    return merged.sort_by(
        [("n", "descending"), ("bigram", "ascending")]
    ).slice(0, k)


def regex_search(
    ds: ray.data.Dataset,
    patterns: list[tuple[int, str]],
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Distributed regex scan (grep over the corpus): for each
    (pattern_id, RE2 pattern), every doc with >= 1 non-overlapping match
    and its match count. Fully vectorized per batch via Arrow's
    count_substring_regex (RE2 — the same engine DuckDB's regexp_*
    functions use, so match semantics agree with the SQL oracle).
    Patterns are compiled once per kernel call, docs stream through."""

    def f(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ids = batch.column(id_col).cast(pa.int64())
        parts = []
        for pid, pat in patterns:
            n = pc.count_substring_regex(col, pat)
            hit = pc.greater(n, 0)
            parts.append(
                pa.table(
                    {
                        "pattern_id": pa.array(
                            np.full(len(col), pid, dtype=np.int64)
                        ).filter(hit),
                        "doc_id": ids.filter(hit),
                        "n_matches": n.cast(pa.int64()).filter(hit),
                    }
                )
            )
        return pa.concat_tables(parts)

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def cooccurrence_topk(ds: ray.data.Dataset, *, text_col: str = "text",
                      k: int = 20) -> pa.Table:
    """Global top-k DISTINCT-term pairs by document co-occurrence count
    (n desc, then term_a/term_b asc) — corpus collocation statistics.

    Scale shape mirrors top_bigrams: pairs are generated vectorized
    inside each batch (per-row sorted distinct terms -> ragged upper-
    triangle expansion with numpy repeat/cumsum arithmetic, no Python
    row loop) and pre-counted per batch BEFORE one keyed exchange; each
    hash partition emits only its local top-k, so the driver merges P*k
    rows, never the pair vocabulary. Quadratic blowup on pathological
    rows is the caller's contract (docs with huge distinct vocabularies
    should be length-filtered first — the same contract as ngram
    shingling)."""
    from ..stages.exchange import keyed_partition_map
    from ..util import dataset_to_table

    empty = pa.table({"term_a": pa.array([], pa.string()),
                      "term_b": pa.array([], pa.string()),
                      "n": pa.array([], pa.int64())})

    def explode_pairs(batch: pa.Table) -> pa.Table:
        flat, parents, _dl = _tokenized(batch, text_col)
        if len(flat) == 0:
            return empty
        # distinct (row, term), then re-sorted so each row's terms are
        # contiguous and lexicographically ordered (=> term_a < term_b)
        d = (
            pa.table({"row": pa.array(parents, pa.int64()), "term": flat})
            .group_by(["row", "term"], use_threads=False)
            .aggregate([])
            .sort_by([("row", "ascending"), ("term", "ascending")])
        )
        rows = d.column("row").to_numpy(zero_copy_only=False)
        terms = d.column("term").combine_chunks()
        # within-row position j of each element; element j pairs with the
        # j in-row predecessors -> ragged expansion of the upper triangle
        n = len(rows)
        starts = np.concatenate(([0], np.flatnonzero(rows[1:] != rows[:-1]) + 1))
        lens = np.diff(np.concatenate((starts, [n])))
        within = np.arange(n, dtype=np.int64) - np.repeat(starts, lens)
        total = int(within.sum())
        if total == 0:
            return empty
        j_idx = np.repeat(np.arange(n, dtype=np.int64), within)
        cum = np.cumsum(within) - within
        off = np.arange(total, dtype=np.int64) - np.repeat(cum, within)
        i_idx = j_idx - np.repeat(within, within) + off
        t = pa.table(
            {"term_a": terms.take(pa.array(i_idx)),
             "term_b": terms.take(pa.array(j_idx))}
        ).group_by(["term_a", "term_b"], use_threads=False).aggregate(
            [([], "count_all")]
        )
        return pa.table({
            "term_a": t.column("term_a").cast(pa.string()),
            "term_b": t.column("term_b").cast(pa.string()),
            "n": t.column("count_all").cast(pa.int64()),
        })

    pre = ds.map_batches(explode_pairs, batch_format="pyarrow",
                         zero_copy_batch=True)

    def local_topk(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return empty
        agg = part.group_by(["term_a", "term_b"], use_threads=False).aggregate(
            [("n", "sum")]
        )
        agg = pa.table({"term_a": agg.column("term_a").cast(pa.string()),
                        "term_b": agg.column("term_b").cast(pa.string()),
                        "n": agg.column("n_sum").cast(pa.int64())})
        return agg.sort_by(
            [("n", "descending"), ("term_a", "ascending"),
             ("term_b", "ascending")]
        ).slice(0, k)

    local_topk.__name__ = "cooccurrence_topk"
    merged = dataset_to_table(
        keyed_partition_map(pre, ["term_a", "term_b"], local_topk)
    )
    return merged.sort_by(
        [("n", "descending"), ("term_a", "ascending"), ("term_b", "ascending")]
    ).slice(0, k)


def _tokenized(batch: pa.Table, text_col: str):
    """Shared vectorized tokenize over a batch: (flat terms, parent row
    indices, per-row dl)."""
    col = batch.column(text_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return _TOK.tokenize_column(col)


def quality_scores(ds: ray.data.Dataset, *, text_col: str = "text",
                   id_col: str = "doc_id") -> ray.data.Dataset:
    """(doc_id, n_tokens, stopword_ratio, mean_token_len), ratios rounded
    to 6 dp (same rounding as the SQL oracle). Fully vectorized: Arrow
    tokenize + is_in/utf8_length kernels + bincount segment sums — the
    semantics are pinned by functions.textstats.quality_metrics."""
    stop_set = pa.array(list(STOPWORDS), pa.string())

    def f(batch: pa.Table) -> pa.Table:
        flat, parents, dl = _tokenized(batch, text_col)
        n = batch.num_rows
        stop_mask = pc.is_in(flat, value_set=stop_set).to_numpy(
            zero_copy_only=False
        )
        stop_counts = np.bincount(parents[stop_mask], minlength=n)
        tok_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
        len_sums = np.bincount(parents, weights=tok_lens, minlength=n)
        safe = np.maximum(dl, 1).astype(np.float64)
        nonzero = dl > 0
        return pa.table(
            {
                "doc_id": batch.column(id_col).cast(pa.int64()),
                "n_tokens": pa.array(dl, pa.int64()),
                "stopword_ratio": pa.array(
                    np.round(np.where(nonzero, stop_counts / safe, 0.0), 6),
                    pa.float64(),
                ),
                "mean_token_len": pa.array(
                    np.round(np.where(nonzero, len_sums / safe, 0.0), 6),
                    pa.float64(),
                ),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def language_id(ds: ray.data.Dataset, *, text_col: str = "text",
                id_col: str = "doc_id") -> ray.data.Dataset:
    """(doc_id, pred_lang) marker-word heuristic. Vectorized per-lang
    is_in + bincount; the pinned tie-break (LANG_PRIORITY order, first
    max wins) is exactly argmax over the priority-ordered count stack."""
    marker_sets = {
        lang: pa.array(list(LANG_MARKERS[lang]), pa.string())
        for lang in LANG_PRIORITY
    }
    lang_arr = np.array(LANG_PRIORITY)

    def f(batch: pa.Table) -> pa.Table:
        flat, parents, _dl = _tokenized(batch, text_col)
        n = batch.num_rows
        counts = np.empty((len(LANG_PRIORITY), n), dtype=np.int64)
        for i, lang in enumerate(LANG_PRIORITY):
            mask = pc.is_in(flat, value_set=marker_sets[lang]).to_numpy(
                zero_copy_only=False
            )
            counts[i] = np.bincount(parents[mask], minlength=n)
        best = counts.max(axis=0)
        preds = np.where(best == 0, "unknown", lang_arr[counts.argmax(axis=0)])
        return pa.table(
            {
                "doc_id": batch.column(id_col).cast(pa.int64()),
                "pred_lang": pa.array(preds.tolist(), pa.string()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


# Pinned PII patterns (shared with the SQL oracle): emails, then runs of
# >= 6 digits (order matters — emails may contain digits)
PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_NUMBER_RE = r"[0-9]{6,}"


def redact_pii(ds: ray.data.Dataset, *, text_col: str = "text",
               id_col: str = "doc_id") -> ray.data.Dataset:
    """(doc_id, redacted) — emails -> [EMAIL], >=6-digit runs -> [NUM],
    fully vectorized Arrow regex replace (training-data scrubbing op)."""

    def f(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        out = pc.replace_substring_regex(col, PII_EMAIL_RE, "[EMAIL]")
        out = pc.replace_substring_regex(out, PII_NUMBER_RE, "[NUM]")
        return pa.table(
            {"doc_id": batch.column(id_col).cast(pa.int64()),
             "redacted": out}
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def quality_filter(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    min_tokens: int = 5,
    max_stopword_ratio: float = 0.5,
) -> ray.data.Dataset:
    """Rows passing the pinned quality gates (training-data filtering):
    n_tokens >= min_tokens AND stopword_ratio <= max_stopword_ratio.
    Computed per batch from the same vectorized kernels as
    quality_scores; the full row streams through untouched."""
    stop_set = pa.array(list(STOPWORDS), pa.string())

    def f(batch: pa.Table) -> pa.Table:
        flat, parents, dl = _tokenized(batch, text_col)
        n = batch.num_rows
        stop_mask = pc.is_in(flat, value_set=stop_set).to_numpy(zero_copy_only=False)
        stop_counts = np.bincount(parents[stop_mask], minlength=n)
        safe = np.maximum(dl, 1).astype(np.float64)
        ratio = np.where(dl > 0, stop_counts / safe, 0.0)
        keep = (dl >= min_tokens) & (np.round(ratio, 6) <= max_stopword_ratio)
        return batch.filter(pa.array(keep))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


BLOCKLIST = ("dup", "slow", "zzzbanned")


def blocklist_filter(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    blocklist: tuple[str, ...] = BLOCKLIST,
) -> ray.data.Dataset:
    """C4-style banned-term gate (Raffel et al. 2020 drop any page
    containing a blocklisted word): a doc survives iff NONE of its
    TOKENS (same pinned tokenizer as the index — substrings don't
    count) is in the blocklist; surviving rows stream through whole.

    Scale shape: pure streaming map, zero shuffles; the blocklist rides
    in the closure (it is pinned and small — a huge blocklist would go
    through ``ray.put`` like the bloom build sides)."""
    bad = pa.array(list(blocklist), pa.string())

    def f(batch: pa.Table) -> pa.Table:
        flat, parents, _dl = _tokenized(batch, text_col)
        n = batch.num_rows
        bad_mask = pc.is_in(flat, value_set=bad).to_numpy(
            zero_copy_only=False
        )
        bad_counts = np.bincount(parents[bad_mask], minlength=n)
        return batch.filter(pa.array(bad_counts == 0))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def pivot_counts(
    ds: ray.data.Dataset,
    row_col: str,
    col_col: str,
    col_values: list[str],
) -> ray.data.Dataset:
    """Cross-tab / PIVOT: one output row per ``row_col`` value with one
    count column per pinned ``col_values`` entry (column set must be
    pinned for a stable schema — discover it with a distinct pass if
    unknown). Rows outside ``col_values`` are ignored.

    Scale shape: each batch pre-counts (row, col) pairs locally, one
    keyed exchange on ``row_col`` co-locates each row key's partials,
    and the per-partition widening emits exactly one row per key —
    so only O(keys x pinned columns) counters ever move.
    SQL mirror: count(*) FILTER (WHERE col = v) GROUP BY row."""
    from ..stages.exchange import keyed_partition_map

    vals = list(col_values)
    val_arr = pa.array(vals, pa.string())

    def partial(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.is_in(batch.column(col_col), value_set=val_arr))
        g = b.select([row_col, col_col]).group_by(
            [row_col, col_col], use_threads=False
        ).aggregate([([], "count_all")])
        return g.rename_columns([row_col, col_col, "n"])

    pre = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    def widen(part: pa.Table) -> pa.Table:
        cols = {row_col: pa.array([], pa.int64())}
        cols.update({f"n_{v}": pa.array([], pa.int64()) for v in vals})
        if part.num_rows == 0:
            return pa.table(cols)
        keys = part.column(row_col).to_numpy(zero_copy_only=False)
        cv = part.column(col_col).to_numpy(zero_copy_only=False)
        n = part.column("n").to_numpy(zero_copy_only=False)
        uniq = np.unique(keys)
        uidx = np.searchsorted(uniq, keys)
        out = {row_col: pa.array(uniq.astype(np.int64), pa.int64())}
        for v in vals:
            tot = np.zeros(len(uniq), dtype=np.int64)
            m = cv == v
            np.add.at(tot, uidx[m], n[m])
            out[f"n_{v}"] = pa.array(tot, pa.int64())
        return pa.table(out)

    widen.__name__ = "pivot_widen"
    return keyed_partition_map(pre, [row_col], widen)


def histogram(
    ds: ray.data.Dataset,
    value_col: str,
    *,
    bin_width: float,
) -> pa.Table:
    """Equal-width histogram: (bin, n) with bin = floor(value /
    bin_width) — the profiling aggregate. Each batch reduces to its own
    (bin, count) partials (np.unique) and the driver merge is O(bins);
    nothing shuffles. floor of an IEEE double division is deterministic
    cross-engine, so the SQL mirror is exact."""

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"bin": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        if np.isnan(v).any():
            # a NaN (null value) would floor to INT64_MIN and emit a
            # garbage bin row; same explicit contract as
            # percentile_rank_per_group
            raise ValueError(
                f"histogram: null/NaN in {value_col!r}; filter first")
        bins = np.floor(v / bin_width).astype(np.int64)
        uniq, counts = np.unique(bins, return_counts=True)
        return pa.table({"bin": pa.array(uniq, pa.int64()),
                         "n": pa.array(counts.astype(np.int64), pa.int64())})

    from ..util import dataset_to_table

    tbl = dataset_to_table(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    )
    if tbl.num_rows == 0:
        return pa.table({"bin": pa.array([], pa.int64()),
                         "n": pa.array([], pa.int64())})
    agg = tbl.group_by(["bin"], use_threads=False).aggregate([("n", "sum")])
    return pa.table({
        "bin": agg.column("bin"),
        "n": agg.column("n_sum").cast(pa.int64()),
    }).sort_by([("bin", "ascending")])


def grouped_head(
    ds: ray.data.Dataset,
    group_col: str,
    order_col: str,
    *,
    n: int = 3,
    descending: bool = True,
    tie_col: str = "doc_id",
) -> ray.data.Dataset:
    """Top-N rows per group by ``order_col`` (ties broken by ``tie_col``
    asc) — the grouped-LIMIT relational shape ("3 longest docs per
    lang"). Each batch first keeps only its own local top-N per group
    (any global top-N row is in its batch's top-N), then one keyed
    exchange co-locates the survivors and the per-partition pass keeps
    the exact global top-N per group; at most batches x groups x N rows
    ever enter the exchange. SQL mirror: row_number window, rn <= N."""
    from ..stages.exchange import keyed_partition_map

    def local_head(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return part
        g = part.column(group_col).to_numpy(zero_copy_only=False)
        v = part.column(order_col).to_numpy(zero_copy_only=False)
        t = part.column(tie_col).to_numpy(zero_copy_only=False)
        keep = grouped_topk(g, t, v, n, descending=descending)
        return part.take(pa.array(np.sort(keep)))

    local_head.__name__ = "grouped_head"
    pre = ds.map_batches(local_head, batch_format="pyarrow",
                         zero_copy_batch=True)
    return keyed_partition_map(pre, [group_col], local_head)


def _ngram_window(flat, parents, n: int):
    """Token n-grams of a flattened (tokens, parent-row) stream: grams as
    space-joined strings (Arrow elementwise join of n shifted zero-copy
    slices) plus each gram's parent row. A window is kept only if its
    first and last token share a parent (parents are monotonic within a
    batch, so that pins all n). Returns (grams, gram_parents) or None."""
    if len(flat) < n:
        return None
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    w = len(flat) - n + 1
    m = parents[n - 1:] == parents[:w]
    if not m.any():
        return None
    cols = [flat.slice(i, w) for i in range(n)]
    grams = pc.binary_join_element_wise(*cols, " ").filter(pa.array(m))
    return grams, parents[:w][m]


def distinct_ngrams(texts, n: int) -> pa.Array:
    """DISTINCT token n-grams of a (small) collection of texts —
    driver-side helper for the benchmark side of decontamination (an
    eval set is thousands of docs by contract; the CORPUS side streams
    through decontaminate)."""
    tok = _TOK
    flat, parents, _ = tok.tokenize_column(
        texts if not isinstance(texts, pa.ChunkedArray) else texts.combine_chunks()
    )
    win = _ngram_window(flat, parents, n)
    if win is None:
        return pa.array([], pa.string())
    return pc.unique(win[0])


class DecontaminateStage:
    """Actor-pool stage for benchmark decontamination: the benchmark's
    distinct n-gram value set is fetched ONCE per actor from the object
    store (broadcast small side — ray.put by the caller), then every
    corpus batch is scanned vectorized (Arrow windowed join +
    pc.index_in) for overlapping n-grams. Emits one row per CONTAMINATED
    doc: (doc_id, n_bench_grams = count of DISTINCT benchmark grams the
    doc contains). Typical use: flag / drop training docs overlapping an
    eval set before export."""

    def __init__(self, bench_ref, n: int, id_col: str, text_col: str) -> None:
        import ray

        self.bench = ray.get(bench_ref)  # pa.Array of distinct grams
        self.n = int(n)
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "n_bench_grams": pa.array([], pa.int64())})
        if batch.num_rows == 0 or len(self.bench) == 0:
            return empty
        flat, parents, _ = _tokenized(batch, self.text_col)
        win = _ngram_window(flat, parents, self.n)
        if win is None:
            return empty
        grams, gdoc = win
        gid = pc.index_in(grams, value_set=self.bench)
        hit = gid.is_valid().to_numpy(zero_copy_only=False)
        if not hit.any():
            return empty
        gid = gid.to_numpy(zero_copy_only=False)[hit].astype(np.int64)
        gdoc = gdoc[hit].astype(np.int64)
        # distinct (doc row, benchmark gram) pairs, then counts per row
        key = np.unique(gdoc * np.int64(len(self.bench)) + gid)
        rows = key // np.int64(len(self.bench))
        counts = np.bincount(rows, minlength=batch.num_rows)
        rows_u = np.flatnonzero(counts)
        ids = batch.column(self.id_col).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(ids[rows_u], pa.int64()),
                "n_bench_grams": pa.array(counts[rows_u], pa.int64()),
            }
        )


def decontaminate(
    ds: ray.data.Dataset,
    bench_grams: pa.Array,
    *,
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    concurrency=(1, 8),
) -> ray.data.Dataset:
    """(doc_id, n_bench_grams) for every corpus doc sharing at least one
    token ``n``-gram with the benchmark set (callers exclude benchmark
    docs from ``ds`` themselves). The gram value set ships to the object
    store once and each actor fetches it once — the corpus side streams
    with no shuffle at all."""
    import ray as _ray

    ref = _ray.put(bench_grams)
    return ds.map_batches(
        DecontaminateStage,
        fn_constructor_kwargs=dict(bench_ref=ref, n=n, id_col=id_col,
                                   text_col=text_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=concurrency,
    )


def doc_fingerprints(ds: ray.data.Dataset, *, text_col: str = "text",
                     id_col: str = "doc_id") -> ray.data.Dataset:
    """(doc_id, fingerprint) rolling-hash document fingerprints.

    Token hashes are computed once per UNIQUE token (dictionary encode +
    sha256-top64 per dictionary entry); the Horner recurrence itself stays a
    per-doc loop because each step is a 61-bit modular multiply of the
    previous state — sequential by definition and >64-bit intermediate,
    so numpy cannot express it. Semantics pinned by textstats.fingerprint."""
    from ..functions.textstats import FP_BASE, FP_MOD, fp_token_hash64

    def f(batch: pa.Table) -> pa.Table:
        flat, parents, dl = _tokenized(batch, text_col)
        n = batch.num_rows
        enc = (flat.dictionary_encode()
               if not isinstance(flat, pa.ChunkedArray)
               else flat.combine_chunks().dictionary_encode())
        uniq_h = [fp_token_hash64(t) % FP_MOD for t in enc.dictionary.to_pylist()]
        idx = enc.indices.to_numpy(zero_copy_only=False)
        starts = np.concatenate(([0], np.cumsum(dl)))
        fps = np.zeros(n, dtype=np.uint64)
        for r in range(n):
            h = 0
            for j in range(int(starts[r]), int(starts[r + 1])):
                h = (h * FP_BASE + uniq_h[idx[j]]) % FP_MOD
            fps[r] = h
        return pa.table(
            {
                "doc_id": batch.column(id_col).cast(pa.int64()),
                "fingerprint": pa.array(fps, pa.uint64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def dedup_lines(ds: ray.data.Dataset, *, text_col: str = "text",
                id_col: str = "doc_id") -> ray.data.Dataset:
    """C4-style within-document line dedup: drop every repeat of a line
    already seen earlier in the SAME doc (first occurrence kept, original
    order preserved, lines split/rejoined on ``\\n``). Note repeated empty
    lines collapse too — the rule is pinned as plain line equality.

    Vectorized: split_pattern -> dictionary-encode lines -> np.unique on a
    (row, line) key keeps first occurrences -> rebuild the list offsets
    with bincount and rejoin via the binary_join kernel. Pure per-row map,
    no shuffle, no state."""

    def f(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = batch.num_rows
        lines_list = pc.split_pattern(col, pattern="\n")
        flat = pc.list_flatten(lines_list)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        parents = pc.list_parent_indices(lines_list).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        if len(flat):
            enc = flat.dictionary_encode()
            idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            key = parents * max(len(enc.dictionary), 1) + idx
            _, first = np.unique(key, return_index=True)
            first.sort()  # row-major flat order == original line order
            kept = flat.take(pa.array(first))
            kept_parents = parents[first]
        else:
            kept = flat
            kept_parents = parents
        counts = np.bincount(kept_parents, minlength=n)
        offsets = pa.array(np.concatenate(([0], np.cumsum(counts))),
                           pa.int32())
        relisted = pa.ListArray.from_arrays(offsets, kept)
        return pa.table(
            {
                "doc_id": batch.column(id_col).cast(pa.int64()),
                "cleaned": pc.binary_join(relisted, "\n"),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def _lines_table(batch: pa.Table, text_col: str, id_col: str) -> pa.Table:
    """(doc_id, idx, line) for every line of every doc in the batch
    (split on \\n; idx = 0-based position within the doc)."""
    col = batch.column(text_col)
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lines_list = pc.split_pattern(col, pattern="\n")
    flat = pc.list_flatten(lines_list)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    parents = pc.list_parent_indices(lines_list).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    counts = pc.list_value_length(lines_list).to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    idx = np.arange(len(flat), dtype=np.int64) - np.repeat(starts, counts)
    ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({
        "doc_id": pa.array(ids[parents], pa.int64()),
        "idx": pa.array(idx, pa.int64()),
        "line": flat,
    })


def dedup_lines_global(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """CCNet-style CORPUS-level line dedup: a non-empty line occurrence
    survives iff it is the corpus-wide FIRST occurrence of that exact
    line string (minimal (doc_id, idx) over all docs); empty lines are
    exempt and always kept. Output one row per input doc:
    (doc_id, n_lines, n_kept, cleaned) — cleaned is the surviving lines
    rejoined on \\n ('' when nothing survives).

    Scale shape: ONE line-keyed exchange decides winners (all owners of a
    line co-locate; arg-min is partition-local) and ONE doc-keyed
    exchange rebuilds the docs, then a distributed left join hangs the
    rebuilt text onto the per-doc line totals. Empty lines are salted by
    doc_id on the first exchange — the '' key would otherwise be the
    corpus's hottest key — which is sound because exempt rows don't need
    co-location. No broadcast, no driver-side state."""
    from ..stages.exchange import keyed_partition_map
    from .joins import hash_join

    def lines_salted(batch: pa.Table) -> pa.Table:
        t = _lines_table(batch, text_col, id_col)
        empty = pc.equal(t.column("line"), "").combine_chunks()
        docs = t.column("doc_id").to_numpy(zero_copy_only=False)
        salt = np.where(empty.to_numpy(zero_copy_only=False), docs, 0)
        return t.append_column("salt", pa.array(salt, pa.int64()))

    def winners(part: pa.Table) -> pa.Table:
        """Keep exempt ('') rows plus the (doc_id, idx)-minimal owner of
        each non-empty line; every owner of a line is in this partition."""
        if part.num_rows == 0:
            return part.select(["doc_id", "idx", "line"])
        order = pc.sort_indices(part, sort_keys=[
            ("line", "ascending"), ("doc_id", "ascending"),
            ("idx", "ascending")])
        g = part.take(order)
        lines = g.column("line")
        first = np.zeros(g.num_rows, dtype=bool)
        first[0] = True
        neq = pc.not_equal(lines.slice(1), lines.slice(0, g.num_rows - 1))
        first[1:] = neq.to_numpy(zero_copy_only=False)
        keep = first | pc.equal(lines, "").to_numpy(zero_copy_only=False)
        return g.select(["doc_id", "idx", "line"]).filter(pa.array(keep))

    def rebuild(part: pa.Table) -> pa.Table:
        """All kept lines of a doc are co-located: rejoin in idx order."""
        if part.num_rows == 0:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_kept": pa.array([], pa.int64()),
                             "cleaned": pa.array([], pa.string())})
        order = pc.sort_indices(part, sort_keys=[
            ("doc_id", "ascending"), ("idx", "ascending")])
        g = part.take(order)
        docs = g.column("doc_id").to_numpy(zero_copy_only=False)
        starts = np.concatenate(
            ([0], np.flatnonzero(docs[1:] != docs[:-1]) + 1))
        counts = np.diff(np.concatenate((starts, [len(docs)])))
        offsets = pa.array(np.concatenate(([0], np.cumsum(counts))),
                           pa.int32())
        flat = g.column("line")
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        relisted = pa.ListArray.from_arrays(offsets, flat)
        return pa.table({
            "doc_id": pa.array(docs[starts], pa.int64()),
            "n_kept": pa.array(counts, pa.int64()),
            "cleaned": pc.binary_join(relisted, "\n"),
        })

    kept = keyed_partition_map(
        ds.map_batches(lines_salted, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["line", "salt"], winners, num_partitions=num_partitions)
    rebuilt = keyed_partition_map(kept, ["doc_id"], rebuild,
                                  num_partitions=num_partitions)

    def totals(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = pc.list_value_length(pc.split_pattern(col, pattern="\n"))
        return pa.table({
            "doc_id": batch.column(id_col).cast(pa.int64()),
            "n_lines": n.cast(pa.int64()),
        })

    joined = hash_join(
        ds.map_batches(totals, batch_format="pyarrow", zero_copy_batch=True),
        rebuilt, left_on="doc_id", right_on="doc_id", how="left",
        num_partitions=num_partitions)

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": batch.column("doc_id"),
            "n_lines": batch.column("n_lines"),
            "n_kept": pc.coalesce(batch.column("n_kept"),
                                  pa.scalar(0, pa.int64())),
            "cleaned": pc.coalesce(batch.column("cleaned"), pa.scalar("")),
        })

    return joined.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def chunk_docs(ds: ray.data.Dataset, *, size: int, stride: int,
               text_col: str = "text",
               id_col: str = "doc_id") -> ray.data.Dataset:
    """Context-window chunking: split each doc into ``size``-char windows
    every ``stride`` chars (overlap = size - stride). One row per chunk:
    (doc_id, chunk_id, chunk_text); chunk i covers codepoints
    [i*stride, i*stride + size). A doc of <= ``size`` chars (incl. empty)
    yields exactly one chunk, so every doc stays represented.

    Vectorized by CHUNK INDEX, not by row: pass j slices every doc that
    still needs chunk j with one scalar-bound utf8_slice_codeunits kernel
    call — the loop runs max_chunks times (longest doc / stride), never
    once per row. Codepoint semantics match SQL substr. Pure flat-map:
    no shuffle, no state."""
    if size <= 0 or stride <= 0:
        raise ValueError("size and stride must be positive")

    def f(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ids = batch.column(id_col).cast(pa.int64())
        lens = pc.utf8_length(col).to_numpy(zero_copy_only=False)
        n_chunks = np.where(
            lens <= size, 1, 1 + (lens - size + stride - 1) // stride
        ).astype(np.int64)
        out_ids, out_cid, out_txt = [], [], []
        for j in range(int(n_chunks.max()) if len(n_chunks) else 0):
            mask = n_chunks > j
            sub = col.filter(pa.array(mask))
            out_txt.append(pc.utf8_slice_codeunits(
                sub, start=j * stride, stop=j * stride + size
            ))
            out_ids.append(ids.filter(pa.array(mask)))
            out_cid.append(np.full(len(sub), j, dtype=np.int64))
        if not out_ids:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "chunk_id": pa.array([], pa.int64()),
                "chunk_text": pa.array([], pa.string()),
            })
        return pa.table({
            "doc_id": pa.concat_arrays(
                a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
                for a in out_ids
            ),
            "chunk_id": pa.array(np.concatenate(out_cid), pa.int64()),
            "chunk_text": pa.concat_arrays(
                a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
                for a in out_txt
            ),
        })

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def repetition_scores(ds: ray.data.Dataset, *, text_col: str = "text",
                      id_col: str = "doc_id") -> ray.data.Dataset:
    """Gopher-style within-document repetition metrics, one row per doc:

    - ``dup_line_frac``: fraction of line characters that sit inside lines
      occurring more than once in the same doc (lines split on ``\\n``,
      char lengths; empty lines carry 0 chars so they never move the ratio).
    - ``dup_ngram_frac``: 1 - distinct/total over word 3-grams (0 when the
      doc has fewer than 3 tokens).
    - ``top_bigram_frac``: occurrences of the doc's most frequent word
      2-gram divided by total bigrams (0 when fewer than 2 tokens).

    Fully vectorized: line dedup via dictionary-encode + np.unique on a
    (row, line) key; n-gram multiplicities via the pinned shingle-hash
    window combine (textstats._combine_ngram) + one lexsort per batch.
    Ratios rounded to 6 dp (same rounding as the SQL oracle). Scale note:
    purely per-row map — no shuffle, no broadcast state."""
    from ..functions.textstats import (
        _combine_ngram, shingle_hash_column, token_hash64,
    )

    def f(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = batch.num_rows

        # --- duplicate-line char fraction ---
        lines_list = pc.split_pattern(col, pattern="\n")
        flat_lines = pc.list_flatten(lines_list)
        if isinstance(flat_lines, pa.ChunkedArray):
            flat_lines = flat_lines.combine_chunks()
        dup_line = np.zeros(n, dtype=np.float64)
        if len(flat_lines):
            parents_l = pc.list_parent_indices(lines_list).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            lens = pc.utf8_length(flat_lines).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
            enc = flat_lines.dictionary_encode()
            idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            key = parents_l * max(len(enc.dictionary), 1) + idx
            _, first, counts = np.unique(
                key, return_index=True, return_counts=True
            )
            k_parent = parents_l[first]
            k_chars = lens[first] * counts  # chars over ALL occurrences
            tot = np.bincount(k_parent, weights=k_chars, minlength=n)
            dup_mask = counts > 1
            dup = np.bincount(
                k_parent[dup_mask], weights=k_chars[dup_mask], minlength=n
            )
            nz = tot > 0
            dup_line[nz] = dup[nz] / tot[nz]

        # --- duplicate 3-gram fraction (1 - distinct/total) ---
        flat, parents, dl = _tokenized(batch, text_col)
        dl = np.asarray(dl, dtype=np.int64)
        tri_total = np.maximum(dl - 2, 0).astype(np.float64)
        _, tri_offsets = shingle_hash_column(col, 3)
        tri_distinct = np.diff(tri_offsets).astype(np.float64)
        dup_ngram = np.where(
            tri_total > 0, 1.0 - tri_distinct / np.maximum(tri_total, 1.0), 0.0
        )

        # --- top-bigram occurrence fraction ---
        top_bigram = np.zeros(n, dtype=np.float64)
        if len(parents):
            enc_t = (flat.combine_chunks()
                     if isinstance(flat, pa.ChunkedArray) else flat
                     ).dictionary_encode()
            uniq_h = np.fromiter(
                (token_hash64(t) for t in enc_t.dictionary.to_pylist()),
                dtype=np.uint64, count=len(enc_t.dictionary),
            )
            th = uniq_h[enc_t.indices.to_numpy(zero_copy_only=False)]
            m = len(th) - 1
            if m > 0:
                hs = _combine_ngram(th, 2)
                valid = parents[:m] == parents[1:m + 1]
                rows = parents[:m][valid]
                hh = hs[valid]
                if len(rows):
                    order = np.lexsort((hh, rows))
                    rr, hh = rows[order], hh[order]
                    brk = (rr[1:] != rr[:-1]) | (hh[1:] != hh[:-1])
                    starts = np.concatenate(([0], np.flatnonzero(brk) + 1))
                    run_lens = np.diff(np.concatenate((starts, [len(rr)])))
                    maxc = np.zeros(n, dtype=np.int64)
                    np.maximum.at(maxc, rr[starts], run_lens)
                    big_total = np.maximum(dl - 1, 1).astype(np.float64)
                    top_bigram = np.where(dl > 1, maxc / big_total, 0.0)

        return pa.table(
            {
                "doc_id": batch.column(id_col).cast(pa.int64()),
                "dup_line_frac": pa.array(np.round(dup_line, 6), pa.float64()),
                "dup_ngram_frac": pa.array(np.round(dup_ngram, 6), pa.float64()),
                "top_bigram_frac": pa.array(
                    np.round(top_bigram, 6), pa.float64()
                ),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


_HH_TOTAL = "\x00total"  # tokenizer output is [a-z0-9]+ so this can't collide


def heavy_hitters(
    ds: ray.data.Dataset, *, k: int = 20, capacity: int = 512,
    text_col: str = "text", max_candidates: int = 65536,
) -> pa.Table:
    """EXACT global top-k terms by occurrence count, WITHOUT a
    vocabulary-scale shuffle: two streaming passes with O(capacity)
    state per batch (the Misra-Gries reduction).

    Pass 1 truncates each batch's exact histogram to its top ``capacity``
    entries, decremented by the (capacity+1)-th largest count — the MG
    summary. Summing summaries undercounts any term by at most
    N/(capacity+1) total, so every term with global count >
    N/(capacity+1) survives the merge: the merged survivor set provably
    CONTAINS the true top-k whenever the k-th count clears that
    threshold. Pass 2 recounts only the survivors exactly (is_in +
    bincount per batch, candidate-sized partial rows), and the guarantee
    is CHECKED against the exact counts — if the k-th count does not
    clear N/(capacity+1) the result could be wrong, so it raises with
    the capacity to retry at. Exchange traffic: O(batches x capacity)
    pass-1 rows + O(batches x survivors) pass-2 rows; never O(vocab)."""
    from ..stages.exchange import partitioned_aggregate
    from ..util import dataset_to_table

    def mg_summarize(batch: pa.Table) -> pa.Table:
        flat, _, _ = _tokenized(batch, text_col)
        vc = pc.value_counts(flat)
        terms = vc.field("values")
        counts = vc.field("counts").to_numpy(zero_copy_only=False)
        total = int(counts.sum())
        if counts.size > capacity:
            order = np.argsort(-counts, kind="stable")
            cut = counts[order[capacity]]
            keep = order[:capacity]
            kept = counts[keep] - cut
            pos = kept > 0
            terms = terms.take(pa.array(keep[pos], pa.int64()))
            counts = kept[pos]
        out_t = pa.concat_arrays(
            [terms.combine_chunks() if isinstance(terms, pa.ChunkedArray)
             else terms, pa.array([_HH_TOTAL], pa.string())]
        )
        out_c = np.append(counts, total)
        return pa.table({"term": out_t, "c": pa.array(out_c, pa.int64())})

    merged = dataset_to_table(partitioned_aggregate(
        ds.map_batches(mg_summarize, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["term"], [("c", "sum")], rename={"c_sum": "c"},
    ))
    is_total = pc.equal(merged.column("term"), _HH_TOTAL)
    n_tokens = int(merged.filter(is_total).column("c")[0].as_py())
    cand = merged.filter(pc.invert(is_total)).column("term")
    if isinstance(cand, pa.ChunkedArray):
        cand = cand.combine_chunks()
    if len(cand) > max_candidates:
        raise ValueError(
            f"{len(cand)} MG survivors exceed max_candidates; "
            f"raise capacity above {capacity} or max_candidates"
        )

    def recount(batch: pa.Table) -> pa.Table:
        flat, _, _ = _tokenized(batch, text_col)
        idx_arr = pc.index_in(flat, value_set=cand)
        idx = idx_arr.filter(pc.is_valid(idx_arr)).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        counts = np.bincount(idx, minlength=len(cand))
        nz = np.flatnonzero(counts)
        return pa.table({
            "term": cand.take(pa.array(nz, pa.int64())),
            "n": pa.array(counts[nz], pa.int64()),
        })

    exact = dataset_to_table(partitioned_aggregate(
        ds.map_batches(recount, batch_format="pyarrow", zero_copy_batch=True),
        ["term"], [("n", "sum")], rename={"n_sum": "n"},
    )).sort_by([("n", "descending"), ("term", "ascending")])
    if exact.num_rows < k:
        raise ValueError(f"corpus has fewer than k={k} sketch survivors")
    kth = int(exact.column("n")[k - 1].as_py())
    threshold = n_tokens / (capacity + 1)
    if kth <= threshold:
        raise ValueError(
            f"top-{k} not certified: k-th count {kth} <= N/(capacity+1) "
            f"= {threshold:.1f}; retry with capacity >= {int(n_tokens / kth) + 1}"
        )
    return exact.slice(0, k)


# BPE-ish pretokenizer (GPT-2-shaped, RE2-compatible — no lookaheads, so
# Arrow's count_substring_regex and DuckDB's regexp_extract_all count the
# same non-overlapping leftmost matches): contraction suffixes, then
# space-prefixed letter / digit / punctuation runs, then whitespace runs.
BPE_PRETOKEN_RE = r"'(?:[sdmt]|ll|ve|re)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9']+|\s+"


def bpe_token_counts(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Per-doc BPE-ish pretoken count (the unit LLM token budgets are
    estimated in) — one vectorized RE2 pass per batch, zero shuffles."""

    def f(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return pa.table({
            "doc_id": batch.column(id_col).cast(pa.int64()),
            "n_pretokens": pc.count_substring_regex(
                col, BPE_PRETOKEN_RE).cast(pa.int64()),
        })

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def tfidf_keywords(
    ds: ray.data.Dataset,
    *,
    m: int = 5,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Top-``m`` TF-IDF keywords per doc: (doc_id, term, tf, df,
    score_x1e6, rnk). Pinned scoring keeps the driver's value-hash
    compare exact: idf_x1e6 = floor(ln((N+1)/(df+1)) * 1e6 + 0.5)
    (half-away rounding, matching DuckDB's round()), score = tf *
    idf_x1e6 as BIGINT, rank ties broken by term ascending.

    Scale shape: per-batch (doc, term, tf) partials (a doc lives in one
    row, so pairs are globally unique); ONE term-keyed exchange makes df
    partition-local and attaches it to every owner row; ONE doc-keyed
    exchange ranks per doc. No broadcast df table — at code scale the
    vocabulary is unbounded and must never be driver-side state. N is
    the only driver scalar (metadata count)."""
    from ..stages.exchange import keyed_partition_map

    n_docs = ds.count()

    def tf_rows(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat, parents, _dl = _TOK.tokenize_column(col)
        ids = batch.column(id_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        t = pa.table({"term": flat,
                      "doc_id": pa.array(ids[parents], pa.int64())})
        g = t.group_by(["term", "doc_id"], use_threads=False).aggregate(
            [("doc_id", "count")])
        return pa.table({"term": g.column("term"),
                         "doc_id": g.column("doc_id"),
                         "tf": g.column("doc_id_count").cast(pa.int64())})

    def attach_df(part: pa.Table) -> pa.Table:
        """All owners of a term co-locate: df = rows per term (pairs are
        globally unique), idf precomputed once per term."""
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "term": pa.array([], pa.string()),
                          "tf": pa.array([], pa.int64()),
                          "df": pa.array([], pa.int64()),
                          "score_x1e6": pa.array([], pa.int64())})
        if part.num_rows == 0:
            return empty
        enc_src = part.column("term")
        if isinstance(enc_src, pa.ChunkedArray):
            enc_src = enc_src.combine_chunks()
        enc = enc_src.dictionary_encode()
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        df = np.bincount(idx, minlength=len(enc.dictionary)).astype(np.int64)
        idf_x1e6 = np.floor(
            np.log((n_docs + 1.0) / (df + 1.0)) * 1e6 + 0.5
        ).astype(np.int64)
        tf = part.column("tf").to_numpy(zero_copy_only=False)
        return pa.table({
            "doc_id": part.column("doc_id"),
            "term": part.column("term"),
            "tf": part.column("tf"),
            "df": pa.array(df[idx], pa.int64()),
            "score_x1e6": pa.array(tf * idf_x1e6[idx], pa.int64()),
        })

    def rank_per_doc(part: pa.Table) -> pa.Table:
        empty = pa.table({"doc_id": pa.array([], pa.int64()),
                          "term": pa.array([], pa.string()),
                          "tf": pa.array([], pa.int64()),
                          "df": pa.array([], pa.int64()),
                          "score_x1e6": pa.array([], pa.int64()),
                          "rnk": pa.array([], pa.int64())})
        if part.num_rows == 0:
            return empty
        order = pc.sort_indices(part, sort_keys=[
            ("doc_id", "ascending"), ("score_x1e6", "descending"),
            ("term", "ascending")])
        g = part.take(order)
        docs = g.column("doc_id").to_numpy(zero_copy_only=False)
        starts = np.concatenate(
            ([0], np.flatnonzero(docs[1:] != docs[:-1]) + 1))
        runs = np.diff(np.concatenate((starts, [len(docs)])))
        rnk = (np.arange(len(docs), dtype=np.int64)
               - np.repeat(starts, runs) + 1)
        g = g.append_column("rnk", pa.array(rnk, pa.int64()))
        return g.filter(pa.array(rnk <= m))

    rows = ds.map_batches(tf_rows, batch_format="pyarrow",
                          zero_copy_batch=True)
    scored = keyed_partition_map(rows, ["term"], attach_df,
                                 num_partitions=num_partitions)
    return keyed_partition_map(scored, ["doc_id"], rank_per_doc,
                               num_partitions=num_partitions)


def pmi_collocations(
    ds: ray.data.Dataset,
    *,
    k: int = 20,
    min_count: int = 5,
    text_col: str = "text",
    num_partitions: int | None = None,
) -> pa.Table:
    """Top-``k`` collocations by pointwise mutual information over
    adjacent token pairs: pmi = ln(n_ab * T^2 / (B * n_a * n_b)) with
    T = total tokens, B = total bigram slots, n_* = corpus counts;
    bigrams below ``min_count`` are noise and excluded (the classic
    Church & Hanks 1990 guard). Output (bigram, n_ab, pmi_x1e6) ordered
    by (pmi desc, bigram asc); pmi quantized half-away to x1e6 BIGINT
    for exact cross-engine compare.

    Scale shape: unigram and bigram counts are pre-combined per batch;
    attaching n_a / n_b to each bigram is TWO word-keyed cogroup
    exchanges (bigrams keyed by their first then second word against the
    unigram stream) — the unigram table is never broadcast (unbounded
    vocabulary). The final top-k folds per partition, so the driver
    merges P*k rows."""
    from ..stages.exchange import keyed_cogroup_map, partitioned_aggregate
    from ..util import dataset_to_table

    def uni_counts(batch: pa.Table) -> pa.Table:
        flat, _parents, _dl = _tokenized(batch, text_col)
        t = pa.table({"w": flat}).group_by(
            ["w"], use_threads=False).aggregate([("w", "count")])
        return pa.table({"w": t.column("w").cast(pa.string()),
                         "n_w": t.column("w_count").cast(pa.int64())})

    def bi_counts(batch: pa.Table) -> pa.Table:
        empty = pa.table({"wa": pa.array([], pa.string()),
                          "wb": pa.array([], pa.string()),
                          "n_ab": pa.array([], pa.int64())})
        flat, parents, _dl = _tokenized(batch, text_col)
        if len(flat) < 2:
            return empty
        m = pa.array(parents[1:] == parents[:-1])
        a = flat.slice(0, len(flat) - 1).filter(m)
        b = flat.slice(1).filter(m)
        if len(a) == 0:
            return empty
        t = pa.table({"wa": a, "wb": b}).group_by(
            ["wa", "wb"], use_threads=False).aggregate([("wa", "count")])
        return pa.table({"wa": t.column("wa").cast(pa.string()),
                         "wb": t.column("wb").cast(pa.string()),
                         "n_ab": t.column("wa_count").cast(pa.int64())})

    unis = partitioned_aggregate(
        ds.map_batches(uni_counts, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["w"], [("n_w", "sum")], num_partitions=num_partitions,
        rename={"n_w_sum": "n_w"})
    bis = partitioned_aggregate(
        ds.map_batches(bi_counts, batch_format="pyarrow",
                       zero_copy_batch=True),
        ["wa", "wb"], [("n_ab", "sum")], num_partitions=num_partitions,
        rename={"n_ab_sum": "n_ab"})

    # corpus scalars T (tokens) and B (bigram slots = sum max(dl-1, 0)):
    # per-batch partial sums — never materialize the vocabulary
    def scalar_partials(batch: pa.Table) -> pa.Table:
        _f, _p, dl = _tokenized(batch, text_col)
        return pa.table({
            "t": pa.array([int(dl.sum())], pa.int64()),
            "b": pa.array([int(np.maximum(dl - 1, 0).sum())], pa.int64()),
        })

    sc_t = dataset_to_table(
        ds.map_batches(scalar_partials, batch_format="pyarrow",
                       zero_copy_batch=True))
    T = int(pc.sum(sc_t.column("t")).as_py() or 0)
    B = int(pc.sum(sc_t.column("b")).as_py() or 0)
    if B == 0:
        return pa.table({"bigram": pa.array([], pa.string()),
                         "n_ab": pa.array([], pa.int64()),
                         "pmi_x1e6": pa.array([], pa.int64())})

    def gate(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater_equal(batch.column("n_ab"), min_count))

    bis_g = bis.map_batches(gate, batch_format="pyarrow",
                            zero_copy_batch=True)

    def attach(col_out: str):
        def f(big: pa.Table, uni: pa.Table) -> pa.Table:
            if big.num_rows == 0:
                return big.append_column(
                    col_out, pa.array([], pa.int64()))
            joined = big.join(uni, keys=[f"__k"], right_keys=["w"],
                              join_type="inner")
            return joined.rename_columns(
                [col_out if c == "n_w" else c
                 for c in joined.column_names])
        return f

    def key_on(col: str):
        def f(batch: pa.Table) -> pa.Table:
            return batch.append_column("__k", batch.column(col))
        return f

    b1 = keyed_cogroup_map(
        bis_g.map_batches(key_on("wa"), batch_format="pyarrow",
                          zero_copy_batch=True),
        unis, ["__k"], ["w"], attach("n_a"),
        num_partitions=num_partitions)

    def rekey(batch: pa.Table) -> pa.Table:
        batch = batch.drop_columns(["__k"])
        return batch.append_column("__k", batch.column("wb"))

    b2 = keyed_cogroup_map(
        b1.map_batches(rekey, batch_format="pyarrow",
                       zero_copy_batch=True),
        unis, ["__k"], ["w"], attach("n_b"),
        num_partitions=num_partitions)

    def score_topk(batch: pa.Table) -> pa.Table:
        empty = pa.table({"bigram": pa.array([], pa.string()),
                          "n_ab": pa.array([], pa.int64()),
                          "pmi_x1e6": pa.array([], pa.int64())})
        if batch.num_rows == 0:
            return empty
        n_ab = batch.column("n_ab").to_numpy(zero_copy_only=False)
        n_a = batch.column("n_a").to_numpy(zero_copy_only=False)
        n_b = batch.column("n_b").to_numpy(zero_copy_only=False)
        pmi = np.floor(np.log(
            n_ab.astype(np.float64) * float(T) * float(T)
            / (float(B) * n_a.astype(np.float64) * n_b.astype(np.float64))
        ) * 1e6 + 0.5).astype(np.int64)
        wa = batch.column("wa")
        wb = batch.column("wb")
        if isinstance(wa, pa.ChunkedArray):
            wa = wa.combine_chunks()
        if isinstance(wb, pa.ChunkedArray):
            wb = wb.combine_chunks()
        t = pa.table({
            "bigram": pc.binary_join_element_wise(wa, wb, " "),
            "n_ab": batch.column("n_ab"),
            "pmi_x1e6": pa.array(pmi, pa.int64()),
        })
        return t.sort_by([("pmi_x1e6", "descending"),
                          ("bigram", "ascending")]).slice(0, k)

    merged = dataset_to_table(
        b2.map_batches(score_topk, batch_format="pyarrow",
                       zero_copy_batch=True))
    return merged.sort_by([("pmi_x1e6", "descending"),
                           ("bigram", "ascending")]).slice(0, k)


def percentile_rank_per_group(
    ds: ray.data.Dataset,
    *,
    group_col: str,
    value_col: str,
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Integer-exact per-group percentile rank — the normalization step
    that makes a quality signal comparable ACROSS groups (e.g. per-lang
    before corpus mixing): pct_x1e6 = ((row_number - 1) * 10^6) //
    (n - 1) in pinned (value, id) ascending order (0 for singleton
    groups). Pure integer arithmetic, so the SQL oracle mirrors it
    exactly — no percent_rank() float. One keyed exchange; the
    per-partition pass is a lexsort + segmented arange."""
    from ..stages.exchange import keyed_partition_map

    def per_partition(part: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          group_col: pa.array([], pa.string()),
                          "pct_x1e6": pa.array([], pa.int64())})
        if part.num_rows == 0:
            return empty
        grp = part.column(group_col)
        if isinstance(grp, pa.ChunkedArray):
            grp = grp.combine_chunks()
        enc = grp.dictionary_encode()
        gi = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ids = part.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        # Rank on the value column's native numeric dtype: an int64 cast
        # here would truncate float quality signals (0.9, 0.2, 0.7 all
        # -> 0) and silently rank by doc_id instead of value.
        vals = part.column(value_col).to_numpy(zero_copy_only=False)
        if vals.dtype.kind not in "iuf":
            raise TypeError(
                f"percentile_rank_per_group: {value_col!r} must be numeric, "
                f"got {vals.dtype}")
        if vals.dtype.kind == "f" and np.isnan(vals).any():
            raise ValueError(
                f"percentile_rank_per_group: {value_col!r} contains NaN — "
                "ranks would be engine-dependent; filter or fill first")
        o = np.lexsort((ids, vals, gi))
        gi_s, ids_s = gi[o], ids[o]
        starts = np.concatenate(([0], np.flatnonzero(gi_s[1:] != gi_s[:-1]) + 1))
        lens = np.diff(np.concatenate((starts, [len(gi_s)])))
        rn = np.arange(len(gi_s)) - np.repeat(starts, lens)  # row_number - 1
        denom = np.repeat(np.maximum(lens - 1, 1), lens)
        pct = (rn * 1_000_000) // denom
        return pa.table({id_col: pa.array(ids_s, pa.int64()),
                         group_col: grp.take(pa.array(o)),
                         "pct_x1e6": pa.array(pct, pa.int64())})

    per_partition.__name__ = "percentile_rank"
    return keyed_partition_map(ds, [group_col], per_partition)


def compressibility_scores(
    ds: ray.data.Dataset, *, text_col: str = "text", id_col: str = "doc_id",
) -> ray.data.Dataset:
    """(doc_id, raw_len, zlib_len, ratio_x1e6) — the compression-ratio
    quality signal (highly compressible text is boilerplate/repetition;
    the Gopher/RefinedWeb-style cheap dup proxy). zlib level 6, pinned;
    ratio = zlib_len / raw_len quantized x1e6 half-up (1e6 for empty
    docs). Per-row zlib is C-backed; the stage is a pure parallel map —
    not SQL-expressible, so this query is rows-only with pytest
    coverage (like minhash_neardup)."""
    import zlib

    def f(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        raw, comp = [], []
        for t in col.to_pylist():
            b = (t or "").encode("utf-8")
            raw.append(len(b))
            comp.append(len(zlib.compress(b, 6)))
        raw_a = np.array(raw, dtype=np.int64)
        comp_a = np.array(comp, dtype=np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(raw_a > 0, comp_a / np.maximum(raw_a, 1), 1.0)
        r6 = np.floor(ratio * 1e6 + 0.5).astype(np.int64)
        return pa.table(
            {"doc_id": batch.column(id_col).cast(pa.int64()),
             "raw_len": pa.array(raw_a, pa.int64()),
             "zlib_len": pa.array(comp_a, pa.int64()),
             "ratio_x1e6": pa.array(r6, pa.int64())}
        )

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def term_counts_cms(
    ds: ray.data.Dataset, terms: list[str], *, text_col: str = "text",
) -> pa.Table:
    """Count-min-sketch term-occurrence estimates for pinned query
    terms — the bounded-memory frequency structure for when even the
    (term, count) table is too big to exchange (10^9+ vocab): each
    batch emits ONE (depth x width) counter row (64 KiB), partials sum
    on the driver, point queries take min-over-depth. Estimates never
    undercount. Keys are fp_token_hash64 (sha256 top-8) so the DuckDB
    oracle computes the IDENTICAL sketch."""
    from ..functions.sketch import CMS_DEPTH, CMS_WIDTH, cms_partial, cms_query
    from ..functions.textstats import fp_token_hash64
    from ..util import dataset_to_table

    def partials(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat, _, _ = _TOK.tokenize_column(col)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        if len(flat) == 0:
            sk = np.zeros((CMS_DEPTH, CMS_WIDTH), np.int64)
        else:
            enc = flat.dictionary_encode()
            uniq = enc.dictionary.to_pylist()
            keys = np.fromiter((fp_token_hash64(t) for t in uniq),
                               dtype=np.uint64, count=len(uniq))
            occ = np.bincount(
                enc.indices.to_numpy(zero_copy_only=False),
                minlength=len(uniq),
            ).astype(np.int64)
            sk = cms_partial(keys, occ)
        return pa.table({"sk": pa.FixedSizeListArray.from_arrays(
            pa.array(sk.ravel(), pa.int64()), CMS_DEPTH * CMS_WIDTH)})

    parts = dataset_to_table(
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
    )
    flat = parts.column("sk").combine_chunks().flatten().to_numpy(
        zero_copy_only=False
    ).astype(np.int64)
    sk = (flat.reshape(-1, CMS_DEPTH, CMS_WIDTH).sum(axis=0)
          if len(flat) else np.zeros((CMS_DEPTH, CMS_WIDTH), np.int64))
    qkeys = np.fromiter((fp_token_hash64(t) for t in terms),
                        dtype=np.uint64, count=len(terms))
    est = cms_query(sk, qkeys)
    return pa.table({"term": pa.array(terms, pa.string()),
                     "est_count": pa.array(est, pa.int64())})


def token_entropy(ds: ray.data.Dataset, *, text_col: str = "text",
                  id_col: str = "doc_id") -> ray.data.Dataset:
    """Per-doc unigram Shannon entropy — the "natural text vs keyword
    stuffing / boilerplate" quality signal (low entropy = few distinct
    tokens dominate). Pinned exact-integer spec:

        H(d) = ln(n) - (1/n) * sum_t m_t ln(m_t)

    with each term's contribution quantized BEFORE the sum —
    L_t = floor(m_t * ln(m_t) * 1e6 + 0.5) — so the per-doc sum S is an
    exact integer and entropy_x1e6 = floor(ln(n) * 1e6 + 0.5) - S // n
    (nonnegative operands: numpy floor-div == DuckDB trunc-div). The
    only float op is one ln per distinct (doc, term), mirrored
    operand-for-operand in the oracle. Token-less docs emit no rows.

    Scale shape: shuffle-free pure per-batch map (docs are whole rows,
    so in-batch term counts are global term counts); one lexsort per
    batch makes the (doc, term) multiplicities."""

    def f(batch: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "n_tokens": pa.array([], pa.int64()),
                          "entropy_x1e6": pa.array([], pa.int64())})
        if batch.num_rows == 0:
            return empty
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat, parents, _ = _TOK.tokenize_column(col)
        if len(flat) == 0:
            return empty
        enc = flat.dictionary_encode()
        tidx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        par = parents.astype(np.int64)
        order = np.lexsort((tidx, par))
        ps, ts = par[order], tidx[order]
        new = np.concatenate(([True], (ps[1:] != ps[:-1])
                              | (ts[1:] != ts[:-1])))
        starts = np.flatnonzero(new)
        m = np.diff(np.concatenate((starts, [len(ps)])))
        run_doc = ps[starts]
        L = np.floor(m * np.log(m) * 1_000_000 + 0.5).astype(np.int64)
        nrows = batch.num_rows
        S = np.zeros(nrows, dtype=np.int64)
        np.add.at(S, run_doc, L)
        n = np.bincount(par, minlength=nrows).astype(np.int64)
        seen = n > 0
        ln_n = np.floor(np.log(n[seen]) * 1_000_000 + 0.5).astype(np.int64)
        ent = ln_n - S[seen] // n[seen]
        ids = batch.column(id_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        return pa.table({
            id_col: pa.array(ids[seen]),
            "n_tokens": pa.array(n[seen]),
            "entropy_x1e6": pa.array(ent),
        })

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def token_entropy_oracle_sql(*, table: str = "documents") -> str:
    """DuckDB mirror of token_entropy: identical tokenization, per-term
    quantized contributions, exact-integer fold, trunc-div (operands
    nonnegative so trunc == floor)."""
    return f"""
WITH tok AS MATERIALIZED (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term
  FROM {table}),
tf AS MATERIALIZED (
  SELECT doc_id, term, count(*)::BIGINT AS m FROM tok GROUP BY 1, 2),
s AS MATERIALIZED (
  SELECT doc_id,
         sum(CAST(floor(m * ln(m) * 1000000 + 0.5) AS BIGINT))::BIGINT AS s,
         sum(m)::BIGINT AS n
  FROM tf GROUP BY doc_id)
SELECT doc_id, n AS n_tokens,
       (CAST(floor(ln(n) * 1000000 + 0.5) AS BIGINT) - s // n)::BIGINT
         AS entropy_x1e6
FROM s
ORDER BY doc_id"""


def corpus_report(
    ds: ray.data.Dataset,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    lang_col: str = "lang",
) -> pa.Table:
    """One-row corpus REPORT CARD (the pre-training data-audit summary):
    n_docs, n_langs, total_tokens, distinct_terms, dup_sha_groups,
    median_chars — every number exact.

    Scale shape: one streaming pass emits BOUNDED per-batch partials
    (counts, the distinct langs, and an n_chars histogram whose
    cardinality is bounded by the max document length, not the corpus);
    the exact distinct-term count reuses the term_df exchange (the one
    term-keyed all-to-all); the duplicate-group count reuses the
    2-column sha exchange of exact_dedup_groups. Nothing corpus-sized
    reaches the driver. Median index pinned to DuckDB quantile_disc
    (ceil(q*n) - 1)."""
    from ..util import dataset_to_table

    def partials(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        _, _, dl = _TOK.tokenize_column(col)
        nchars = pc.utf8_length(col).to_numpy(zero_copy_only=False)
        vals, cnts = np.unique(nchars, return_counts=True)
        langs = pc.unique(batch.column(lang_col)).to_pylist()
        return pa.table({
            "n_docs": pa.array([batch.num_rows], pa.int64()),
            "total_tokens": pa.array([int(dl.sum())], pa.int64()),
            "langs": pa.array([langs], pa.list_(pa.string())),
            "hvals": pa.array([vals.tolist()], pa.list_(pa.int64())),
            "hcnts": pa.array([cnts.tolist()], pa.list_(pa.int64())),
        })

    part = dataset_to_table(
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
    )
    n_docs = int(pc.sum(part.column("n_docs")).as_py() or 0)
    total_tokens = int(pc.sum(part.column("total_tokens")).as_py() or 0)
    langs: set[str] = set()
    for row in part.column("langs").to_pylist():
        # NULL langs are not languages (SQL count(DISTINCT) semantics)
        langs.update(v for v in row if v is not None)
    hist: dict[int, int] = {}
    for vals, cnts in zip(part.column("hvals").to_pylist(),
                          part.column("hcnts").to_pylist()):
        for v, c in zip(vals, cnts):
            hist[v] = hist.get(v, 0) + c
    median_chars = 0
    if n_docs:
        idx = int(np.ceil(0.5 * n_docs)) - 1
        cum = 0
        for v in sorted(hist):
            cum += hist[v]
            if cum > idx:
                median_chars = int(v)
                break

    distinct_terms = term_df(ds).count()

    from .dedup import exact_dedup_groups

    groups = exact_dedup_groups(ds, text_col=text_col, id_col=id_col)
    dup_groups = groups.filter(expr="n_dups > 1").count()

    return pa.table({
        "n_docs": pa.array([n_docs], pa.int64()),
        "n_langs": pa.array([len(langs)], pa.int64()),
        "total_tokens": pa.array([total_tokens], pa.int64()),
        "distinct_terms": pa.array([int(distinct_terms)], pa.int64()),
        "dup_sha_groups": pa.array([int(dup_groups)], pa.int64()),
        "median_chars": pa.array([median_chars], pa.int64()),
    })
