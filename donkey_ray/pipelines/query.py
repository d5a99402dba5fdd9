"""Query serving pipeline (SURVEY.md section 3.2.2).

Queries are a Dataset; scoring is an actor pool (one QueryEngine per
actor, built once in __init__) parallelized OVER QUERIES — each actor can
read any term-partition (shared storage), so a multi-term query never
needs a cross-actor merge. The dictionary is SHARDED AND LAZY
(stages/score._SegmentShard): an actor touches only the row groups of
the partitions its query terms hash to, so per-actor memory is
independent of corpus vocabulary (the 10^12-doc serving path).
"""

from __future__ import annotations

import pyarrow as pa
import ray
import ray.data

from ..stages.score import QueryEngine, _engine_topk


class QueryScorerStage:
    """map_batches actor: QUERIES-schema batches -> RESULTS-schema batches.

    ``kind`` selects the engine entry point: "topk" (bag-of-words BM25),
    "and" (conjunctive BM25 via posting-list intersection; any index),
    "prefix" (wildcard: dictionary range-scan expansion, then
    disjunctive BM25 over the matching terms), "phrase" (exact
    positional phrase), or "near" (proximity-filtered conjunctive BM25
    within ``window`` positions of the anchor term; the latter two need
    an index built with positions=True). Every kind but "all" goes
    through the serving surfaces' one dispatch, ``_engine_topk``; "not"
    batches carry an extra neg_text column and "msm" batches a
    min_match column."""

    def __init__(self, index_dir: str, mode: str = "auto",
                 kind: str = "topk", window: int = 4) -> None:
        self.engine = QueryEngine(index_dir, mode=mode)
        self.kind = kind
        self.window = window

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        if self.kind == "all":
            # untruncated hit set as numpy arrays (no rank column, no
            # per-hit Python objects) — the collapse/filter feed
            out_q, out_d, out_s = [], [], []
            for row in batch.to_pylist():
                res = self.engine.score_all(row["text"])
                if res is None:
                    continue
                d, s = res
                out_q.append(np.full(len(d), int(row["query_id"]),
                                     dtype=np.int64))
                out_d.append(d.astype(np.int64))
                out_s.append(s)
            if not out_q:
                return pa.table(
                    {"query_id": pa.array([], pa.int64()),
                     "doc_id": pa.array([], pa.int64()),
                     "score": pa.array([], pa.float64())}
                )
            return pa.table(
                {
                    "query_id": pa.array(np.concatenate(out_q)),
                    "doc_id": pa.array(np.concatenate(out_d)),
                    "score": pa.array(np.concatenate(out_s)),
                }
            )
        qids, ranks, docs, scores = [], [], [], []
        for row in batch.to_pylist():
            kw = {}
            if self.kind == "not":
                kw["neg_text"] = row.get("neg_text") or ""
            elif self.kind == "msm":
                kw["min_match"] = int(row["min_match"])
            try:
                hits = _engine_topk(self.engine, row["text"], int(row["k"]),
                                    kind=self.kind, window=self.window, **kw)
            except ValueError:
                # a too-broad prefix raises in the library API (a guard,
                # not a crash); in serving it must cost one empty result,
                # never the whole batch/actor (same invariant as bool)
                if self.kind != "prefix":
                    raise
                hits = []
            for r, (d, s) in enumerate(hits, start=1):
                qids.append(int(row["query_id"]))
                ranks.append(r)
                docs.append(d)
                scores.append(s)
        return pa.table(
            {
                "query_id": pa.array(qids, pa.int64()),
                "rank": pa.array(ranks, pa.int32()),
                "doc_id": pa.array(docs, pa.int64()),
                "score": pa.array(scores, pa.float64()),
            }
        )


def score_queries(
    index_dir: str,
    queries: ray.data.Dataset | pa.Table,
    *,
    mode: str = "auto",
    kind: str = "topk",
    window: int = 4,
    concurrency=None,
    batch_size: int = 64,
) -> ray.data.Dataset:
    n_queries = queries.num_rows if isinstance(queries, pa.Table) else None
    if isinstance(queries, pa.Table):
        # from_arrow(one table) yields ONE block and Ray Data schedules
        # map tasks per BLOCK (batch_size only slices within a task), so
        # the whole sweep would run on a single actor. Split driver-side
        # into one slice per batch (a list of tables = one block each) —
        # a repartition op here can deadlock against a fixed-size actor
        # pool that holds every CPU slot.
        if n_queries and n_queries > batch_size:
            slices = [queries.slice(i, batch_size)
                      for i in range(0, n_queries, batch_size)]
            queries = ray.data.from_arrow(slices)
        else:
            queries = ray.data.from_arrow(queries)
    if concurrency is None:
        # actors sized to the number of query batches (engine init — dict
        # load — is paid per actor; more actors than batches is pure waste)
        cpus = int(ray.cluster_resources().get("CPU", 4))
        n_batches = max(1, (n_queries or 512) // batch_size)
        concurrency = (1, max(1, min(cpus, n_batches, 8)))
    return queries.map_batches(
        QueryScorerStage,
        fn_constructor_kwargs=dict(index_dir=index_dir, mode=mode, kind=kind,
                                   window=window),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
    )


def rerank_cosine(
    index_dir: str,
    queries: pa.Table,
    texts: pa.Table | str,
    *,
    candidates: int = 50,
    k: int = 10,
    mode: str = "auto",
) -> pa.Table:
    """Two-stage retrieval (donkey's search -> object rerank shape):
    stage 1 retrieves top-``candidates`` per query with BM25 through the
    ordinary serving path; stage 2 re-scores ONLY those candidates by
    full tf-idf COSINE between the query vector and each candidate
    document vector, and returns the re-ranked top-k.

    The rerank is candidate-bounded by construction: document vectors
    are built from the candidates' texts (``texts`` is a (doc_id, text)
    table covering the candidates, or a parquet path read with doc_id
    pushdown AFTER the candidate set is known) and
    per-term idf comes from the index's sharded dictionary, so stage-2
    cost is O(queries x candidates x doc length), never corpus-sized.
    Weights: w(t) = tf(t) * idf(t) with the pinned Lucene idf; the doc
    norm runs over ALL the doc's terms, the query norm over the query's
    bag-of-words counts. Ties: cosine desc, doc_id asc."""
    import numpy as np

    from ..stages.score import QueryEngine
    from ..util import dataset_to_table

    res = dataset_to_table(
        score_queries(index_dir, queries.set_column(
            queries.column_names.index("k"), "k",
            pa.array([candidates] * queries.num_rows, pa.int32()),
        ), mode=mode)
    )
    eng = QueryEngine(index_dir)
    if isinstance(texts, str):
        import pyarrow.compute as pc
        import pyarrow.dataset as pads

        texts = pads.dataset(texts).to_table(
            columns=["doc_id", "text"],
            filter=pads.field("doc_id").isin(pc.unique(res.column("doc_id"))),
        )
    text_by_id = {
        int(i): (t or "")
        for i, t in zip(texts.column("doc_id").to_pylist(),
                        texts.column("text").to_pylist())
    }
    out_q, out_r, out_d, out_s = [], [], [], []
    res_q = res.column("query_id").to_numpy(zero_copy_only=False)
    res_d = res.column("doc_id").to_numpy(zero_copy_only=False)
    for qrow in queries.to_pylist():
        qid = int(qrow["query_id"])
        cand = res_d[res_q == qid]
        if len(cand) == 0:
            continue
        qtoks = eng._tok.tokenize(qrow["text"])
        qtf: dict[str, int] = {}
        for t in qtoks:
            qtf[t] = qtf.get(t, 0) + 1
        # doc vectors: tokenize candidates, weight by tf * idf
        doc_w: list[dict[str, float]] = []
        all_terms: set[str] = set(qtf)
        dtfs: list[dict[str, int]] = []
        for d in cand:
            toks = eng._tok.tokenize(text_by_id.get(int(d), ""))
            tf: dict[str, int] = {}
            for t in toks:
                tf[t] = tf.get(t, 0) + 1
            dtfs.append(tf)
            all_terms.update(tf)
        idf = {
            t: float(eng.scorer.idf(eng.term_df(t), eng.n_docs))
            for t in all_terms
        }
        wq = {t: n * idf[t] for t, n in qtf.items()}
        nq = float(np.sqrt(sum(w * w for w in wq.values())))
        cos = np.zeros(len(cand), dtype=np.float64)
        for i, tf in enumerate(dtfs):
            wd = {t: n * idf[t] for t, n in tf.items()}
            nd = float(np.sqrt(sum(w * w for w in wd.values())))
            dp = sum(wq[t] * wd[t] for t in wq.keys() & wd.keys())
            cos[i] = dp / (nq * nd) if nq and nd else 0.0
        order = np.lexsort((cand, -cos))[:k]
        out_q.extend([qid] * len(order))
        out_r.extend(range(1, len(order) + 1))
        out_d.extend(int(cand[i]) for i in order)
        out_s.extend(float(cos[i]) for i in order)
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "rank": pa.array(out_r, pa.int32()),
            "doc_id": pa.array(out_d, pa.int64()),
            "cos_sim": pa.array(out_s, pa.float64()),
        }
    )


def scatter_gather_topk(
    index_dir: str,
    queries: pa.Table,
    *,
    num_partitions: int | None = None,
) -> pa.Table:
    """Distributed scatter-gather BM25 top-k (document-at-a-time assembled
    ACROSS partitions) — the batch-query path whose per-task memory is one
    term-partition, rank/score-identical to QueryEngine.topk.

    Where ``score_queries`` parallelizes over QUERIES (each actor pulls
    any partition it needs — right for many small interactive queries
    over shared storage), this path parallelizes over the INDEX: query
    terms are routed to the partitions that own them (the build-time
    hash + hot-term salt table), each partition task decodes only its
    own postings and emits per-(query, doc) partial scores pre-summed
    locally, one keyed exchange assembles cross-partition doc scores and
    keeps a per-partition top-k, and the driver merges P*k candidate
    rows per query. Nothing doc- or vocabulary-sized ever lands on one
    node, so this is the shape for huge analytical query batches
    (e.g. relevance sweeps) over a 10^12-doc index.

    Global idf needs the term's TOTAL df; a salted hot term's runs span
    partitions, so a df pre-pass touches only the dictionary df column
    (_SegmentShard.find_df — no posting bytes) and the driver combines
    the per-run dfs (O(query terms) scalars) before the scoring pass.
    """
    import numpy as np
    import ray.data

    from ..functions import scoring
    from ..stages.exchange import keyed_partition_map
    from ..stages.score import QueryEngine, _SegmentShard
    from ..state import manifest as mf
    from ..util import dataset_to_table

    eng = QueryEngine(index_dir)  # meta + routing only; loads no segments
    if len(eng.index_dirs) != 1:
        raise ValueError("scatter_gather_topk serves a single index")
    # plain values for the task closures: the engine's caches hold locks
    avgdl, n_docs, block_size = eng.avgdl, eng.n_docs, eng.block_size
    scorer = eng.scorer
    empty = pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int32()),
            "doc_id": pa.array([], pa.int64()),
            "score": pa.array([], pa.float64()),
        }
    )

    # --- driver-side routing (queries are tiny by contract) ---
    route_rows: list[tuple[int, str, int, int]] = []  # (part, term, qid, k)
    per_query_k: dict[int, int] = {}
    for row in queries.to_pylist():
        qid, k = int(row["query_id"]), int(row["k"])
        if qid in per_query_k:
            # a duplicated id would double-count every shared term's
            # contribution in the partial-sum exchange — reject loudly
            raise ValueError(f"duplicate query_id {qid} in queries table")
        per_query_k[qid] = k
        for term in sorted(set(eng._tok.tokenize(row["text"]))):
            for part in eng._candidate_parts(0, term):
                if part in eng._parts_built[0]:
                    route_rows.append((part, term, qid, k))
    if not route_rows:
        return empty
    # per-row k: query ids sorted, looked up by binary search
    qk = np.array(sorted(per_query_k.items()), dtype=np.int64)

    def k_of(q):
        return qk[np.searchsorted(qk[:, 0], q), 1]

    # a built partition whose segment is gone raises here, on the driver
    parts = sorted({p for p, *_ in route_rows})
    seg_path = dict(zip(parts, mf.built_segment_paths(index_dir, eng.meta,
                                                      parts)))

    # --- pass 1: global df per term (dictionary df column only) ---
    df_routes = sorted({(p, t) for p, t, _q, _k in route_rows})
    df_ds = ray.data.from_arrow(
        pa.table(
            {
                "part": pa.array([p for p, _ in df_routes], pa.int32()),
                "term": pa.array([t for _, t in df_routes], pa.string()),
            }
        )
    )

    def df_pass(group: pa.Table) -> pa.Table:
        part = int(group.column("part")[0].as_py())
        shard = _SegmentShard(seg_path[part])
        terms = group.column("term").to_pylist()
        dfs = [shard.find_df(t) for t in terms]
        hit = [i for i, d in enumerate(dfs) if d is not None]
        return pa.table(
            {
                "term": pa.array([terms[i] for i in hit], pa.string()),
                "df": pa.array([dfs[i] for i in hit], pa.int64()),
            }
        )

    df_tbl = dataset_to_table(
        df_ds.groupby("part").map_groups(df_pass, batch_format="pyarrow")
    )
    global_df: dict[str, int] = {}
    for t, d in zip(df_tbl.column("term").to_pylist(),
                    df_tbl.column("df").to_pylist()):
        global_df[t] = global_df.get(t, 0) + int(d)
    idf_by_term = {
        t: float(scorer.idf(d, n_docs)) for t, d in global_df.items()
    }

    # --- pass 2: per-partition postings decode -> local (query, doc)
    # partial sums (one row group read per term, vectorized tf weight) ---
    kept = [r for r in route_rows if r[1] in idf_by_term]
    if not kept:
        return empty
    route_ds = ray.data.from_arrow(
        pa.table(
            {
                "part": pa.array([r[0] for r in kept], pa.int32()),
                "term": pa.array([r[1] for r in kept], pa.string()),
                "query_id": pa.array([r[2] for r in kept], pa.int64()),
            }
        )
    )

    def score_partition(group: pa.Table) -> pa.Table:
        from ..functions.codec import decode_runs

        part = int(group.column("part")[0].as_py())
        shard = _SegmentShard(seg_path[part])
        qids_out: list[np.ndarray] = []
        docs_out: list[np.ndarray] = []
        contrib_out: list[np.ndarray] = []
        terms = group.column("term").to_numpy(zero_copy_only=False)
        qids = group.column("query_id").to_numpy(zero_copy_only=False)
        found = [(str(t), row) for t in np.unique(terms)
                 if (row := shard.find(str(t))) is not None]
        decoded = decode_runs([(r["doc_ids"], r["tfs"], r["dls"], r["df"])
                               for _, r in found], block_size)
        for (term, _), (ids, tfs, dls) in zip(found, decoded):
            contrib = idf_by_term[term] * scorer.tf_weight(
                tfs.astype(np.float64), dls.astype(np.float64), avgdl
            )
            for qid in qids[terms == term]:
                qids_out.append(np.full(ids.size, qid, dtype=np.int64))
                docs_out.append(ids)
                contrib_out.append(contrib)
        if not docs_out:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                    "partial": pa.array([], pa.float64()),
                }
            )
        t = pa.table(
            {
                "query_id": pa.array(np.concatenate(qids_out)),
                "doc_id": pa.array(np.concatenate(docs_out)),
                "partial": pa.array(np.concatenate(contrib_out)),
            }
        )
        # local combine: one row per (query, doc) leaves the partition
        agg = t.group_by(["query_id", "doc_id"], use_threads=False).aggregate(
            [("partial", "sum")]
        )
        return agg.rename_columns(["query_id", "doc_id", "partial"])

    partials = route_ds.groupby("part").map_groups(
        score_partition, batch_format="pyarrow"
    )

    # --- pass 3: assemble cross-partition sums, keep per-partition
    # top-k candidates per query (global top-k is within their union) ---
    def assemble_topk(part_tbl: pa.Table) -> pa.Table:
        if part_tbl.num_rows == 0:
            return pa.table(
                {
                    "query_id": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                    "score": pa.array([], pa.float64()),
                }
            )
        agg = part_tbl.group_by(
            ["query_id", "doc_id"], use_threads=False
        ).aggregate([("partial", "sum")])
        q = agg.column("query_id").to_numpy(zero_copy_only=False)
        d = agg.column("doc_id").to_numpy(zero_copy_only=False)
        s = agg.column("partial_sum").to_numpy(zero_copy_only=False)
        keep = scoring.grouped_topk(q, d, s, k_of(q))
        return pa.table(
            {
                "query_id": pa.array(q[keep]),
                "doc_id": pa.array(d[keep]),
                "score": pa.array(s[keep]),
            }
        )

    assemble_topk.__name__ = "assemble_topk"
    cand = dataset_to_table(
        keyed_partition_map(
            partials, ["query_id", "doc_id"], assemble_topk,
            num_partitions=num_partitions,
        )
    )
    if cand.num_rows == 0:
        return empty

    # --- driver merge: P*k candidate rows per query ---
    q = cand.column("query_id").to_numpy(zero_copy_only=False)
    d = cand.column("doc_id").to_numpy(zero_copy_only=False)
    s = cand.column("score").to_numpy(zero_copy_only=False)
    sel = scoring.grouped_topk(q, d, s, k_of(q))
    return pa.table(
        {
            "query_id": pa.array(q[sel], pa.int64()),
            "rank": pa.array(scoring.group_ranks(q[sel]) + 1, pa.int32()),
            "doc_id": pa.array(d[sel], pa.int64()),
            "score": pa.array(s[sel], pa.float64()),
        }
    )


def collapse_topk(
    index_dir: str,
    queries: pa.Table,
    docs_path: str,
    *,
    field: str = "source",
    k: int = 10,
    num_partitions: int | None = None,
) -> pa.Table:
    """Field-collapsed top-k (the search-UI "one result per site"):
    every matching doc is scored (disjunctive BM25, NO truncation), each
    hit is joined to its ``field`` value, and only the best-scoring doc
    per (query, field value) survives (ties: doc_id asc); survivors are
    re-ranked per query and the top-k returned with the field value.

    Scale shape: the uncollapsed hit set can be corpus-sized for common
    terms, so nothing funnels through the driver until AFTER collapse —
    hits flow through the distributed hash join against the docs table
    (hash exchange on doc_id), then a keyed exchange on (query, field)
    keeps one argmax row per group; only queries x distinct-field-values
    rows reach the driver merge. SQL mirror: row_number() per
    (query, field) ordered by score desc, doc_id asc, keep row 1."""
    import numpy as np

    from ..functions import scoring
    from ..stages.exchange import keyed_partition_map
    from ..util import dataset_to_table
    from .joins import hash_join

    hits = score_queries(index_dir, queries, kind="all")
    docs = ray.data.read_parquet(docs_path, columns=["doc_id", field])
    joined = hash_join(hits, docs, left_on="doc_id", right_on="doc_id",
                       how="inner", num_partitions=num_partitions)

    def group_argmax(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return part
        q = part.column("query_id").to_numpy(zero_copy_only=False)
        f = part.column(field).to_numpy(zero_copy_only=False).astype(str)
        d = part.column("doc_id").to_numpy(zero_copy_only=False)
        s = part.column("score").to_numpy(zero_copy_only=False)
        # one int code per (query, field), in (query, field) order
        _, qc = np.unique(q, return_inverse=True)
        fv, fc = np.unique(f, return_inverse=True)
        return part.take(pa.array(
            scoring.grouped_topk(qc * len(fv) + fc, d, s, 1)))

    group_argmax.__name__ = "collapse_argmax"
    best = dataset_to_table(
        keyed_partition_map(joined, ["query_id", field], group_argmax,
                            num_partitions=num_partitions)
    )
    q = best.column("query_id").to_numpy(zero_copy_only=False)
    d = best.column("doc_id").to_numpy(zero_copy_only=False)
    s = best.column("score").to_numpy(zero_copy_only=False)
    sel = scoring.grouped_topk(q, d, s, k)
    return pa.table(
        {
            "query_id": pa.array(q[sel], pa.int64()),
            "rank": pa.array(scoring.group_ranks(q[sel]) + 1, pa.int32()),
            "doc_id": pa.array(d[sel], pa.int64()),
            "score": pa.array(s[sel], pa.float64()),
            field: best.column(field).take(sel).cast(pa.string()),
        }
    )


def _per_query_topk(hits: ray.data.Dataset, k: int, name: str,
                    num_partitions: int | None) -> pa.Table:
    """Per-query top-k of a (query_id, doc_id, score) hit stream, the
    hit-set rankers' shared tail: each query_id-keyed partition keeps
    its own top-k rows, then the driver ranks the survivors 1..k."""
    import numpy as np

    from ..functions.scoring import group_ranks, grouped_topk
    from ..stages.exchange import keyed_partition_map
    from ..util import dataset_to_table

    def columns(t: pa.Table):
        return [t.column(c).to_numpy(zero_copy_only=False) if t.num_rows
                else np.zeros(0, np.int64)
                for c in ("query_id", "doc_id", "score")]

    def local_topk(part: pa.Table) -> pa.Table:
        return part.take(pa.array(grouped_topk(*columns(part), k)))

    local_topk.__name__ = name
    q, d, s = columns(dataset_to_table(keyed_partition_map(
        hits, ["query_id"], local_topk, num_partitions=num_partitions)))
    sel = grouped_topk(q, d, s, k)
    return pa.table(
        {
            "query_id": pa.array(q[sel], pa.int64()),
            "rank": pa.array(group_ranks(q[sel]) + 1, pa.int32()),
            "doc_id": pa.array(d[sel], pa.int64()),
            "score": pa.array(s[sel], pa.float64()),
        }
    )


def filtered_topk(
    index_dir: str,
    queries: pa.Table,
    *,
    field: str = "lang",
    value: str,
    k: int = 10,
    num_partitions: int | None = None,
) -> pa.Table:
    """Metadata-filtered top-k (the search-UI facet filter: "only
    lang=python"): every matching doc is scored (NO truncation), joined
    to its ``field`` value from the index's OWN docs artifact through
    the distributed hash join, rows failing the filter are dropped, and
    the per-query top-k of the survivors is returned. Filtering happens
    BEFORE truncation — filtering a top-k page after the fact would
    under-fill pages whenever the filter is selective.

    Scale shape: same as collapse_topk — the uncollapsed hit set flows
    through a doc_id hash exchange against the docs table (which is
    filtered to the wanted value AT THE READ, so the join's right side
    is only the qualifying docs and the join doubles as the filter);
    only per-partition top-k survivors reach the driver merge."""
    import os

    import pyarrow.dataset as pads

    from .joins import hash_join

    hits = score_queries(index_dir, queries, kind="all")
    docs = ray.data.read_parquet(
        os.path.join(index_dir, "docs"), columns=["doc_id"],
        filter=pads.field(field) == value,
    )
    kept = hash_join(hits, docs, left_on="doc_id", right_on="doc_id",
                     how="semi", num_partitions=num_partitions)
    return _per_query_topk(kept, k, "filtered_local_topk", num_partitions)


def threshold_topk(
    index_dir: str,
    queries: pa.Table,
    *,
    r: float,
    k: int = 10,
    num_partitions: int | None = None,
) -> pa.Table:
    """Donkey's R-threshold search (A6: candidates thresholded by R,
    sorted desc, cut to K): only hits with round(score, 6) >= r survive
    — the rounding is applied on BOTH engines before comparing, so a
    score sitting one ulp either side of r cannot flip cross-engine.

    Scale shape: the threshold filter runs vectorized inside the hit
    stream's map_batches (before any exchange), the per-query top-k
    fold inside query_id-keyed partitions; only survivors reach the
    driver merge."""
    import pyarrow.compute as pc

    hits = score_queries(index_dir, queries, kind="all")

    def above(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        # half_towards_infinity = DuckDB round()'s halfway behavior;
        # Arrow's default half_to_even would diverge at exact halves
        return batch.filter(pc.greater_equal(
            pc.round(batch.column("score"), ndigits=6,
                     round_mode="half_towards_infinity"), r))

    above.__name__ = "threshold_filter"
    kept = hits.map_batches(above, batch_format="pyarrow",
                            zero_copy_batch=True)
    return _per_query_topk(kept, k, "threshold_local_topk", num_partitions)


def sort_by_field_topk(
    index_dir: str,
    queries: pa.Table,
    *,
    field: str = "n_chars",
    k: int = 10,
    num_partitions: int | None = None,
) -> pa.Table:
    """Field-SORTED retrieval (Lucene's sort-by-field, "newest/longest
    first" UIs): every doc matching ANY query term is ranked by the
    ``field`` value from the index's own docs artifact — descending,
    ties doc_id ascending — NOT by BM25 score. The hit set still comes
    from posting-list traversal; only the ordering key changes.

    Scale shape: hits flow through ONE doc_id hash exchange against the
    docs artifact (inner join carries just doc_id + the sort field), the
    per-query top-k fold runs inside the query_id-keyed partitions, and
    only per-partition survivors (<= k x queries x partitions rows)
    reach the driver merge — the corpus-sized hit set is never
    materialized."""
    import os

    from ..functions.scoring import group_ranks
    from ..stages.exchange import keyed_partition_map
    from ..util import dataset_to_table
    from .joins import hash_join

    hits = score_queries(index_dir, queries, kind="all")
    docs = ray.data.read_parquet(
        os.path.join(index_dir, "docs"), columns=["doc_id", field],
    )
    joined = hash_join(hits, docs, left_on="doc_id", right_on="doc_id",
                       how="inner", num_partitions=num_partitions)
    order = [("query_id", "ascending"), (field, "descending"),
             ("doc_id", "ascending")]

    def first_k(t: pa.Table) -> pa.Table:
        """Each query's first k rows in ``order`` (an Arrow sort, so
        the field keeps its type)."""
        if t.num_rows == 0:
            return t
        t = t.sort_by(order)
        ranks = group_ranks(t.column("query_id").to_numpy(
            zero_copy_only=False))
        return t.filter(pa.array(ranks < k))

    first_k.__name__ = "sortfield_local_topk"
    cand = dataset_to_table(
        keyed_partition_map(joined, ["query_id"], first_k,
                            num_partitions=num_partitions)
    )
    # the sort field flows through with its ORIGINAL Arrow type (take,
    # not a python-int round-trip — a float/timestamp field must not be
    # silently truncated); rank is int32 like every sibling ranker
    if cand.num_rows == 0:
        ftype = (cand.schema.field(field).type
                 if field in cand.schema.names else pa.int64())
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int32()),
                "doc_id": pa.array([], pa.int64()),
                field: pa.array([], ftype),
            }
        )
    sel = first_k(cand)
    q = sel.column("query_id").to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "query_id": pa.array(q, pa.int64()),
            "rank": pa.array(group_ranks(q) + 1, pa.int32()),
            "doc_id": sel.column("doc_id"),
            field: sel.column(field),
        }
    )


def hydrate_results(
    results: ray.data.Dataset | pa.Table, index_dir: str
) -> pa.Table:
    """Join results to the docs table (SURVEY.md B20) — broadcast the tiny
    results side into a lookup against the docs parquet, never a shuffle.
    Returns a pyarrow Table (results are top-k-small by construction)."""
    import os

    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    from ..util import dataset_to_table

    res = dataset_to_table(results)
    docs = pads.dataset(os.path.join(index_dir, "docs"))
    wanted = pc.unique(res.column("doc_id"))
    hits = docs.to_table(
        columns=["doc_id", "repo", "path", "lang"],
        filter=pads.field("doc_id").isin(wanted),
    )
    return res.join(hits, keys="doc_id", join_type="left outer")


def snippets(
    results: pa.Table,
    texts: pa.Table,
    query_terms: dict[int, list[str]],
    *,
    before: int = 30,
    width: int = 60,
) -> pa.Table:
    """Search-result previews: for each (query_id, doc_id) hit, a
    ``width``-char window of the doc text starting ``before`` chars
    ahead of the EARLIEST occurrence of any of the query's terms in
    lower(text). Pinned, SQL-mirrorable spec (1-based positions, plain
    substring match): pos = min over terms of strpos(lower(text), term)
    (zero = absent), start = max(1, pos - before), snippet =
    substr(text, start, width). A BM25 hit always contains at least one
    query term as a token, hence as a substring. Result-set operator:
    O(hits) work on top-k-small input."""
    text_by_id = {
        int(i): (t or "")
        for i, t in zip(
            texts.column("doc_id").to_pylist(), texts.column("text").to_pylist()
        )
    }
    qids = results.column("query_id").to_pylist()
    docs = results.column("doc_id").to_pylist()
    out: list[str | None] = []
    for qid, d in zip(qids, docs):
        text = text_by_id.get(int(d), "")
        low = text.lower()
        pos = min(
            (p for t in query_terms.get(int(qid), ()) if (p := low.find(t)) >= 0),
            default=-1,
        )
        if pos < 0:
            out.append(None)
            continue
        start = max(0, pos - before)
        out.append(text[start: start + width])
    return results.append_column("snippet", pa.array(out, pa.string()))


def facet_counts(
    results: ray.data.Dataset | pa.Table,
    index_dir: str,
    facets: tuple[str, ...] = ("lang", "repo"),
) -> pa.Table:
    """Per-query facet counts over a top-k RESULT SET (the search-UI
    sidebar: 'of your 50 hits, 31 are python, 12 are repo X'). Hydrates
    the results against the docs table (broadcast-small lookup, same as
    hydrate_results), then counts per (query_id, facet column, value).
    Results are top-k-small by construction, so the counting itself is a
    single Arrow group_by — this is a RESULT-SET operator, not a corpus
    aggregate (corpus-wide facets are pipelines/analyze.py's job)."""
    hyd = hydrate_results(results, index_dir)
    parts = []
    for col in facets:
        g = (
            hyd.select(["query_id", col])
            .group_by(["query_id", col], use_threads=False)
            .aggregate([([], "count_all")])
        )
        parts.append(
            pa.table(
                {
                    "query_id": g.column("query_id").cast(pa.int64()),
                    "facet": pa.array([col] * g.num_rows, pa.string()),
                    "value": g.column(col).cast(pa.string()),
                    "n": g.column("count_all").cast(pa.int64()),
                }
            )
        )
    return pa.concat_tables(parts)


def fielded_topk(
    field_indexes: dict[str, str],
    field_queries: dict[str, str],
    weights: dict[str, float],
    k: int,
) -> list[tuple[int, float]]:
    """Multi-field weighted retrieval (donkey's A6 shape: an object's
    several features each score independently, the object aggregates
    them). Each FIELD is its own index over the same doc_id space —
    per-field df/avgdl stay honest to that field's statistics — and the
    document score is ``sum_f weights[f] * BM25_f(doc, field_queries[f])``
    over the UNTRUNCATED per-field hit sets (a doc absent from one
    field's hits may still win on the weighted sum, so truncation only
    happens after combination). Tie-break (score desc, doc_id asc) as
    everywhere.

    Per-field work is `score_all` — posting decode + vectorized passes,
    no per-hit Python objects; the combine is one np.unique +
    np.add.at over the concatenated (doc, weighted score) arrays, sized
    by hits, never by corpus."""
    import numpy as np

    from ..functions import scoring

    parts: list[tuple] = []
    for field, index_dir in sorted(field_indexes.items()):
        text = (field_queries.get(field) or "").strip()
        if not text:
            continue
        res = QueryEngine(index_dir).score_all(text)
        if res is None:
            continue
        docs, scores = res
        parts.append((docs, scores * float(weights.get(field, 1.0))))
    if not parts or k <= 0:
        return []
    docs = np.concatenate([p[0] for p in parts])
    sc = np.concatenate([p[1] for p in parts])
    u, inv = np.unique(docs, return_inverse=True)
    tot = np.zeros(u.size, dtype=np.float64)
    np.add.at(tot, inv, sc)
    order = scoring.topk_order(u, tot, k)
    return [(int(u[i]), float(tot[i])) for i in order]


def per_lang_topk(
    lang_indexes: "dict[str, str]",
    text: str,
    k: int,
    *,
    engines: "dict[str, QueryEngine] | None" = None,
) -> "list[tuple[str, int, float]]":
    """Language-partitioned BM25 (SURVEY §1.2 ``stats`` "+ per-lang"):
    the corpus is split into ONE INDEX PER LANG, so every hit is scored
    against its own language's collection statistics — per-lang n_docs
    and avgdl normalize dl, and df is the term's frequency WITHIN that
    language (a term common in English but rare in German scores high
    on German docs). Results merge globally (score desc, doc_id asc),
    cut to k — the global top-k is a subset of the union of per-lang
    top-k's, so fetching k per lang is exact.

    Scale shape: each per-lang index is an independent distributed
    artifact (its build partitions by term as usual); query-time work
    is n_langs bounded engine probes, no cross-lang exchange. Callers
    serving many queries pass ``engines`` to reuse warm QueryEngines."""
    hits: list[tuple[float, int, str]] = []
    for lg, d in sorted(lang_indexes.items()):
        eng = (engines or {}).get(lg) or QueryEngine(d)
        for doc, s in eng.topk(text, k):
            hits.append((float(s), int(doc), lg))
    hits.sort(key=lambda t: (-t[0], t[1]))
    return [(lg, doc, s) for s, doc, lg in hits[:k]]


def rrf_fuse(
    rankings: "list[pa.Table]",
    *,
    doc_col: str = "doc_id",
    k_rrf: int = 60,
    k: int = 10,
) -> pa.Table:
    """Reciprocal Rank Fusion of ranked candidate tables (hybrid search).

    Each input table has (query_id, rank, <doc_col>) and is already
    truncated to its ranker's candidate depth; the fused score is
    ``sum_i 1/(k_rrf + rank_i)`` over the rankers that listed the doc
    (missing entries contribute 0 — standard RRF over the union).
    Final order (rrf desc, doc asc), cut to ``k`` per query.

    Driver-side by design: inputs are O(queries x depth) rows — the
    expensive work (BM25 top-C, cosine top-C) already ran distributed;
    fusing two 50-row lists per query is not a Ray stage. Contribution
    order is the table order, matching the SQL mirror's b-then-c sum."""
    acc: dict[tuple[int, int], float] = {}
    for t in rankings:
        for qid, did, r in zip(
            t.column("query_id").to_pylist(),
            t.column(doc_col).to_pylist(),
            t.column("rank").to_pylist(),
        ):
            acc[(int(qid), int(did))] = acc.get((int(qid), int(did)), 0.0) \
                + 1.0 / (k_rrf + int(r))
    by_q: dict[int, list] = {}
    for (qid, did), s in acc.items():
        by_q.setdefault(qid, []).append((s, did))
    out = {"query_id": [], "rank": [], "doc_id": [], "rrf": []}
    for qid in sorted(by_q):
        ranked = sorted(by_q[qid], key=lambda x: (-x[0], x[1]))[:k]
        for i, (s, did) in enumerate(ranked, 1):
            out["query_id"].append(qid)
            out["rank"].append(i)
            out["doc_id"].append(did)
            out["rrf"].append(s)
    return pa.table(
        {
            "query_id": pa.array(out["query_id"], pa.int64()),
            "rank": pa.array(out["rank"], pa.int32()),
            "doc_id": pa.array(out["doc_id"], pa.int64()),
            "rrf": pa.array(out["rrf"], pa.float64()),
        }
    )


def tiered_topk(
    pruned_dir: str,
    full_dir: str,
    queries: pa.Table,
    *,
    k: int = 10,
) -> pa.Table:
    """Tiered retrieval — the standard way a statically PRUNED index is
    actually served (Carmel et al.'s deployment shape): answer from the
    small tier-1 (pruned) index, and only when it cannot fill the top-k
    (fewer than ``k`` matching docs) fall back to the full tier-2 index
    for that query. Output rows carry ``tier`` (1 or 2) so callers can
    measure the fallback rate. Pinned rule: fallback iff tier-1 returns
    < k hits; tier-1 answers are returned as-is (their scores use the
    pruned df — self-consistent with pruned_topk).

    Scale shape: both tiers are ordinary serving-path engines; the
    fallback decision is per-query on the tier-1 result size, so tier-2
    (the expensive index) is touched only for the fallback fraction."""
    from ..stages.score import QueryEngine

    e1 = QueryEngine(pruned_dir)
    e2 = QueryEngine(full_dir)
    out = {"query_id": [], "rank": [], "doc_id": [], "score": [],
           "tier": []}
    for row in queries.to_pylist():
        kk = int(row.get("k", k) or k)
        hits = e1.topk(row["text"], kk)
        tier = 1
        if len(hits) < kk:
            hits = e2.topk(row["text"], kk)
            tier = 2
        for r, (d, s) in enumerate(hits, start=1):
            out["query_id"].append(int(row["query_id"]))
            out["rank"].append(r)
            out["doc_id"].append(d)
            out["score"].append(s)
            out["tier"].append(tier)
    return pa.table({
        "query_id": pa.array(out["query_id"], pa.int64()),
        "rank": pa.array(out["rank"], pa.int32()),
        "doc_id": pa.array(out["doc_id"], pa.int64()),
        "score": pa.array(out["score"], pa.float64()),
        "tier": pa.array(out["tier"], pa.int32()),
    })


def passage_topk(
    index_dir: str,
    queries: pa.Table,
    *,
    k: int = 10,
    shift: int = 100_000,
) -> pa.Table:
    """Best-passage-per-document retrieval (long-doc search: rank docs
    by their best-matching PASSAGE, the MaxP strategy of Dai & Callan
    2019): queries run against a PASSAGE index whose doc ids encode
    ``parent_doc_id * shift + chunk_id``; per query the UNTRUNCATED
    passage hit set collapses to one best chunk per parent (max score,
    ties -> smaller chunk), parents rank by (best score desc, parent
    asc). Output: (query_id, rank, doc_id, chunk_id, score).

    Scale shape: passage scoring is the ordinary serving path (the
    passage corpus is just a corpus); the collapse is one lexsort +
    unique over the HIT set per query, never corpus-sized."""
    import numpy as np

    from ..stages.score import QueryEngine

    eng = QueryEngine(index_dir)
    out = {"query_id": [], "rank": [], "doc_id": [], "chunk_id": [],
           "score": []}
    for row in queries.to_pylist():
        res = eng.score_all(row["text"])
        if res is None:
            continue
        cids, scores = res
        parents = cids // shift
        # score desc, then chunk id asc — first occurrence per parent
        # is its best passage with the pinned tie-break
        order = np.lexsort((cids, -scores))
        _, first = np.unique(parents[order], return_index=True)
        best = order[first]
        b_par, b_cid, b_sc = parents[best], cids[best], scores[best]
        top = np.lexsort((b_par, -b_sc))[:int(row.get("k", k) or k)]
        for r, j in enumerate(top, start=1):
            out["query_id"].append(int(row["query_id"]))
            out["rank"].append(r)
            out["doc_id"].append(int(b_par[j]))
            out["chunk_id"].append(int(b_cid[j] % shift))
            out["score"].append(float(b_sc[j]))
    return pa.table({
        "query_id": pa.array(out["query_id"], pa.int64()),
        "rank": pa.array(out["rank"], pa.int32()),
        "doc_id": pa.array(out["doc_id"], pa.int64()),
        "chunk_id": pa.array(out["chunk_id"], pa.int64()),
        "score": pa.array(out["score"], pa.float64()),
    })


def mmr_topk(
    index_dir: str,
    embeddings: str | pa.Table,
    queries: pa.Table,
    *,
    c: int = 50,
    k: int = 10,
    lam: float = 0.7,
    mode: str = "auto",
) -> pa.Table:
    """Maximal Marginal Relevance result diversification (Carbonell &
    Goldstein 1998): retrieve the BM25 top-``c`` candidates, hydrate
    their embeddings with a doc_id-pushdown read (embeddings.vec_id is
    pinned as the embedding of doc_id, as in hybrid_topk), then greedily
    select ``k``:

      pick_1 = argmax rel(d)                      (max-sim term empty)
      pick_t = argmax  lam * rel(d)
                     - (1 - lam) * max_{s in S} cos(d, s)

    over candidates not yet selected, ties -> smallest doc_id. rel is
    the raw BM25 score; cos is float64 over normalized vectors. A
    candidate with NO embedding row is pinned orthogonal to everything
    (cos 0 both directions): it takes no diversity penalty and imposes
    none, but still competes on relevance. Output:
    (query_id, rank, doc_id, mmr) where mmr is pick_t's objective value
    (rank 1 reports lam * rel to match the shared objective form). SQL
    mirror: the selection unrolled k rounds of argmax CTEs
    (mmr_oracle_sql below).

    Scale shape: candidate generation is the ordinary serving path; MMR
    itself is O(queries * c * k) driver work on c-row slices — the
    corpus is touched only through the index and one pushdown read."""
    import numpy as np

    from ..util import dataset_to_table

    res = dataset_to_table(
        score_queries(index_dir, queries.set_column(
            queries.column_names.index("k"), "k",
            pa.array([c] * queries.num_rows, pa.int32()),
        ), mode=mode)
    )
    cand_ids = res.column("doc_id")
    if isinstance(embeddings, str):
        import pyarrow.compute as pc
        import pyarrow.dataset as pads

        embeddings = pads.dataset(embeddings).to_table(
            columns=["vec_id", "embedding"],
            filter=pads.field("vec_id").isin(pc.unique(cand_ids)),
        )
    emb_by_id = {
        int(v): np.asarray(e, dtype=np.float64)
        for v, e in zip(embeddings.column("vec_id").to_pylist(),
                        embeddings.column("embedding").to_pylist())
    }
    out = {"query_id": [], "rank": [], "doc_id": [], "mmr": []}
    res_q = res.column("query_id").to_numpy(zero_copy_only=False)
    res_d = res.column("doc_id").to_numpy(zero_copy_only=False)
    res_s = res.column("score").to_numpy(zero_copy_only=False)
    for qrow in queries.to_pylist():
        qid = int(qrow["query_id"])
        sel = res_q == qid
        ids, rel = res_d[sel], res_s[sel]
        if ids.size == 0:
            continue
        # candidates without an embedding are pinned ORTHOGONAL to
        # everything (sim 0 both directions) — they take no diversity
        # penalty and impose none; they can still win on relevance
        have = np.array([int(d) in emb_by_id for d in ids])
        sims = np.zeros((ids.size, ids.size), dtype=np.float64)
        if have.any():
            m = np.stack([emb_by_id[int(d)] for d in ids[have]])
            m = m / np.linalg.norm(m, axis=1, keepdims=True)
            hi = np.flatnonzero(have)
            sims[np.ix_(hi, hi)] = m @ m.T
        chosen: list[int] = []
        avail = np.ones(ids.size, dtype=bool)
        for rank in range(1, min(k, ids.size) + 1):
            if chosen:
                mx = sims[:, chosen].max(axis=1)
                obj = lam * rel - (1.0 - lam) * mx
            else:
                obj = lam * rel
            obj_a = np.where(avail, obj, -np.inf)
            best = np.lexsort((ids, -obj_a))[0]
            chosen.append(int(best))
            avail[best] = False
            out["query_id"].append(qid)
            out["rank"].append(rank)
            out["doc_id"].append(int(ids[best]))
            out["mmr"].append(float(obj[best]))
    return pa.table({
        "query_id": pa.array(out["query_id"], pa.int64()),
        "rank": pa.array(out["rank"], pa.int32()),
        "doc_id": pa.array(out["doc_id"], pa.int64()),
        "mmr": pa.array(out["mmr"], pa.float64()),
    })


def mmr_oracle_sql(
    *,
    queries_values: str,
    toks_expr: str,
    c: int = 50,
    k: int = 10,
    lam: float = 0.7,
) -> str:
    """DuckDB mirror of mmr_topk: the standard BM25 candidate CTE, a
    candidate-pair cosine CTE, then the greedy selection unrolled as k
    argmax rounds (sel1..selk); ties doc_id asc at every argmax.

    ``queries_values`` is the SQL VALUES list for q(query_id, text) and
    ``toks_expr`` the tokenizer expression over documents.text."""
    rounds = []
    for t in range(2, k + 1):
        prev = " UNION ALL ".join(
            f"SELECT query_id, doc_id, {r} AS rank, mmr FROM sel{r}"
            for r in range(1, t)
        )
        rounds.append(f""",
prev{t} AS MATERIALIZED ({prev}),
obj{t} AS (
  SELECT c.query_id, c.doc_id,
         {lam} * c.rel - (1 - {lam}) * max(coalesce(s.cos, 0)) AS mmr
  FROM cand c
  JOIN prev{t} p ON p.query_id = c.query_id
  LEFT JOIN sims s ON s.query_id = c.query_id
             AND s.doc_a = c.doc_id AND s.doc_b = p.doc_id
  WHERE c.doc_id NOT IN (SELECT doc_id FROM prev{t} x
                         WHERE x.query_id = c.query_id)
  GROUP BY c.query_id, c.doc_id, c.rel),
sel{t} AS MATERIALIZED (
  SELECT query_id, doc_id, mmr FROM (
    SELECT query_id, doc_id, mmr,
           row_number() OVER (PARTITION BY query_id
                              ORDER BY mmr DESC, doc_id ASC) AS rn
    FROM obj{t}) WHERE rn = 1)""")
    final = " UNION ALL ".join(
        f"SELECT query_id, {r} AS rank, doc_id, mmr FROM sel{r}"
        for r in range(1, k + 1)
    )
    return f"""
WITH tok AS MATERIALIZED (SELECT doc_id, {toks_expr} AS toks FROM documents),
dl AS (SELECT doc_id, len(toks) AS dl FROM tok),
stats AS (SELECT count(*)::DOUBLE AS n_docs, avg(dl)::DOUBLE AS avgdl FROM dl),
q(query_id, text) AS (VALUES {queries_values}),
qt AS (SELECT DISTINCT query_id,
              unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS term FROM q),
terms AS (SELECT doc_id, unnest(toks) AS term FROM tok),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM terms GROUP BY 1,2),
df AS (SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY 1),
scores AS (
  SELECT qt.query_id, tf.doc_id,
    sum( ln((s.n_docs - df.df + 0.5)/(df.df + 0.5) + 1) *
         tf.tf*(1.2+1)/(tf.tf + 1.2*(1 - 0.75 + 0.75*dl.dl/s.avgdl)) ) AS score
  FROM qt JOIN tf ON tf.term = qt.term
  JOIN df ON df.term = qt.term
  JOIN dl ON dl.doc_id = tf.doc_id CROSS JOIN stats s
  GROUP BY 1,2),
cand AS MATERIALIZED (SELECT query_id, doc_id, score AS rel FROM (
           SELECT query_id, doc_id, score,
                  row_number() OVER (PARTITION BY query_id
                                     ORDER BY score DESC, doc_id ASC) AS rn
           FROM scores) WHERE rn <= {c}),
e AS MATERIALIZED (SELECT vec_id, embedding::DOUBLE[] AS v FROM embeddings),
sims AS MATERIALIZED (SELECT a.query_id, a.doc_id AS doc_a, b.doc_id AS doc_b,
                list_cosine_similarity(ea.v, eb.v) AS cos
         FROM cand a JOIN cand b ON b.query_id = a.query_id
         JOIN e ea ON ea.vec_id = a.doc_id
         JOIN e eb ON eb.vec_id = b.doc_id),
sel1 AS MATERIALIZED (SELECT query_id, doc_id, {lam} * rel AS mmr FROM (
           SELECT query_id, doc_id, rel,
                  row_number() OVER (PARTITION BY query_id
                                     ORDER BY {lam} * rel DESC, doc_id ASC) AS rn
           FROM cand) WHERE rn = 1){"".join(rounds)}
SELECT query_id::BIGINT AS query_id, rank::INT AS rank, doc_id,
       round(mmr, 6) AS mmr
FROM ({final}) ORDER BY query_id, rank"""


def search_eval(
    index_dir: str,
    queries: pa.Table,
    *,
    k: int = 10,
) -> pa.Table:
    """Retrieval-quality metrics of the BM25 run against a derived
    relevance set — the engine's own evaluation harness (every serving
    stack needs one; qrels here are synthesized, binary, and pinned):
    rel(q) = docs containing EVERY distinct query term (the conjunctive
    match set). Per query over the top-``k`` run:

      p_at_k = |run ∩ rel| / k
      mrr    = 1 / rank of the first relevant hit (0 if none in top-k)
      ndcg   = sum_{i in run, rel} 1/log2(i+1)
               / sum_{i=1..min(|rel|,k)} 1/log2(i+1)     (0 if |rel|=0)

    All float64, emitted rounded by the caller. SQL mirror: conjunctive
    HAVING-count rel CTE + the standard ranked scorer + log2 window
    sums."""
    import math

    from ..stages.score import QueryEngine

    eng = QueryEngine(index_dir)
    out = {"query_id": [], "n_rel": [], "p_at_k": [], "mrr": [],
           "ndcg": []}
    for row in queries.to_pylist():
        qid = int(row["query_id"])
        run = [d for d, _ in eng.topk(row["text"], k)]
        rel = {d for d, _ in eng.and_topk(row["text"], 1 << 62)}
        inter = [d for d in run if d in rel]
        first = next((i for i, d in enumerate(run, start=1) if d in rel),
                     None)
        dcg = sum(1.0 / math.log2(i + 1)
                  for i, d in enumerate(run, start=1) if d in rel)
        idcg = sum(1.0 / math.log2(i + 1)
                   for i in range(1, min(len(rel), k) + 1))
        out["query_id"].append(qid)
        out["n_rel"].append(len(rel))
        out["p_at_k"].append(len(inter) / k)
        out["mrr"].append(1.0 / first if first else 0.0)
        out["ndcg"].append(dcg / idcg if idcg > 0 else 0.0)
    return pa.table({
        "query_id": pa.array(out["query_id"], pa.int64()),
        "n_rel": pa.array(out["n_rel"], pa.int64()),
        "p_at_k": pa.array(out["p_at_k"], pa.float64()),
        "mrr": pa.array(out["mrr"], pa.float64()),
        "ndcg": pa.array(out["ndcg"], pa.float64()),
    })


def bm25f_topk(
    field_indexes: dict[str, str],
    weights: dict[str, float],
    text: str,
    k: int,
) -> list[tuple[int, float]]:
    """BM25F (Robertson & Zaragoza 2009, 'simple BM25F'): ONE query over
    several fields of the same doc_id space. Per-field term frequencies
    are length-normalized and field-weighted FIRST, then summed into a
    single pseudo-tf that saturates ONCE:

      tfw(t,d)  = sum_f w_f * tf_f / (1 - b + b * dl_f / avgdl_f)
      score(d)  = sum_t idf_union(t) * tfw * (k1+1) / (tfw + k1)

    idf_union uses df = |docs containing t in ANY field| (union of the
    fields' posting doc sets) and N = max n_docs across the field
    indexes. Contrast fielded_topk (weighted sum of per-field BM25
    scores): BM25F blends BEFORE saturation, so a term present in many
    fields cannot multiply-count past the k1 ceiling — the principled
    multi-field scorer. Fields are processed in sorted name order and
    must share a query_lang (asserted). Ties: score desc, doc_id asc.

    Scale shape: per-term work is O(union postings) vectorized passes
    over the fields' decoded postings — same cost class as score_all;
    the combine is one np.unique + add.at sized by hits, never corpus."""
    import numpy as np

    from ..functions import scoring

    engines = {f: QueryEngine(d) for f, d in sorted(field_indexes.items())}
    langs = {e.meta.get("query_lang") for e in engines.values()}
    if len(langs) > 1:
        raise ValueError(f"field indexes disagree on query_lang: {langs}")
    first = next(iter(engines.values()))
    terms = sorted(set(first._tok.tokenize(text)))
    if not terms or k <= 0:
        return []
    n_docs = max(e.n_docs for e in engines.values())
    parts_docs: list[np.ndarray] = []
    parts_sc: list[np.ndarray] = []
    for t in terms:
        # dict keeps sorted insertion order
        fps = [(f, e, p) for f, e in engines.items()
               if (p := e.postings(t)) is not None]
        if not fps:
            continue
        union = fps[0][2].docs
        for _, _, p in fps[1:]:
            union = np.union1d(union, p.docs)
        tfw = np.zeros(union.size, dtype=np.float64)
        for f, e, p in fps:
            pos = np.searchsorted(union, p.docs)
            w = float(weights.get(f, 1.0))
            tfw[pos] += (w * p.tfs) / (
                1.0 - scoring.B + scoring.B * p.dls / e.avgdl
            )
        idf = float(scoring.idf(union.size, n_docs))
        parts_docs.append(union)
        parts_sc.append(
            idf * tfw * (scoring.K1 + 1.0) / (tfw + scoring.K1))
    if not parts_docs:
        return []
    docs = np.concatenate(parts_docs)
    sc = np.concatenate(parts_sc)
    u, inv = np.unique(docs, return_inverse=True)
    tot = np.zeros(u.size, dtype=np.float64)
    np.add.at(tot, inv, sc)
    order = scoring.topk_order(u, tot, k)
    return [(int(u[i]), float(tot[i])) for i in order]


def prf_topk(
    index_dir: str,
    queries: pa.Table,
    texts: pa.Table | str,
    *,
    feedback_docs: int = 10,
    expansion_terms: int = 3,
    expansion_weight: float = 0.5,
    k: int = 10,
    mode: str = "auto",
) -> pa.Table:
    """Pseudo-relevance-feedback query expansion (Rocchio/RM-style
    two-pass retrieval): stage 1 retrieves top-``feedback_docs`` per
    query with plain BM25; the ``expansion_terms`` best NEW terms across
    those docs — integer-exact tf-idf, score = (summed feedback tf) x
    idf_x1e6 with the tfidf_keywords-pinned quantization
    ``floor(ln((N+1)/(df+1))*1e6 + 0.5)``, ties term asc — are appended
    to the query with boost ``expansion_weight``; stage 2 is one boosted
    disjunctive BM25 (original terms boost 1.0). Final ties: score desc,
    doc_id asc.

    Scale shape: expansion cost is O(queries x feedback_docs x doc
    length) BY CONSTRUCTION — feedback texts are hydrated with a doc_id
    pushdown read after the candidate set is known, df comes from the
    index's sharded dictionary, and the corpus is never re-read."""
    import math

    from ..stages.score import QueryEngine
    from ..util import dataset_to_table

    res = dataset_to_table(
        score_queries(index_dir, queries.set_column(
            queries.column_names.index("k"), "k",
            pa.array([feedback_docs] * queries.num_rows, pa.int32()),
        ), mode=mode)
    )
    eng = QueryEngine(index_dir)
    if isinstance(texts, str):
        import pyarrow.compute as pc
        import pyarrow.dataset as pads

        texts = pads.dataset(texts).to_table(
            columns=["doc_id", "text"],
            filter=pads.field("doc_id").isin(pc.unique(res.column("doc_id"))),
        )
    text_by_id = {
        int(i): (t or "")
        for i, t in zip(texts.column("doc_id").to_pylist(),
                        texts.column("text").to_pylist())
    }
    out_q, out_r, out_d, out_s = [], [], [], []
    res_q = res.column("query_id").to_numpy(zero_copy_only=False)
    res_d = res.column("doc_id").to_numpy(zero_copy_only=False)
    n = eng.n_docs
    for qrow in queries.to_pylist():
        qid = int(qrow["query_id"])
        orig = set(eng._tok.tokenize(qrow["text"]))
        ftf: dict[str, int] = {}
        for d in res_d[res_q == qid]:
            for t in eng._tok.tokenize(text_by_id.get(int(d), "")):
                ftf[t] = ftf.get(t, 0) + 1
        cand = []
        for t, tfs in ftf.items():
            if t in orig:
                continue
            idf_x1e6 = math.floor(
                math.log((n + 1.0) / (eng.term_df(t) + 1.0)) * 1e6 + 0.5)
            cand.append((-tfs * idf_x1e6, t))
        cand.sort()
        expansion = [t for _, t in cand[:expansion_terms]]
        text2 = qrow["text"] + " " + " ".join(expansion)
        boosts = {t: expansion_weight for t in expansion}
        for r, (d, s) in enumerate(eng.boosted_topk(text2, k, boosts),
                                   start=1):
            out_q.append(qid)
            out_r.append(r)
            out_d.append(d)
            out_s.append(s)
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "rank": pa.array(out_r, pa.int32()),
            "doc_id": pa.array(out_d, pa.int64()),
            "score": pa.array(out_s, pa.float64()),
        }
    )
