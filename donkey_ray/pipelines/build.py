"""Index build pipeline (SURVEY.md section 3.2.1).

read_parquet -> map_batches(extract_postings task pool) ->
groupby('part').map_groups(SegmentWriter) -> manifest + stats, with:
  - one corpus scan: the extract map also writes each batch's docs rows
    (the per-row sha256(content) invariant, doc_len), their footer
    stamped with the file's per-lang (n_docs, total_len),
  - deterministic-sample hot-term (df) detection + salted routing (B18),
  - per-partition lineage manifest; resume skips validated partitions (B5),
  - one writer, ``write_index``: segments, meta and ``_SUCCESS`` for the
    build, compaction (``incremental.merge_indexes``) and pruning
    (``prune.prune_index``) alike.

Everything streams: no materialize() of the exploded postings; the only
all-to-all exchange is the single groupby('part') shuffle whose key is the
(salted) term-hash partition. A path build runs two Ray Data jobs: the
hot-term sample and that scan; n_docs and the per-lang stats come from
the docs files' footers (``compute_lang_stats``), not from a third job.
Every layer works on Arrow dictionary codes of the term column, never on
one Python string per posting.

Donkey analogue [PK]: batch insert + index build + 'sync' checkpoint
(src/donkey.cpp / src/index-kgraph.cpp — file-level, SURVEY.md section 0).
"""

from __future__ import annotations

import functools
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import ray
import ray.data

from .. import schemas
from ..functions.hashing import (deterministic_sample_mask, doc_ids_for_batch,
                                partition_column)
from ..sources.corpus import read_block_count, read_corpus
from ..stages.encode import SegmentWriter
from ..stages.extract import (LANG_STATS_KEY, PostingsExtractor,
                              extract_postings, write_docs)
from ..state import manifest as mf

DEFAULT_PARTITIONS = 16

# Auto partition sizing (num_partitions=None): one partition per this
# many postings (~0.5 GB of encoded segment at ~16 B/posting) — small
# enough that a SegmentWriter group and its shuffle object fit a worker
# heap, large enough that per-partition overheads stay amortized.
TOKENS_PER_PARTITION = 32_000_000
MAX_AUTO_PARTITIONS = 1 << 18  # past this, segments grow instead (a
# shuffle with >262k partitions needs operational changes anyway)


def auto_partition_count(est_total_tokens: int) -> int:
    """Partition count from the hot-pass postings-volume estimate — a
    PURE function of the data (never of cluster size), so N- and
    4N-node builds of the same corpus choose the same partitioning and
    a resume on any cluster continues the same layout. est<=0 (hot
    detection disabled / empty sample) falls back to
    DEFAULT_PARTITIONS."""
    if est_total_tokens <= 0:
        return DEFAULT_PARTITIONS
    import math

    return max(1, min(MAX_AUTO_PARTITIONS,
                      math.ceil(est_total_tokens / TOKENS_PER_PARTITION)))


def _docs_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "docs")


def compute_lang_stats(out_dir: str) -> tuple[int, dict]:
    """(n_docs, per-lang {lang: {n_docs, total_len, avgdl}}) (SURVEY §1.2
    ``stats`` "+ per-lang") in one driver-side pass over the docs files'
    parquet footers — no Ray job: ``extract.write_docs`` stamps each
    file's per-lang (n_docs, total_len), and the footer's row count
    gives n_docs. The per-lang stats are {} when a file has no stamp
    (docs without ``doc_len``, e.g. merged from old indexes). An
    unreadable footer raises: a failed read must not bake {} into a good
    build's meta."""
    import glob
    import json

    import pyarrow.parquet as pq

    n_docs, agg, stamped = 0, {}, True
    for p in sorted(glob.glob(os.path.join(_docs_dir(out_dir), "*.parquet"))):
        md = pq.read_metadata(p)
        n_docs += md.num_rows
        raw = (md.metadata or {}).get(LANG_STATS_KEY)
        stamped = stamped and raw is not None
        for lang, (c, s) in json.loads(raw or "{}").items():
            cur = agg.setdefault(lang, [0, 0])
            cur[0] += c
            cur[1] += s
    if not stamped:
        return n_docs, {}
    return n_docs, {
        lang: {"n_docs": c, "total_len": s, "avgdl": (s / c) if c else 0.0}
        for lang, (c, s) in sorted(agg.items())}


def detect_hot_terms(
    ds: ray.data.Dataset,
    *,
    id_col: str | None,
    sample_mod: int,
    hot_df_ratio: float,
    lang_override: str | None = None,
) -> tuple[list[str], int, int]:
    """Deterministic ~1/sample_mod sample -> per-term df -> terms whose
    sampled df exceeds hot_df_ratio of the sample size (SURVEY.md B18).
    Returns (hot_terms, n_sample_docs, n_sample_tokens) — the token
    total feeds auto partition sizing (``num_partitions=None``).

    The sample is hash-of-doc_id, but the hot set also depends on the
    batching of ``ds``: each batch drops terms below its own cutoff
    before the driver sums, so more batches find fewer hot terms (one
    2000-doc corpus: 58 at 8 blocks, 62 at 1). Query results never
    depend on it: runs of a term merge at query time."""
    extractor = PostingsExtractor(1, id_col=id_col, emit_part=False,
                                  lang_override=lang_override)

    def sample_partial_df(batch: pa.Table) -> pa.Table:
        """Per-batch partial df over the deterministic sample, pre-filtered
        to candidate-hot terms so only a tiny table reaches the driver.

        A term qualifies in a batch if it appears in >= hot_df_ratio of the
        batch's sampled docs (and >= 2 of them). Genuinely hot terms appear
        at ~their global rate in every batch, so they always qualify; the
        filter only prunes the cold tail. The hot set is a routing
        heuristic — correctness never depends on it (runs are merged at
        query time)."""
        empty = pa.table({"term": pa.array([], pa.string()),
                          "df_part": pa.array([], pa.int64())})
        ids = doc_ids_for_batch(batch, id_col)
        mask = deterministic_sample_mask(ids, sample_mod)
        n_sampled = int(mask.sum())
        if n_sampled == 0:
            return empty
        out = extractor(batch.filter(pa.array(mask)))
        counts = (
            out.select(["term"])
            .group_by(["term"], use_threads=False)
            .aggregate([("term", "count")])
        )
        import pyarrow.compute as pc

        # sparse batches (tiny corpora / many blocks) would never reach a
        # cutoff of 2 in any single batch; fall back to 1 there and let the
        # driver-side total threshold do the filtering
        floor = 2 if n_sampled >= 8 else 1
        cutoff = max(floor, int(np.ceil(hot_df_ratio * n_sampled)))
        cand = pa.table(
            {
                "term": counts.column("term"),
                "df_part": counts.column("term_count").cast(pa.int64()),
            }
        ).filter(pc.greater_equal(counts.column("term_count"), cutoff))
        # sentinel rows carry this batch's sample size + token total
        # (sum of tf over sampled postings) to the driver
        n_tokens = int(pc.sum(out.column("tf")).as_py() or 0)
        return pa.concat_tables([
            cand,
            pa.table({"term": pa.array(["\x00__sampled__",
                                        "\x00__tokens__"], pa.string()),
                      "df_part": pa.array([n_sampled, n_tokens],
                                          pa.int64())}),
        ])

    partials = ds.map_batches(
        sample_partial_df, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()  # candidate-hot only: tiny
    totals: dict[str, int] = {}
    for r in partials:
        totals[r["term"]] = totals.get(r["term"], 0) + int(r["df_part"])
    n_sample_tokens = totals.pop("\x00__tokens__", 0)
    n_sample_docs = max(totals.pop("\x00__sampled__", 0), 1)
    thresh = max(2.0, hot_df_ratio * n_sample_docs)
    hot = sorted(t for t, c in totals.items() if c >= thresh)
    return hot, n_sample_docs, n_sample_tokens


def build_index(
    corpus: str | ray.data.Dataset,
    out_dir: str,
    *,
    num_partitions: int | None = DEFAULT_PARTITIONS,
    id_col: str | None = None,
    salt_bits: int = 4,
    sample_mod: int = 64,
    hot_df_ratio: float = 0.25,
    detect_hot: bool = True,
    batch_size: int = 512,
    query_lang: str | None = None,
    override_num_blocks: int | None = None,
    positions: bool = False,
    analyzer_lang: str | None = None,
) -> dict:
    """Build (or resume) an inverted index at ``out_dir``. Returns meta.

    ``num_partitions=None`` self-sizes from the hot-pass token-volume
    estimate (``auto_partition_count``): a 100 TB corpus picks
    thousands of partitions, a test corpus picks one — no fixed default
    to outgrow. The choice is persisted with the hot set, so resumes
    (on any cluster size) keep the original layout.

    Resume: an incomplete build (no ``_SUCCESS``) clears ``docs/`` and
    re-runs the one extract pass, which rewrites every docs file while
    ``drop_done`` discards the postings of partitions already written.

    Block sizing: each block pays fixed task and exchange costs in both
    Ray Data jobs, so a path corpus is read as ``read_block_count``
    blocks (on-disk bytes / MIN_BLOCK_BYTES, clamped to [1, 2x CPUs])
    unless ``override_num_blocks`` is given."""
    t_start = time.monotonic()
    if mf.is_complete(out_dir):
        return mf.load_meta(out_dir)
    if isinstance(corpus, str):
        ds = read_corpus(corpus, override_num_blocks=override_num_blocks)
        if id_col is None and "doc_id" in ds.schema().names:
            id_col = "doc_id"
    else:
        ds = corpus

    os.makedirs(out_dir, exist_ok=True)
    # docs files are named by their batch's doc ids, and a resume may
    # batch the corpus differently: start the docs artifact clean
    docs_dir = _docs_dir(out_dir)
    shutil.rmtree(docs_dir, ignore_errors=True)
    os.makedirs(docs_dir)
    hot_file = os.path.join(out_dir, "hot_terms.json")

    def _hot_sample_source():
        """Dataset + row-mod for the hot-term sample pass. For a path
        corpus with many fragments, sample at the FILE level first
        (sorted list, every j-th file — deterministic for the same
        input) and reduce the row mod to keep the overall ~1/sample_mod
        rate: the detect pass then READS 1/j of the bytes instead of
        scanning every file to discard 63/64 of its rows. The hot set is a
        routing heuristic — correctness never depends on it — so the
        slight sample-composition change is free."""
        if not isinstance(corpus, str):
            return ds, sample_mod, sample_mod
        files = sorted(pads.dataset(corpus).files)
        file_mod = min(8, sample_mod)
        if len(files) < 2 * file_mod:
            return ds, sample_mod, sample_mod
        subset = files[::file_mod]
        cols = ["lang", "content"]
        cols += ([id_col] if id_col else ["repo", "path", "commit"])
        sample_ds = ray.data.read_parquet(
            subset, columns=cols,
            override_num_blocks=read_block_count(subset))
        row_mod = max(1, sample_mod // file_mod)
        return sample_ds, row_mod, file_mod * row_mod

    def _run_hot_pass() -> tuple[list[str], int]:
        """Returns (hot_terms, estimated total corpus tokens). Both are
        persisted in hot_terms.json, so a RESUMED build reuses the
        recorded values — the auto partition count can never drift
        between the original run and its resume."""
        if os.path.exists(hot_file):
            import json

            with open(hot_file) as f:
                rec = json.load(f)
            return rec["hot_terms"], int(rec.get("est_total_tokens", 0))
        if detect_hot:
            sample_ds, row_mod, eff_mod = _hot_sample_source()
            hot_terms, n_sample, n_tokens = detect_hot_terms(
                sample_ds, id_col=id_col, sample_mod=row_mod,
                hot_df_ratio=hot_df_ratio, lang_override=analyzer_lang,
            )
            est_tokens = n_tokens * eff_mod
        else:
            hot_terms, n_sample, n_tokens, est_tokens = [], 0, 0, 0
        mf.atomic_write_json(
            hot_file,
            {"hot_terms": hot_terms, "n_sample_docs": n_sample,
             "n_sample_tokens": n_tokens, "est_total_tokens": est_tokens,
             "sample_mod": sample_mod, "hot_df_ratio": hot_df_ratio},
        )
        return hot_terms, est_tokens

    hot_terms, est_tokens = _run_hot_pass()
    if num_partitions is None:
        num_partitions = auto_partition_count(est_tokens)

    # ---- the one corpus scan: postings + docs rows, partition shuffle,
    # segment encode ----
    # task pool (not actors): extract_postings caches the configured
    # extractor per worker process, giving actor-like state amortization
    # without actor-pool startup latency
    postings = ds.map_batches(
        functools.partial(
            extract_postings,
            num_partitions=num_partitions,
            hot_ref=ray.put(hot_terms) if hot_terms else None,
            salt_bits=salt_bits,
            id_col=id_col,
            positions=positions,
            lang_override=analyzer_lang,
            docs_dir=docs_dir,
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )
    return write_index(
        postings, out_dir, num_partitions=num_partitions,
        hot_terms=hot_terms, salt_bits=salt_bits, query_lang=query_lang,
        analyzer_lang=analyzer_lang, id_col=id_col, positions=positions,
        done=mf.validated_done_parts(out_dir, num_partitions),
        t_start=t_start)


def route_postings(postings: ray.data.Dataset, num_partitions: int,
                   hot_terms=(), salt_bits: int = 4) -> ray.data.Dataset:
    """Add the ``part`` column (``functions.hashing.partition_column``)
    to decoded posting rows (term, doc_id, ...) — merge and prune route
    by the build's rule."""
    hot = frozenset(hot_terms)

    def add_part(batch: pa.Table) -> pa.Table:
        return batch.append_column("part", pa.array(partition_column(
            batch.column("term"),
            batch.column("doc_id").to_numpy(zero_copy_only=False),
            num_partitions, hot, salt_bits), pa.int32()))

    return postings.map_batches(add_part, batch_format="pyarrow",
                                zero_copy_batch=True)


def copy_docs(src_dirs: list[str], out_dir: str, row_filter=None) -> bool:
    """Rewrite ``out_dir/docs`` from the source indexes' docs tables,
    through ``row_filter`` (the postings' keep rule) when given, with
    the build's docs writer (``extract.write_docs``). Always cleared
    first, like the build's, so a crashed run's leftovers never survive.
    False when no source has a docs table."""
    import glob

    paths = [f for d in src_dirs
             for f in sorted(glob.glob(os.path.join(_docs_dir(d),
                                                    "*.parquet")))]
    docs_dir = _docs_dir(out_dir)
    shutil.rmtree(docs_dir, ignore_errors=True)
    if not paths:
        return False
    os.makedirs(docs_dir)

    def write_docs_rows(batch: pa.Table) -> pa.Table:
        write_docs(docs_dir, row_filter(batch) if row_filter else batch)
        return pa.table({"rows": pa.array([batch.num_rows], pa.int64())})

    ray.data.read_parquet(
        paths, override_num_blocks=read_block_count(paths)).map_batches(
        write_docs_rows, batch_format="pyarrow",
        zero_copy_batch=True).take_all()
    return True


def write_index(
    postings: ray.data.Dataset,
    out_dir: str,
    *,
    num_partitions: int,
    hot_terms: list[str],
    salt_bits: int,
    query_lang: str | None,
    analyzer_lang: str | None,
    id_col: str | None,
    positions: bool,
    writer=None,
    done: dict[int, dict] | None = None,
    stats: tuple[int, int] | None = None,
    t_start: float | None = None,
    **provenance,
) -> dict:
    """The one index writer (build, merge, prune): routed posting rows
    (with a ``part`` column) -> ``groupby("part").map_groups(writer)``
    segments -> meta -> ``_SUCCESS``. Returns the meta.

    ``writer`` defaults to ``SegmentWriter``; ``done`` holds the
    validated manifest entries of partitions a resumed build already
    wrote (their rows are dropped before the shuffle). The meta's
    ``(n_docs, total_len)`` are ``stats`` when given, else the ``docs/``
    footers' row count (``compute_lang_stats``) and the partitions'
    Σ sum_tf (Σ tf over a doc's postings is its dl). ``t_start``
    records ``build_wall_s``; ``provenance`` is the caller's own
    fields."""
    done = done or {}
    if done:
        done_arr = np.array(sorted(done), dtype=np.int32)

        def drop_done(batch: pa.Table) -> pa.Table:
            keep = ~np.isin(
                batch.column("part").to_numpy(zero_copy_only=False), done_arr
            )
            return batch.filter(pa.array(keep))

        postings = postings.map_batches(
            drop_done, batch_format="pyarrow", zero_copy_batch=True
        )
    os.makedirs(out_dir, exist_ok=True)
    manifest_rows = postings.groupby("part").map_groups(
        writer or SegmentWriter(out_dir), batch_format="pyarrow"
    )
    entries = {**done,
               **{int(r["part"]): r for r in manifest_rows.take_all()}}
    docs_rows, lang_stats = compute_lang_stats(out_dir)
    if stats is None:
        stats = (docs_rows, sum(e["sum_tf"] for e in entries.values()))
    n_docs, total_len = int(stats[0]), int(stats[1])
    meta = {
        "format_version": schemas.FORMAT_VERSION,
        "block_size": schemas.BLOCK_SIZE,
        "n_docs": n_docs,
        "total_len": total_len,
        "n_postings": int(sum(e["n_postings"] for e in entries.values())),
        "avgdl": (total_len / n_docs) if n_docs else 0.0,
        "lang_stats": lang_stats,
        "num_partitions": num_partitions,
        "parts_built": sorted(int(p) for p in entries),
        "parts_skipped_on_resume": sorted(done),
        "salt_bits": salt_bits,
        "hot_terms": list(hot_terms),
        "query_lang": query_lang or "simple",
        "analyzer_lang": analyzer_lang,
        "id_col": id_col,
        "positions": bool(positions),
        **provenance,
    }
    if t_start is not None:
        meta["build_wall_s"] = round(time.monotonic() - t_start, 3)
    mf.write_meta(out_dir, meta)
    mf.mark_complete(out_dir)
    return meta
