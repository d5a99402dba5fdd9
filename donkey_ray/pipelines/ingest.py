"""End-to-end delta ingest (VERDICT r3 item 7): the production
composition of the pieces that are individually green — the three
PERSISTED near-dup probes (n-gram PPJoin / MinHash LSH / SimHash
pigeonhole), the incremental index build, and federated serving — into
one resumable per-shard flow (donkey's insert→sync lifecycle at batch
granularity).

A shard arrives; it is deduplicated against EVERY previously accepted
shard via their persisted artifacts (corpus text is never re-read or
re-signed — each probe streams band/prefix/set state from parquet),
then against itself (intra-shard pairs, first-doc-wins: the higher
doc_id of each near-dup pair is dropped — the same greedy policy as
exact_dedup's keep-first), and only the SURVIVORS are admitted: their
dedup artifacts and index segment are built and the shard joins the
chain. Queries run federated over the chain's indexes (exact BM25 over
the union corpus — pipelines/incremental.py semantics).

State layout (everything atomic-marker gated, so a crash anywhere
resumes exactly where it stopped):

    state_dir/
      manifest.json            {"shards": [sid, ...], "spec": {...}}
      shards/<sid>/
        survivors/             parquet snapshot of the accepted rows
        _SURVIVORS_DONE
        ngram/ minhash/ simhash/   dedup artifacts over the survivors
        index/                 the shard's index (build_index, resumable)
        meta.json  _SHARD_DONE

Scale shape: per-shard work is bounded by the SHARD (probes stream the
artifact side); the chain grows by one artifact set per shard, and probe
cost per new shard is O(shard x chain length) keyed exchanges — the
compaction story when the chain gets long is merge_indexes + a fresh
single dedup artifact, both existing ops.

DETERMINISM: the shard input feeds several consumers (id derivation,
3 x chain probes, intra-shard pairs, the anti-join). Pass a parquet
path (the CLI does) or any deterministic plan; the survivors snapshot
then pins everything downstream.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import ray.data

from ..state import manifest as mf

DEFAULT_SPEC = {
    "ngram_n": 1, "ngram_threshold": 0.5,
    "minhash_n": 3, "minhash_threshold": 0.5,
    "simhash_max_hamming": 3,
    "num_partitions": 4, "query_lang": "simple",
    # column bindings are part of the pinned spec too: artifacts built
    # over one text column must never be probed with another
    "text_col": "content", "id_col": "doc_id",
    # fold the chain automatically once it reaches this many shards
    # (VERDICT r4 item 4 — probe cost per new shard is O(chain length),
    # so an unfolded chain grows that cost forever); None = manual
    # compact_chain only. Pinned like every other spec key: the policy
    # is a property of the chain, not of whichever client ingests next.
    "auto_compact_shards": None,
}

METHODS = ("ngram", "minhash", "simhash")


def _manifest_path(state_dir: str) -> str:
    return os.path.join(state_dir, "manifest.json")


def load_state(state_dir: str) -> dict:
    p = _manifest_path(state_dir)
    if not os.path.exists(p):
        return {"shards": [], "spec": dict(DEFAULT_SPEC)}
    with open(p) as f:
        return json.load(f)


def _shard_dir(state_dir: str, sid: str) -> str:
    return os.path.join(state_dir, "shards", sid)


def _with_doc_ids(ds: ray.data.Dataset, id_col: str) -> ray.data.Dataset:
    """Ensure the shard carries ``id_col`` (derive from (repo, path,
    commit) exactly like the index build when absent)."""
    if id_col in ds.schema().names:
        return ds

    def add_ids(batch: pa.Table) -> pa.Table:
        from ..functions.hashing import doc_ids_for_batch

        ids = doc_ids_for_batch(batch, None)
        return batch.append_column(id_col, pa.array(ids, pa.int64()))

    return ds.map_batches(add_ids, batch_format="pyarrow",
                          zero_copy_batch=True)


def ingest_delta(
    state_dir: str,
    shard: "ray.data.Dataset | str",
    *,
    shard_id: str,
    text_col: str = "content",
    id_col: str = "doc_id",
    spec: dict | None = None,
) -> dict:
    """Ingest one shard into the chain; idempotent per ``shard_id`` (a
    fully ingested shard returns its recorded meta; a crashed one
    resumes from its markers). ``spec`` is pinned into the manifest by
    the FIRST shard and reused for every later one — mixed dedup specs
    across a chain would silently change near-dup semantics, so a later
    explicit ``spec`` that disagrees raises."""
    from .build import build_index
    from .dedup import (build_dedup_index, build_minhash_index,
                        build_simhash_index, minhash_neardup_delta,
                        minhash_neardup_pairs, ngram_jaccard_delta,
                        ngram_jaccard_pairs, simhash_neardup_delta,
                        simhash_neardup_pairs)
    from .joins import hash_join

    # The spec is pinned into the manifest BEFORE any shard work (not
    # after the first shard completes): a crashed first shard resumed
    # with a different explicit spec would otherwise skip the
    # disagreement check and admit artifacts computed under the old
    # spec — exactly the mixed-semantics condition being guarded.
    # The comparison is DEFAULT-MERGED on both sides (a partial spec
    # that merges to the pinned one is the SAME request — resuming a
    # crashed first shard with the identical partial dict must not
    # spuriously 'disagree'), and the column bindings ride along.
    man_exists = os.path.exists(_manifest_path(state_dir))
    state = load_state(state_dir)
    requested = None
    if (spec is not None or text_col != DEFAULT_SPEC["text_col"]
            or id_col != DEFAULT_SPEC["id_col"]):
        requested = {**DEFAULT_SPEC, **(spec or {}),
                     "text_col": text_col, "id_col": id_col}
    if man_exists:
        pinned = {**DEFAULT_SPEC, **state["spec"]}  # old manifests may
        # predate the column-binding keys; merging normalizes them
        if requested is not None and requested != pinned:
            raise ValueError(
                f"ingest spec {requested} disagrees with the chain's "
                f"pinned spec {pinned}")
        spec = pinned
    else:
        spec = requested or dict(DEFAULT_SPEC)
        state["spec"] = spec
        os.makedirs(state_dir, exist_ok=True)
        mf.atomic_write_json(_manifest_path(state_dir), state)
    text_col = spec["text_col"]
    id_col = spec["id_col"]

    sdir = _shard_dir(state_dir, shard_id)
    meta_path = os.path.join(sdir, "meta.json")
    done_marker = os.path.join(sdir, "_SHARD_DONE")
    if os.path.exists(done_marker):
        # NO manifest "repair" here: the manifest is written before the
        # done marker, so a completed shard missing from it is not an
        # orphaned crash — it is a shard that compact_chain legitimately
        # folded away (re-appending it would double-count its docs in
        # the federation — review finding). Just return the record —
        # after the auto-compact check: a fold that crashed between this
        # shard's done marker and the manifest swap must be resumable by
        # ANY later call, including an idempotent replay of this one.
        with open(meta_path) as f:
            meta = json.load(f)
        folded = _maybe_auto_compact(state_dir, spec)
        return {**meta, "auto_compacted_to": folded} if folded else meta
    os.makedirs(sdir, exist_ok=True)

    if isinstance(shard, str):
        shard = ray.data.read_parquet(shard)
    shard = _with_doc_ids(shard, id_col)

    # ---- 1. survivors: cross-chain + intra-shard near-dup drop ----
    surv_dir = os.path.join(sdir, "survivors")
    surv_marker = os.path.join(sdir, "_SURVIVORS_DONE")
    if not os.path.exists(surv_marker):
        dup_parts: list[ray.data.Dataset] = []

        def b_ids(pairs: ray.data.Dataset) -> ray.data.Dataset:
            def proj(batch: pa.Table) -> pa.Table:
                return pa.table(
                    {"dup_id": batch.column("doc_b").cast(pa.int64())})

            return pairs.map_batches(proj, batch_format="pyarrow",
                                     zero_copy_batch=True)

        for prev in state["shards"]:
            pdir = _shard_dir(state_dir, prev)
            dup_parts.append(b_ids(ngram_jaccard_delta(
                os.path.join(pdir, "ngram"), shard,
                text_col=text_col, id_col=id_col)))
            dup_parts.append(b_ids(minhash_neardup_delta(
                os.path.join(pdir, "minhash"), shard,
                text_col=text_col, id_col=id_col)))
            dup_parts.append(b_ids(simhash_neardup_delta(
                os.path.join(pdir, "simhash"), shard,
                text_col=text_col, id_col=id_col)))
        # intra-shard: pairs emit doc_a < doc_b; dropping every doc_b
        # keeps the lowest doc_id of each near-dup group (greedy
        # first-wins, exact_dedup's policy)
        dup_parts.append(b_ids(ngram_jaccard_pairs(
            shard, text_col=text_col, id_col=id_col,
            n=spec["ngram_n"], threshold=spec["ngram_threshold"])))
        dup_parts.append(b_ids(minhash_neardup_pairs(
            shard, text_col=text_col, id_col=id_col,
            n=spec["minhash_n"], threshold=spec["minhash_threshold"])))
        dup_parts.append(b_ids(simhash_neardup_pairs(
            shard, text_col=text_col, id_col=id_col,
            max_hamming=spec["simhash_max_hamming"])))

        dups = dup_parts[0]
        for p in dup_parts[1:]:
            dups = dups.union(p)
        # dup ids are a small fraction of the shard; pin them so the
        # counts below and the anti-join share one snapshot
        dups = dups.materialize()
        n_dups = dups.count()
        if n_dups == 0:
            # an all-empty union carries no schema; the anti-join is
            # also pure overhead with nothing to subtract
            survivors = shard
        else:
            survivors = hash_join(shard, dups, left_on=id_col,
                                  right_on="dup_id", how="anti")
        import glob as _glob
        import shutil

        shutil.rmtree(surv_dir, ignore_errors=True)  # crashed partials
        survivors.write_parquet(surv_dir)
        if not _glob.glob(os.path.join(surv_dir, "*.parquet")):
            # an ALL-DUPLICATE shard has zero survivors and Ray writes
            # no files for an empty dataset; the snapshot must still
            # exist (downstream reads + future compaction)
            import pyarrow.parquet as _pq

            os.makedirs(surv_dir, exist_ok=True)
            _pq.write_table(
                shard.schema().base_schema.empty_table(),
                os.path.join(surv_dir, "empty.parquet"))
        # the marker carries the drop count (distinct dup ids resolve
        # in the anti-join, so this counts matched PROBE ROWS)
        mf.atomic_write_json(surv_marker, {"n_dup_rows": int(n_dups)})
    # read the PINNED snapshot for everything downstream
    surv_ds = ray.data.read_parquet(surv_dir)
    with open(surv_marker) as f:
        n_dup_rows = json.load(f).get("n_dup_rows", 0)

    import pyarrow.dataset as pads

    if pads.dataset(surv_dir).count_rows() == 0:
        # an ALL-DUPLICATE shard contributes nothing: no artifacts to
        # build, no index, and it must NOT join the chain (there is
        # nothing to probe or query). Record the outcome idempotently.
        meta = {"shard_id": shard_id, "n_survivors": 0,
                "n_dup_rows": int(n_dup_rows),
                "n_prior_shards": len(state["shards"]),
                "index_dir": None}
        mf.atomic_write_json(meta_path, meta)
        mf.atomic_write_bytes(done_marker, b"")
        return meta

    # ---- 2. dedup artifacts over the survivors (resumable: _DONE) ----
    build_dedup_index(surv_ds, os.path.join(sdir, "ngram"),
                      text_col=text_col, id_col=id_col,
                      n=spec["ngram_n"], threshold=spec["ngram_threshold"])
    build_minhash_index(surv_ds, os.path.join(sdir, "minhash"),
                        text_col=text_col, id_col=id_col,
                        n=spec["minhash_n"],
                        threshold=spec["minhash_threshold"])
    build_simhash_index(surv_ds, os.path.join(sdir, "simhash"),
                        text_col=text_col, id_col=id_col,
                        max_hamming=spec["simhash_max_hamming"])

    # ---- 3. the shard's index segment (resumable by partition) ----
    idx_meta = build_index(
        surv_ds, os.path.join(sdir, "index"),
        num_partitions=spec["num_partitions"], id_col=id_col,
        query_lang=spec["query_lang"], detect_hot=False,
    )

    meta = {
        "shard_id": shard_id,
        "n_survivors": int(idx_meta["n_docs"]),
        "n_dup_rows": int(n_dup_rows),
        "n_prior_shards": len(state["shards"]),
        "index_dir": os.path.join(sdir, "index"),
    }
    mf.atomic_write_json(meta_path, meta)
    # manifest membership BEFORE the done marker: a crash between the
    # two re-runs the (fully marker-gated, hence free) shard steps and
    # rewrites the manifest idempotently; the reverse order would
    # return early on resume with the shard permanently missing from
    # the chain — indexed but unqueryable and never probed against
    if shard_id not in state["shards"]:
        state["shards"].append(shard_id)
        mf.atomic_write_json(_manifest_path(state_dir), state)
    mf.atomic_write_bytes(done_marker, b"")
    # auto-compaction runs AFTER the shard is fully durable (its own
    # record in meta.json stays the shard's record; the fold annotation
    # is call-level). compact_chain is itself marker-gated + idempotent,
    # so a crash mid-fold leaves the old chain serving and the next
    # ingest call resumes the same fold (same member list -> same sid).
    folded = _maybe_auto_compact(state_dir, spec)
    return {**meta, "auto_compacted_to": folded} if folded else meta


def _maybe_auto_compact(state_dir: str, spec: dict) -> "str | None":
    """Fold the chain when its length has reached the pinned
    ``auto_compact_shards`` threshold. Re-reads the manifest (the
    caller may have just appended), so a fold that crashed mid-way —
    old chain still serving, threshold still exceeded — is resumed by
    whichever ingest call comes next. Returns the compacted shard id
    when a fold ran."""
    thresh = spec.get("auto_compact_shards")
    if not thresh:
        return None
    state = load_state(state_dir)
    if len(state["shards"]) >= max(2, int(thresh)):
        return compact_chain(state_dir)["shard_id"]
    return None


def chain_index_dirs(state_dir: str) -> list[str]:
    """The federated index chain, in ingestion order."""
    state = load_state(state_dir)
    return [os.path.join(_shard_dir(state_dir, sid), "index")
            for sid in state["shards"]]


def chain_engine(state_dir: str, *, mode: str = "auto"):
    """Exact federated BM25 over every ingested shard (the query side
    of the chain; pipelines/incremental.py semantics)."""
    from ..stages.score import QueryEngine

    dirs = chain_index_dirs(state_dir)
    if not dirs:
        raise ValueError(f"no ingested shards under {state_dir}")
    return QueryEngine(dirs, mode=mode)


def compact_chain(state_dir: str) -> dict:
    """Compact the whole chain into ONE canonical shard — the promised
    long-chain story: probing cost per new shard is O(chain length), so
    when the chain gets long, fold it. The compacted shard gets

      * ONE index via merge_indexes over every member (cheaper than a
        rebuild: segments re-encode from decoded postings, docs tables
        travel along, stats recompute exactly — pytest-proven
        query-identical to the federated chain), and
      * FRESH dedup artifacts over the union survivors — strictly
        better than the chained per-shard artifacts, because n-gram df
        ordering and MinHash band buckets are now computed over the
        global corpus instead of per shard.

    Idempotent: the compacted shard id is derived from the member ids,
    and every step is marker-gated; the manifest swaps to the single
    shard LAST (atomic), so a crash mid-compact leaves the old chain
    fully serving. Old shard directories are left on disk for the
    caller to archive or delete."""
    import hashlib

    from .dedup import (build_dedup_index, build_minhash_index,
                        build_simhash_index)
    from .incremental import merge_indexes

    state = load_state(state_dir)
    if len(state["shards"]) < 2:
        raise ValueError("nothing to compact: chain has "
                         f"{len(state['shards'])} shard(s)")
    spec = state["spec"]
    sid = "compact-" + hashlib.sha256(
        "|".join(state["shards"]).encode()).hexdigest()[:16]
    sdir = _shard_dir(state_dir, sid)
    meta_path = os.path.join(sdir, "meta.json")
    done_marker = os.path.join(sdir, "_SHARD_DONE")
    if os.path.exists(done_marker):
        if state["shards"] != [sid]:
            state["shards"] = [sid]
            mf.atomic_write_json(_manifest_path(state_dir), state)
        with open(meta_path) as f:
            return json.load(f)
    os.makedirs(sdir, exist_ok=True)

    # union survivors snapshot (already pairwise-deduped by ingestion
    # order — compaction folds, it never re-judges)
    surv_dir = os.path.join(sdir, "survivors")
    surv_marker = os.path.join(sdir, "_SURVIVORS_DONE")
    member_dirs = [_shard_dir(state_dir, s) for s in state["shards"]]
    if not os.path.exists(surv_marker):
        import glob
        import shutil

        files = [f for d in member_dirs for f in sorted(
            glob.glob(os.path.join(d, "survivors", "*.parquet")))]
        union = ray.data.read_parquet(files)
        shutil.rmtree(surv_dir, ignore_errors=True)
        union.write_parquet(surv_dir)
        mf.atomic_write_json(surv_marker, {"n_dup_rows": 0})
    surv_ds = ray.data.read_parquet(surv_dir)

    # column bindings come from the PINNED spec (a chain ingested with
    # --text-col body must compact over body, not a hardcoded default)
    tcol = spec.get("text_col", "content")
    icol = spec.get("id_col", "doc_id")
    build_dedup_index(surv_ds, os.path.join(sdir, "ngram"),
                      text_col=tcol, id_col=icol,
                      n=spec["ngram_n"], threshold=spec["ngram_threshold"])
    build_minhash_index(surv_ds, os.path.join(sdir, "minhash"),
                        text_col=tcol, id_col=icol,
                        n=spec["minhash_n"],
                        threshold=spec["minhash_threshold"])
    build_simhash_index(surv_ds, os.path.join(sdir, "simhash"),
                        text_col=tcol, id_col=icol,
                        max_hamming=spec["simhash_max_hamming"])

    idx_dir = os.path.join(sdir, "index")
    idx_meta = merge_indexes(
        [os.path.join(d, "index") for d in member_dirs], idx_dir,
        num_partitions=spec["num_partitions"])

    meta = {
        "shard_id": sid,
        "n_survivors": int(idx_meta["n_docs"]),
        "n_dup_rows": 0,
        "compacted_from": list(state["shards"]),
        "index_dir": idx_dir,
    }
    mf.atomic_write_json(meta_path, meta)
    # done marker BEFORE the manifest swap (the swap really is last, as
    # the docstring promises): a crash between the two leaves the OLD
    # chain serving, and the next compact_chain call — same member
    # list, hence the same derived sid — hits the marker early-return
    # and completes the swap. The reverse order would strand a
    # single-member manifest behind the "nothing to compact" guard with
    # the marker never written (review finding).
    mf.atomic_write_bytes(done_marker, b"")
    state["shards"] = [sid]
    mf.atomic_write_json(_manifest_path(state_dir), state)
    return meta
