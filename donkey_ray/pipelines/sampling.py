"""Deterministic distributed sampling over a document table.

``stratified_sample``: per-group sample of up to ``n`` rows, chosen by
ascending splitmix64(id) with id tie-break — the training-data
"balanced subset per language/source" operator. Fully deterministic
(re-runs and resumes pick the same rows) and order-independent (the
choice depends only on (group, id), never on block layout).

Scale shape: each input batch is pre-reduced to at most ``n`` rows per
group it contains (`scoring.grouped_topk`), so the keyed exchange
that follows moves O(n_groups * n * blocks) rows, never the corpus; the
final per-group selection runs once per hash partition. No stage holds
more than one partition of the pre-reduced stream.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..functions.hashing import splitmix64
from ..functions.scoring import group_ranks, grouped_topk
from ..stages.exchange import keyed_partition_map


def stratified_sample(
    ds: ray.data.Dataset,
    *,
    key_col: str,
    id_col: str = "doc_id",
    n: int = 10,
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """Up to ``n`` deterministic rows per distinct ``key_col`` value,
    ranked by ascending splitmix64(id) (id asc tie-break). Returns
    (key_col, id_col, sample_rank) with sample_rank in 1..n.

    SQL equivalent: row_number() OVER (PARTITION BY key ORDER BY
    splitmix64(id), id) <= n."""

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        z = splitmix64(ids.astype(np.uint64))
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        codes, inv = np.unique(keys, return_inverse=True)
        sel = grouped_topk(inv, ids, z, n, descending=False)
        return pa.table(
            {
                key_col: pa.array(keys[sel]),
                id_col: pa.array(ids[sel], pa.int64()),
                "__z": pa.array(z[sel], pa.uint64()),
            }
        )

    pre = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    def final(part: pa.Table) -> pa.Table:
        # empty-partition schema must carry the INPUT's key type (a
        # hardcoded string type would conflict with int key columns)
        key_type = (part.schema.field(key_col).type
                    if key_col in part.column_names else pa.string())
        empty = pa.table(
            {
                key_col: pa.array([], key_type),
                id_col: pa.array([], pa.int64()),
                "sample_rank": pa.array([], pa.int32()),
            }
        )
        if part.num_rows == 0:
            return empty
        keys = part.column(key_col).to_numpy(zero_copy_only=False)
        ids = part.column(id_col).to_numpy(zero_copy_only=False)
        z = part.column("__z").to_numpy(zero_copy_only=False)
        codes, inv = np.unique(keys, return_inverse=True)
        sel = grouped_topk(inv, ids, z, n, descending=False)
        return pa.table(
            {
                key_col: pa.array(keys[sel]),
                id_col: pa.array(ids[sel].astype(np.int64), pa.int64()),
                "sample_rank": pa.array(group_ranks(inv[sel]) + 1, pa.int32()),
            }
        )

    final.__name__ = "stratified_sample"
    return keyed_partition_map(
        pre, [key_col], final, num_partitions=num_partitions
    )


def mix_sample(
    ds: "ray.data.Dataset",
    rates_permille: dict[str, int],
    *,
    group_col: str = "lang",
    id_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Corpus MIXING / reweighting: keep each row with its group's
    pinned rate (integer permille; groups absent from the map drop to
    0) — the "2x-weight English, downsample boilerplate" operator of a
    training-data pipeline. The keep decision is splitmix64(id) % 1000
    < rate: fully deterministic, order- and partition-independent, and
    composable with resumes (the same row always makes the same
    choice). Shuffle-free: a vectorized per-batch filter."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..functions.hashing import splitmix64

    bad = {g: r for g, r in rates_permille.items() if not 0 <= r <= 1000}
    if bad:
        # a negative rate cast to uint64 wraps to ~2^64 and KEEPS every
        # row — the exact opposite of the intent, silently
        raise ValueError(f"rates_permille must be in [0, 1000]: {bad}")
    keys = pa.array(list(rates_permille.keys()), pa.string())
    vals = np.array(list(rates_permille.values()), dtype=np.uint64)

    def f(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        z = splitmix64(ids.astype(np.uint64)) % np.uint64(1000)
        gi = pc.index_in(batch.column(group_col), value_set=keys)
        gin = gi.to_numpy(zero_copy_only=False)
        thr = np.zeros(batch.num_rows, dtype=np.uint64)
        known = gi.is_valid().to_numpy(zero_copy_only=False)
        thr[known] = vals[gin[known].astype(np.int64)]
        return batch.filter(pa.array(z < thr))

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True)


def pack_shards(
    ds: ray.data.Dataset,
    *,
    budget: int,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_ranges: int | None = None,
) -> ray.data.Dataset:
    """Token-budget shard packing — a distributed prefix scan.

    Assigns each doc to a training shard by sequential fill in ``id_col``
    order: ``shard = floor(cumsum_before(n_tokens) / budget)``, i.e. docs
    are laid out id-ascending and a new shard starts whenever the running
    token total crosses a multiple of ``budget``. Deterministic and
    parallelism-independent (depends only on ids + token counts).

    Scale shape (classic two-phase scan): the corpus text never shuffles —
    one tokenize pass projects (doc_id, n_tokens) (16 B/doc) and the tiny
    projection is MATERIALIZED so later stages never re-tokenize; docs are
    range-bucketed on doc_id, per-range token totals (O(ranges) rows) come
    back to the driver for an exclusive prefix sum, and one keyed exchange
    of the projection computes per-range local cumsums + the broadcast
    range offset. At 10^12 docs the projection is ~16 TB in the object
    store (spillable, streaming); everything on the driver is O(ranges).
    """
    from ..stages.exchange import default_num_partitions, partitioned_aggregate

    if budget <= 0:
        raise ValueError("budget must be positive")
    R = num_ranges or default_num_partitions()

    from ..functions.tokenize import SimpleTokenizer

    tok = SimpleTokenizer()

    def project(batch: pa.Table) -> pa.Table:
        col = batch.column(text_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        _flat, _parents, dl = tok.tokenize_column(col)
        return pa.table(
            {
                "doc_id": batch.column(id_col).cast(pa.int64()),
                "n_tokens": pa.array(
                    np.asarray(dl, dtype=np.int64), pa.int64()
                ),
            }
        )

    proj = ds.map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    # project() renames the id column to 'doc_id' — aggregate on THAT,
    # not the caller's id_col (a non-default id_col used to crash here)
    lo = proj.min("doc_id")
    hi = proj.max("doc_id")
    if lo is None:  # empty input
        return proj.map_batches(
            lambda b: b.append_column("shard", pa.array([], pa.int64())),
            batch_format="pyarrow",
        )
    width = max((int(hi) - int(lo) + R) // R, 1)

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        rng = (ids - int(lo)) // width
        return batch.append_column("rng", pa.array(rng, pa.int64()))

    tagged = proj.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)

    # per-range totals -> driver-side exclusive prefix sum (O(ranges) rows)
    totals_tbl = partitioned_aggregate(
        tagged, ["rng"], [("n_tokens", "sum")], rename={"n_tokens_sum": "tot"}
    ).take_all()
    sums = np.zeros(R + 1, dtype=np.int64)
    for row in totals_tbl:
        sums[int(row["rng"])] = int(row["tot"])
    offsets = np.concatenate(([0], np.cumsum(sums)))[:R + 1]

    def scan(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "shard": pa.array([], pa.int64()),
                }
            )
        rng = part.column("rng").to_numpy(zero_copy_only=False)
        ids = part.column("doc_id").to_numpy(zero_copy_only=False)
        n = part.column("n_tokens").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, rng))
        rng_s, ids_s, n_s = rng[order], ids[order], n[order]
        cum = np.cumsum(n_s)
        # reset the running sum at each rng-run start (segmented cumsum)
        starts = np.concatenate(([0], np.flatnonzero(rng_s[1:] != rng_s[:-1]) + 1))
        base = np.zeros(len(n_s), dtype=np.int64)
        base[starts] = cum[starts] - n_s[starts]
        np.maximum.accumulate(base, out=base)
        local_before = cum - n_s - base
        before = offsets[rng_s] + local_before
        return pa.table(
            {
                "doc_id": pa.array(ids_s, pa.int64()),
                "n_tokens": pa.array(n_s, pa.int64()),
                "shard": pa.array(before // budget, pa.int64()),
            }
        )

    return keyed_partition_map(tagged, ["rng"], scan)


def stratified_split(
    ds: ray.data.Dataset,
    *,
    key_col: str = "lang",
    id_col: str = "doc_id",
    permille: tuple[int, int] = (800, 100),
    num_partitions: int | None = None,
) -> ray.data.Dataset:
    """EXACT-proportion stratified train/val/test split: within each
    ``key_col`` stratum, rows ranked by ascending (splitmix64(id), id)
    take the first floor-share as 'train', the next as 'val', the rest
    as 'test' (integer test ``r * 1000 < n * cut`` — no float ratios).
    Unlike the hash-mod gate (``mix_sample``) the per-stratum
    proportions are exact, not expected values. Deterministic and
    layout-independent: the assignment depends only on the stratum's
    id set. Returns (id_col, key_col, split).

    Scale shape: only a (key, id, z) projection (~24 B/row) enters the
    stratum-keyed exchange; text never moves. Rank-exact splits need a
    stratum's projection co-located (1.6 TB of projection per 10^11
    docs spread across strata — partition-sized in practice); for a
    single stratum too large for one partition, fall back to the
    mix_sample hash gate or threshold z against approx_quantiles."""
    c1, c2 = permille
    assert c1 + c2 < 1000

    def project(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        z = splitmix64(ids.astype(np.uint64))
        return pa.table({
            key_col: batch.column(key_col),
            id_col: pa.array(ids, pa.int64()),
            "__z": pa.array(z, pa.uint64()),
        })

    proj = ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)

    def assign(part: pa.Table) -> pa.Table:
        key_type = (part.schema.field(key_col).type
                    if key_col in part.column_names else pa.string())
        empty = pa.table({
            id_col: pa.array([], pa.int64()),
            key_col: pa.array([], key_type),
            "split": pa.array([], pa.string()),
        })
        if part.num_rows == 0:
            return empty
        keys = part.column(key_col).to_numpy(zero_copy_only=False)
        ids = part.column(id_col).to_numpy(zero_copy_only=False)
        z = part.column("__z").to_numpy(zero_copy_only=False)
        codes, inv = np.unique(keys, return_inverse=True)
        order = np.lexsort((ids, z, inv))
        ks = inv[order]
        starts = np.flatnonzero(np.concatenate(([True], ks[1:] != ks[:-1])))
        run_id = np.zeros(len(ks), dtype=np.int64)
        run_id[starts] = 1
        run_id = np.cumsum(run_id) - 1
        sizes = np.diff(np.concatenate((starts, [len(ks)])))
        n = sizes[run_id]
        r = np.arange(len(ks), dtype=np.int64) - starts[run_id]
        split = np.where(
            r * 1000 < n * c1, "train",
            np.where(r * 1000 < n * (c1 + c2), "val", "test"))
        return pa.table({
            id_col: pa.array(ids[order], pa.int64()),
            key_col: pa.array(keys[order]),
            "split": pa.array(split, pa.string()),
        })

    assign.__name__ = "stratified_split"
    return keyed_partition_map(proj, [key_col], assign,
                               num_partitions=num_partitions)


def weighted_sample(
    ds: ray.data.Dataset,
    *,
    weight_col: str = "n_chars",
    id_col: str = "doc_id",
    k: int = 50,
) -> pa.Table:
    """Weighted sampling WITHOUT replacement (Efraimidis & Spirakis
    2006, one distributed pass): each row draws u = (splitmix64(id)+1)
    / 2^64 and an exponential key e = -ln(u) / w; the k SMALLEST keys
    win — inclusion probability proportional to the weight column.
    Pinned integers: e_x = (floor(-ln(u) * 1e6 + 0.5) * 1_000_000) // w
    (positive operands, so numpy floor-div == DuckDB trunc-div), ties
    by id asc. The single ln is mirrored operand-for-operand in SQL.
    Returns (id_col, weight_col, ekey) of the k winners, ekey asc.

    Scale shape: every batch pre-reduces to its local k smallest
    (vectorized argpartition), so the driver folds O(blocks * k) rows
    — the corpus never shuffles and no per-row state leaves a worker."""
    import pyarrow.compute as pc

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table({
            id_col: pa.array([], pa.int64()),
            weight_col: pa.array([], pa.int64()),
            "ekey": pa.array([], pa.int64()),
        })
        if batch.num_rows == 0:
            return empty
        ids = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        w = batch.column(weight_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if (w <= 0).any():
            # Efraimidis-Spirakis needs w > 0: a zero weight would
            # floor-div to ekey 0 (the global MINIMUM — guaranteed
            # winner instead of guaranteed loser). Weight 0 = never
            # sampled, by definition — drop those rows here.
            pos = w > 0
            ids, w = ids[pos], w[pos]
            if not len(ids):
                return empty
        z = splitmix64(ids.astype(np.uint64))
        u = (z.astype(np.float64) + 1.0) / 18446744073709551616.0
        num = np.floor(-np.log(u) * 1_000_000 + 0.5).astype(np.int64)
        ekey = (num * 1_000_000) // w
        m = min(k, len(ekey))
        sel = np.lexsort((ids, ekey))[:m]
        return pa.table({
            id_col: pa.array(ids[sel], pa.int64()),
            weight_col: pa.array(w[sel], pa.int64()),
            "ekey": pa.array(ekey[sel], pa.int64()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
    from ..util import dataset_to_table

    tbl = dataset_to_table(parts)
    ids = tbl.column(id_col).to_numpy(zero_copy_only=False)
    ekey = tbl.column("ekey").to_numpy(zero_copy_only=False)
    sel = np.lexsort((ids, ekey))[:k]
    out = tbl.take(pa.array(sel, pa.int64()))
    return out


def grouped_split(
    ds: ray.data.Dataset,
    *,
    group_col: str = "source",
    id_col: str = "doc_id",
    cuts: tuple = (80, 90),
) -> ray.data.Dataset:
    """GROUP-aware train/val/test split (leakage prevention): every doc
    of a group lands in the SAME split, so near-identical documents from
    one source can never straddle train and eval. Assignment is the
    pinned sha256-top64 of the group key mod 100 against the cumulative
    percent ``cuts`` — data-derived, order-independent, identical at any
    parallelism.

    Scale shape: embarrassingly parallel map; each batch hashes only its
    UNIQUE group values (dictionary-encode first), no exchange."""
    from ..functions.textstats import token_hash64

    lo, hi = cuts

    def assign(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = batch.column(group_col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        null_mask = pc.is_null(col).to_numpy(zero_copy_only=False)
        enc = pc.fill_null(col, "").dictionary_encode()
        uniq = enc.dictionary.to_pylist()
        hm = np.asarray([token_hash64(u) % 100 for u in uniq], dtype=np.int64)
        names = np.asarray(["train", "val", "test"], dtype=object)
        lab = names[(hm >= lo).astype(np.int64) + (hm >= hi).astype(np.int64)]
        idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        rows = lab[idx]
        # NULL group keys land in 'test' — the SQL twin's CASE ELSE
        # (sha256(NULL) -> NULL -> every WHEN false) does the same
        rows[null_mask] = "test"
        return pa.table({
            "doc_id": batch.column(id_col).cast(pa.int64()),
            group_col: col.cast(pa.string()),
            "split": pa.array(rows, pa.string()),
        })

    assign.__name__ = "grouped_split"
    return ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def epoch_shuffle(
    ds: ray.data.Dataset,
    *,
    epoch: int = 0,
    id_col: str = "doc_id",
    num_ranges: int | None = None,
) -> ray.data.Dataset:
    """Deterministic global training-order shuffle (the per-epoch
    permutation a 100 TB training run needs): each doc's rank is its
    position in ascending (splitmix64(doc_id XOR splitmix64(epoch)),
    doc_id) order. Changing ``epoch`` re-permutes; the same epoch always
    yields the same order regardless of parallelism or block layout.
    Returns (doc_id, epoch_rank).

    Scale shape (rank-by-uniform-key, no corpus shuffle): one pass
    projects (doc_id, key) — 16 B/doc — and range-buckets on the
    UNIFORM key space (splitmix output, so fixed-width buckets are
    balanced by construction); per-range counts come back for an
    exclusive prefix sum (O(ranges) driver rows), and one keyed
    exchange of the projection sorts each range locally:
    rank = range offset + local index. The payload columns never move —
    a consumer joins ranks back or reads them as a sort key."""
    from ..stages.exchange import default_num_partitions, partitioned_aggregate

    R = num_ranges or default_num_partitions()
    seed_mix = splitmix64(np.asarray([epoch], dtype=np.uint64))[0]
    # ceil(2^64/R) overflows uint64 at R=1; the 2^64-1 clamp plus the
    # min() below keeps every key in [0, R)
    width = np.uint64(min(((1 << 64) + R - 1) // R, (1 << 64) - 1))

    def project(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        keys = splitmix64(ids.astype(np.uint64) ^ seed_mix)
        rng = np.minimum((keys // width).astype(np.int64), R - 1)
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "key": pa.array(keys, pa.uint64()),
            "rng": pa.array(rng, pa.int64()),
        })

    project.__name__ = "epoch_shuffle_project"
    # the tiny projection feeds two consumers (counts + rank exchange)
    proj = ds.map_batches(
        project, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    totals = partitioned_aggregate(
        proj, ["rng"], [("doc_id", "count")], rename={"doc_id_count": "c"}
    ).take_all()
    counts = np.zeros(R, dtype=np.int64)
    for row in totals:
        counts[int(row["rng"])] = int(row["c"])
    offsets = np.concatenate(([0], np.cumsum(counts)))
    empty = pa.table({"doc_id": pa.array([], pa.int64()),
                      "epoch_rank": pa.array([], pa.int64())})

    def rank_part(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return empty
        ids = part.column("doc_id").to_numpy(zero_copy_only=False)
        k = part.column("key").to_numpy(zero_copy_only=False)
        rng = part.column("rng").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, k, rng))
        rng_s = rng[order]
        pos = np.arange(len(order), dtype=np.int64)
        starts = np.concatenate(
            ([0], np.flatnonzero(rng_s[1:] != rng_s[:-1]) + 1))
        run_start = np.zeros(len(order), dtype=np.int64)
        run_start[starts] = pos[starts]
        np.maximum.accumulate(run_start, out=run_start)
        ranks = offsets[rng_s] + (pos - run_start)
        return pa.table({
            "doc_id": pa.array(ids[order], pa.int64()),
            "epoch_rank": pa.array(ranks, pa.int64()),
        })

    rank_part.__name__ = "epoch_shuffle_rank"
    return keyed_partition_map(proj, ["rng"], rank_part)
