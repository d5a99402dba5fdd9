"""Static index pruning (Carmel et al. 2001, "Static index pruning for
information retrieval systems") — a LOSSY, smaller physical index.

For each term, only its top ``ceil(keep_frac * df)`` postings by
(tf desc, doc_id asc) survive; everything else — docs table, corpus
stats (n_docs / total_len / avgdl), per-posting dl — is carried through
unchanged, so a surviving posting scores EXACTLY what it scored in the
full index except for the idf shift from the smaller df (the pruned
index is self-consistent: its segments' df column is the pruned count,
and the standard QueryEngine serves it unmodified). The keep rule is
``max(1, ceil(keep_frac * df - 1e-9))`` — the epsilon guards float
ceil at exact multiples (same guard as the PPJoin prefix length), and
every term keeps at least one posting so the vocabulary is preserved.

Why: high-df terms dominate index bytes but their low-tf postings
rarely reach the top-k; pruning trades bounded recall for a smaller,
faster index — the classic size/latency dial for serving fleets.

Scale shape: ONE decode pass over the source segments (partition files
read in parallel), one term-keyed exchange routed by the build's rule
with an empty hot set (every term in its home partition — a term's
postings must co-locate for the global keep rule), and the
per-partition prune is a single lexsort + segmented rank; the build's
writer (``build.write_index``) writes the segments and the meta, and
``build.copy_docs`` rewrites the docs table (streaming read->write) on
every run, so there is no separate docs marker.

Known skew ceiling (documented, not yet needed at tested scale): the
co-locating exchange un-salts hot terms, so the owner partition of the
single hottest term receives keep_frac * df rows where the salted build
split them 2^salt_bits ways. Bounded refinement for the 100 TB path:
per-(term, salt-shard) tf histograms (run metadata only, no posting
bytes) -> merged per-term threshold tf* -> shards keep tf > tf* locally
and exchange ONLY the tf == tf* boundary postings for the exact
(doc asc) tie cut, writing the hot term's pruned postings still salted.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from ..functions.scoring import group_ranks
from ..stages.encode import SegmentWriter, term_codes
from ..state import manifest as mf
from .build import copy_docs, route_postings, write_index
from .incremental import segments_as_postings


class _PruningSegmentWriter:
    """map_groups callable: apply the per-term keep rule to one
    partition's posting rows, then delegate to the standard
    SegmentWriter (atomic segment + manifest entry)."""

    def __init__(self, out_dir: str, keep_frac: float) -> None:
        self._writer = SegmentWriter(out_dir)
        self.keep_frac = float(keep_frac)
        self.__name__ = "PruningSegmentWriter"

    def __call__(self, group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return self._writer(group)
        _, codes = term_codes(group.column("term"))
        tfs = group.column("tf").to_numpy(zero_copy_only=False)
        docs = group.column("doc_id").to_numpy(zero_copy_only=False)
        # order: term asc, tf desc, doc asc -> rank-within-term
        order = np.lexsort((docs, -tfs.astype(np.int64), codes))
        keep_n = np.maximum(1, np.ceil(
            self.keep_frac * np.bincount(codes) - 1e-9).astype(np.int64))
        keep = group_ranks(codes[order]) < keep_n[codes[order]]
        sel = np.sort(order[keep])  # restore input order for the encoder
        return self._writer(group.take(pa.array(sel)))


def prune_index(
    src_dir: str,
    out_dir: str,
    *,
    keep_frac: float = 0.5,
    num_partitions: int | None = None,
) -> dict:
    """Write the pruned index artifact at ``out_dir``; returns its meta
    (original corpus stats, pruned posting counts)."""
    if not (0.0 < keep_frac <= 1.0):
        raise ValueError("keep_frac must be in (0, 1]")
    src_meta = mf.load_meta(src_dir)
    if src_meta.get("positions"):
        raise ValueError("pruning a positional index would break phrase "
                         "semantics; prune the non-positional index")
    P = num_partitions or int(src_meta["num_partitions"])

    copy_docs([src_dir], out_dir)
    # no hot set on purpose: the keep rule needs every term co-located
    return write_index(
        route_postings(segments_as_postings(src_dir), P),
        out_dir, num_partitions=P, hot_terms=[],
        salt_bits=src_meta.get("salt_bits", 4),
        query_lang=src_meta.get("query_lang"),
        analyzer_lang=src_meta.get("analyzer_lang"),
        id_col=src_meta.get("id_col"), positions=False,
        writer=_PruningSegmentWriter(out_dir, keep_frac),
        # corpus stats carried UNCHANGED: tf_weight must match the full
        # index for surviving postings (only idf shifts, via pruned df)
        stats=(src_meta["n_docs"], src_meta["total_len"]),
        pruned_from=os.path.abspath(src_dir), keep_frac=keep_frac,
    )
