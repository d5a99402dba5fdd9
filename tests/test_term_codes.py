"""Build layers on Arrow term codes: ``encode.term_codes``, the vectorized
segment encoder against a per-run reference encoder, ``partition_column``
on Arrow input against a per-term reference, and the docs footers'
per-lang stamps that give ``n_docs`` and ``lang_stats`` after a build,
a merge, a prune and a flush."""

import collections
import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from donkey_ray import schemas
from donkey_ray.functions.codec import delta_encode_segments, varbyte_encode_all
from donkey_ray.functions.hashing import (partition_column, salt_table,
                                          term_partition)
from donkey_ray.stages.encode import (encode_partition_arrays,
                                      encode_partition_table, term_codes)

# ASCII, Latin-1, CJK and an astral code point: UTF-8 byte order must
# equal code-point order
terms_st = st.text(alphabet="abz09_éü日本Ω\U0001F600", min_size=1, max_size=4)


def _reference_segment(terms, doc_ids, tfs, dls, block_size,
                       pos_cells=None):
    """The segment encoder as a per-run loop: ``np.unique`` term order,
    one slice per run and per block."""
    uniq, codes = np.unique(np.array(terms, dtype=object),
                            return_inverse=True)
    order = np.lexsort((doc_ids, codes))
    codes, doc_ids = codes[order], doc_ids[order]
    tfs, dls = tfs[order].astype(np.int64), dls[order].astype(np.int64)
    n = len(codes)
    starts = np.concatenate(([0], np.flatnonzero(codes[1:] != codes[:-1]) + 1))
    ends = np.concatenate((starts[1:], [n]))
    per_run = [s + np.arange(0, e - s, block_size) for s, e in zip(starts, ends)]
    doc_buf, doc_offs = varbyte_encode_all(
        delta_encode_segments(doc_ids.astype(np.uint64), np.concatenate(per_run)))
    tf_buf, tf_offs = varbyte_encode_all(tfs.astype(np.uint64))
    dl_buf, dl_offs = varbyte_encode_all(dls.astype(np.uint64))
    if pos_cells is not None:
        pos_cells = [pos_cells[i] for i in order]
        cell_offs = np.concatenate(([0], np.cumsum([len(c) for c in pos_cells])))
    out = collections.defaultdict(list)
    for s, e, bstarts in zip(starts, ends, per_run):
        rel = bstarts - s
        bends = np.minimum(rel + block_size, e - s)
        bounds = np.append(bstarts, e)
        out["term"].append(str(uniq[codes[s]]))
        out["df"].append(int(e - s))
        out["doc_ids"].append(doc_buf[doc_offs[s]:doc_offs[e]])
        out["tfs"].append(tf_buf[tf_offs[s]:tf_offs[e]])
        out["dls"].append(dl_buf[dl_offs[s]:dl_offs[e]])
        out["block_last_doc"].append(doc_ids[s:e][bends - 1].tolist())
        out["block_max_tf"].append(np.maximum.reduceat(tfs[s:e], rel).tolist())
        out["block_min_dl"].append(np.minimum.reduceat(dls[s:e], rel).tolist())
        out["block_doc_boff"].append((doc_offs[bounds] - doc_offs[s]).tolist())
        out["block_tf_boff"].append((tf_offs[bounds] - tf_offs[s]).tolist())
        out["block_dl_boff"].append((dl_offs[bounds] - dl_offs[s]).tolist())
        if pos_cells is not None:
            out["poss"].append(b"".join(pos_cells[s:e]))
            out["block_pos_boff"].append(
                (cell_offs[bounds] - cell_offs[s]).tolist())
    types = {"term": pa.string(), "df": pa.int64(), "doc_ids": pa.binary(),
             "tfs": pa.binary(), "dls": pa.binary(), "poss": pa.binary(),
             "block_max_tf": pa.list_(pa.int32()),
             "block_min_dl": pa.list_(pa.int32())}
    return pa.table({c: pa.array(v, types.get(c, pa.list_(pa.int64())))
                     for c, v in out.items()}), {
        "n_terms": len(starts), "n_postings": n, "sum_tf": int(tfs.sum())}


runs_st = st.lists(
    st.tuples(terms_st, st.one_of(st.sampled_from([1, 127, 128, 129, 257]),
                                  st.integers(1, 6))),
    min_size=1, max_size=4, unique_by=lambda r: r[0])


@settings(max_examples=120, deadline=None)
@given(runs_st, st.booleans(), st.integers(0, 2**32 - 1))
def test_encoder_matches_per_run_reference(runs, positions, seed):
    rng = np.random.default_rng(seed)
    terms, doc_ids = [], []
    for term, df in runs:
        terms += [term] * df
        doc_ids.append(rng.choice(2**62, size=df, replace=False))
    doc_ids = np.concatenate(doc_ids).astype(np.int64)
    n = len(terms)
    shuffle = rng.permutation(n)  # the encoder sorts its input
    terms = [terms[i] for i in shuffle]
    doc_ids = doc_ids[shuffle]
    tfs = rng.integers(1, 300, n)
    dls = rng.integers(1, 70_000, n)
    cells = ([rng.integers(0, 256, rng.integers(1, 5)).astype(np.uint8)
              .tobytes() for _ in range(n)] if positions else None)
    want, want_stats = _reference_segment(
        terms, doc_ids, tfs, dls, schemas.BLOCK_SIZE, cells)
    uniq, codes = term_codes(pa.array(terms, pa.string()))
    got, stats = encode_partition_arrays(
        uniq, codes, doc_ids, tfs, dls,
        pos_cells=None if cells is None else pa.array(cells, pa.binary()))
    assert got.schema == want.schema
    assert got.equals(want)
    assert stats == want_stats
    # the table entry point (chunked Arrow columns) encodes the same
    half = n // 2
    table = pa.table({
        "term": pa.chunked_array([pa.array(terms[:half], pa.string()),
                                  pa.array(terms[half:], pa.string())]),
        "doc_id": pa.array(doc_ids, pa.int64()),
        "tf": pa.array(tfs, pa.int32()), "dl": pa.array(dls, pa.int32()),
        **({"pos": pa.array(cells, pa.binary())} if positions else {})})
    assert encode_partition_table(table)[0].equals(want)


@settings(max_examples=200, deadline=None)
@given(st.lists(terms_st, max_size=40))
def test_term_codes_match_np_unique(terms):
    uniq, codes = term_codes(pa.array(terms, pa.string()))
    want_uniq, want_codes = np.unique(np.array(terms, dtype=object),
                                      return_inverse=True)
    assert uniq.to_pylist() == list(want_uniq)
    assert codes.dtype == np.int64
    assert codes.tolist() == want_codes.tolist()


def _reference_parts(terms, doc_ids, P, hot, salt_bits):
    return [int(salt_table(t, P, salt_bits)[d >> (63 - salt_bits)])
            if t in hot else term_partition(t, P)
            for t, d in zip(terms, doc_ids)]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(terms_st, st.integers(0, 2**63 - 1)), max_size=60),
       st.sampled_from([1, 7, 16]), st.integers(1, 5), st.integers(0, 60),
       st.data())
def test_partition_column_matches_per_term_reference(rows, P, salt_bits, cut,
                                                     data):
    terms = [t for t, _ in rows]
    doc_ids = np.array([d for _, d in rows], dtype=np.int64)
    hot = frozenset(data.draw(st.lists(st.sampled_from(terms), max_size=3))
                    if terms else ())
    want = _reference_parts(terms, doc_ids, P, hot, salt_bits)
    cut = min(cut, len(terms))
    chunked = pa.chunked_array([pa.array(terms[:cut], pa.string()),
                                pa.array(terms[cut:], pa.string())])
    for col in (pa.array(terms, pa.string()), chunked):
        got = partition_column(col, doc_ids, P, hot, salt_bits)
        assert got.dtype == np.int32
        assert got.tolist() == want


def test_partition_column_empty_input():
    empty = np.empty(0, dtype=np.int64)
    for col in (pa.array([], pa.string()), pa.chunked_array([], pa.string())):
        got = partition_column(col, empty, 16, frozenset({"a"}))
        assert got.dtype == np.int32 and len(got) == 0


# ---------------------------------------------------------------- stats


def _docs_groupby(index_dir):
    """(n_docs, lang_stats) recomputed from the docs rows themselves."""
    d = pads.dataset(os.path.join(index_dir, "docs")).to_table(
        columns=["lang", "doc_len"])
    agg = collections.defaultdict(lambda: [0, 0])
    for lang, dl in zip(d.column("lang").to_pylist(),
                        d.column("doc_len").to_pylist()):
        agg[lang][0] += 1
        agg[lang][1] += dl
    return d.num_rows, {lang: {"n_docs": c, "total_len": s, "avgdl": s / c}
                        for lang, (c, s) in agg.items()}


def _assert_stats_match_docs(index_dir, meta):
    n_docs, lang_stats = _docs_groupby(index_dir)
    assert meta["n_docs"] == n_docs
    assert meta["lang_stats"] == lang_stats
    for p in glob.glob(os.path.join(index_dir, "docs", "*.parquet")):
        assert b"lang_stats" in pq.read_metadata(p).metadata


def test_lang_stats_and_n_docs_from_footers(ray_session, tmp_path):
    """After build, filtered and unfiltered merge, prune and an
    IndexServer flush, meta n_docs and lang_stats equal a direct
    group-by of the docs rows, and every docs file carries the stamp."""
    import ray.data

    from donkey_ray.pipelines.build import build_index
    from donkey_ray.pipelines.incremental import merge_indexes
    from donkey_ray.pipelines.prune import prune_index
    from donkey_ray.serve import IndexServer
    from donkey_ray.state import manifest as mf
    from donkey_ray.synth import make_corpus

    corpus = make_corpus(160, seed=31)
    members = []
    for half in (0, 1):
        d = str(tmp_path / f"m{half}")
        meta = build_index(ray.data.from_arrow(
            corpus.take(list(range(half, 160, 2)))), d, num_partitions=3,
            batch_size=16, detect_hot=False)
        _assert_stats_match_docs(d, meta)
        members.append(d)
    merged = str(tmp_path / "merged")
    _assert_stats_match_docs(merged, merge_indexes(members, merged,
                                                   num_partitions=4))
    excl = pads.dataset(members[0] + "/docs").to_table().column(
        "doc_id").to_pylist()[:9]
    filtered = str(tmp_path / "filtered")
    meta = merge_indexes(members, filtered, num_partitions=4,
                         exclude_doc_ids=set(excl))
    assert meta["n_docs"] == 160 - 9
    _assert_stats_match_docs(filtered, meta)
    pruned = str(tmp_path / "pruned")
    _assert_stats_match_docs(pruned, prune_index(merged, pruned,
                                                 keep_frac=0.5))

    srv = IndexServer(members[1])
    srv.insert([{"repo": "r", "path": f"p{i}", "commit": "c",
                 "lang": ("py", "go")[i % 2], "content": f"alpha beta {i}"}
                for i in range(5)])
    delta = srv.flush()["delta_dir"]
    _assert_stats_match_docs(delta, mf.load_meta(delta))


def test_docs_footer_rules(ray_session, tmp_path):
    """An unstamped docs file counts toward n_docs but turns the
    per-lang stats off; a corrupt footer makes write_index raise
    instead of writing a meta."""
    import ray.data

    from donkey_ray.pipelines.build import compute_lang_stats, write_index
    from donkey_ray.stages.extract import write_docs
    from donkey_ray.state import manifest as mf

    out = str(tmp_path / "idx")
    docs_dir = os.path.join(out, "docs")
    rows = pa.table({"doc_id": pa.array([1, 2, 3], pa.int64()),
                     "lang": ["py", "py", "go"],
                     "doc_len": pa.array([4, 6, 5], pa.int64())})
    write_docs(docs_dir, rows)
    assert compute_lang_stats(out) == (3, {
        "go": {"n_docs": 1, "total_len": 5, "avgdl": 5.0},
        "py": {"n_docs": 2, "total_len": 10, "avgdl": 5.0}})
    pq.write_table(rows.slice(0, 2).replace_schema_metadata(None),
                   os.path.join(docs_dir, "unstamped.parquet"))
    assert compute_lang_stats(out) == (5, {})

    good = os.path.join(docs_dir, "unstamped.parquet")
    with open(good, "r+b") as f:  # clobber the footer length + magic
        f.seek(-8, os.SEEK_END)
        f.write(b"\xff" * 8)
    postings = pa.table({"term": ["a"], "doc_id": pa.array([1], pa.int64()),
                         "tf": pa.array([1], pa.int32()),
                         "dl": pa.array([4], pa.int32()),
                         "part": pa.array([0], pa.int32())})
    with pytest.raises(pa.ArrowException):
        write_index(ray.data.from_arrow(postings), out, num_partitions=1,
                    hot_terms=[], salt_bits=4, query_lang=None,
                    analyzer_lang=None, id_col=None, positions=False)
    assert not mf.is_complete(out)
