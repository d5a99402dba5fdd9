import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from donkey_ray import schemas
from donkey_ray.functions.codec import (
    decode_blocked_deltas,
    decode_postings,
    decode_runs,
    delta_decode,
    delta_encode,
    delta_encode_segments,
    encode_postings,
    varbyte_decode,
    varbyte_encode,
)

EDGE_CASES = [
    [],
    [0],
    [2**62],
    [127],
    [128],
    [16383],
    [16384],
    [1, 2, 3, 4, 5],
    list(range(1000)),
    [2**63 - 1],
]


@pytest.mark.parametrize("vals", EDGE_CASES)
def test_varbyte_roundtrip_edges(vals):
    arr = np.array(vals, dtype=np.uint64)
    assert list(varbyte_decode(varbyte_encode(arr))) == vals


def test_varbyte_known_bytes():
    # LSB-first 7-bit groups, continuation high bit
    assert varbyte_encode(np.array([0], dtype=np.uint64)) == b"\x00"
    assert varbyte_encode(np.array([127], dtype=np.uint64)) == b"\x7f"
    assert varbyte_encode(np.array([128], dtype=np.uint64)) == b"\x80\x01"
    assert varbyte_encode(np.array([300], dtype=np.uint64)) == b"\xac\x02"
    assert varbyte_encode(np.array([1, 128], dtype=np.uint64)) == b"\x01\x80\x01"


def test_varbyte_empty():
    assert varbyte_encode(np.array([], dtype=np.uint64)) == b""
    assert varbyte_decode(b"").size == 0


def test_truncated_raises():
    with pytest.raises(ValueError):
        varbyte_decode(b"\x80")


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=300)
)
def test_varbyte_roundtrip_property(vals):
    arr = np.array(vals, dtype=np.uint64)
    out = varbyte_decode(varbyte_encode(arr))
    assert np.array_equal(out, arr)


@settings(max_examples=50, deadline=None)
@given(
    st.sets(st.integers(min_value=0, max_value=2**62), max_size=200)
)
def test_postings_roundtrip_property(ids):
    sorted_ids = np.array(sorted(ids), dtype=np.int64)
    out = decode_postings(encode_postings(sorted_ids))
    assert np.array_equal(out, sorted_ids)


def test_delta_roundtrip_sizes():
    rng = np.random.default_rng(7)
    for n in [0, 1, 127, 128, 129, 10_000]:
        ids = np.unique(rng.integers(0, 2**62, size=n, dtype=np.int64))
        d = delta_encode(ids.astype(np.uint64))
        assert np.array_equal(delta_decode(d).astype(np.int64), ids)
        assert np.array_equal(decode_postings(encode_postings(ids)), ids)


def test_delta_compresses():
    ids = np.arange(1_000_000, 1_010_000, dtype=np.int64)
    buf = encode_postings(ids)
    assert len(buf) < 10_000 + 10  # ~1 byte per delta after the first


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, schemas.BLOCK_SIZE]),
    # terms x runs: (df, doc-id span, seed) per run; df crosses blocks
    st.lists(st.lists(st.tuples(st.integers(1, 300),
                                st.sampled_from([2**12, 2**40, 2**62]),
                                st.integers(0, 2**32)),
                      min_size=1, max_size=4),
             min_size=1, max_size=5),
)
def test_decode_runs_equals_per_run_decode(block_size, terms):
    """One varbyte pass over many runs == per run decode_blocked_deltas
    + varbyte_decode of its tf and dl streams, in input order."""
    runs = []
    for term_runs in terms:
        for df, span, seed in term_runs:
            rng = np.random.default_rng(seed)
            ids = np.unique(rng.integers(0, span, size=df, dtype=np.int64))
            starts = np.arange(0, ids.size, block_size)
            runs.append((
                varbyte_encode(delta_encode_segments(ids.astype(np.uint64),
                                                     starts)),
                varbyte_encode(rng.integers(1, 2**20, ids.size, np.uint64)),
                varbyte_encode(rng.integers(1, 300, ids.size, np.uint64)),
                ids.size))
    got = decode_runs(runs, block_size)
    assert len(got) == len(runs)
    for (doc_buf, tf_buf, dl_buf, n), (docs, tfs, dls) in zip(runs, got):
        want = decode_blocked_deltas(doc_buf, n, block_size)
        assert docs.dtype == want.dtype == np.int64
        assert np.array_equal(docs, want)
        assert np.array_equal(tfs, varbyte_decode(tf_buf))
        assert np.array_equal(dls, varbyte_decode(dl_buf))


def test_decode_runs_empty():
    assert decode_runs([], schemas.BLOCK_SIZE) == []
