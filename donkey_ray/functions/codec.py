"""Varbyte + delta codecs for posting lists (SURVEY.md B13/B28).

Pinned wire format (SURVEY.md section 7 step 4):
  - varbyte: LSB-first 7-bit groups, high bit = continuation (set on every
    byte except the last byte of a value). Values are unsigned 64-bit.
  - doc_ids are stored as deltas over the ascending-sorted unique list:
    first value absolute, subsequent values = difference (>= 1).
  - tf / dl streams are stored varbyte, un-deltaed.

All kernels are numpy-vectorized (no per-value Python loop); encode loops
over at most 10 byte-groups, decode is fully vectorized.

Donkey parallel [PK]: donkey's kgraph index file format is its on-disk
posting analogue (src/index-kgraph.cpp, file-level, unverifiable — see
SURVEY.md section 0); this format is our own pinned spec.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np
import pyarrow as pa

_U7 = np.uint64(7)
_M7F = np.uint64(0x7F)


def varbyte_encode(values) -> bytes:
    """Encode an array of uint64 values. Returns b'' for empty input."""
    return varbyte_encode_all(values)[0]


def varbyte_decode(buf: bytes) -> np.ndarray:
    """Decode a varbyte buffer back to a uint64 array."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.zeros(0, dtype=np.uint64)
    is_end = b < 0x80
    if not is_end[-1]:
        raise ValueError("truncated varbyte stream")
    ends = np.flatnonzero(is_end)
    n_vals = ends.size
    # uniform-width fast path: sorted-hash doc-id deltas cluster in one
    # log range, so whole buffers are often a single byte length — then
    # the stream is a (n, L) matrix and decoding is L column combines
    if b.size % n_vals == 0:
        L = b.size // n_vals
        grid = is_end.reshape(n_vals, L)
        if grid[:, -1].all() and (L == 1 or not grid[:, :-1].any()):
            m = b.reshape(n_vals, L).astype(np.uint64)
            vals = m[:, 0] & np.uint64(0x7F)
            for g in range(1, L):
                vals |= (m[:, g] & np.uint64(0x7F)) << np.uint64(7 * g)
            return vals
    # start index of each value, and of each byte's value (spread
    # forward by a running max): the byte's 7-bit group index is the gap
    starts = np.zeros(n_vals, dtype=np.int64)
    starts[1:] = ends[:-1] + 1
    first = np.zeros(b.size, dtype=np.int64)
    first[starts] = starts
    shift = np.arange(b.size, dtype=np.int64) - np.maximum.accumulate(first)
    contrib = (b & np.uint8(0x7F)).astype(np.uint64) << (
        _U7 * shift.astype(np.uint64))
    return np.bitwise_or.reduceat(contrib, starts)


def varbyte_encode_all(values) -> tuple[bytes, np.ndarray]:
    """Encode all values in one vectorized pass; returns (buffer, offs)
    where offs[i] is the byte offset of value i (len n+1). Slicing
    buffer[offs[i]:offs[j]] yields the encoding of values[i:j]."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b"", np.zeros(1, dtype=np.int64)
    # bytes-per-value: number of 7-bit groups (>=1)
    nb = np.ones(v.size, dtype=np.int64)
    rest = v >> _U7
    while rest.any():
        nb += (rest > 0)
        rest = rest >> _U7
    offs = np.zeros(v.size + 1, dtype=np.int64)
    np.cumsum(nb, out=offs[1:])
    out = np.zeros(offs[-1], dtype=np.uint8)
    starts = offs[:-1]
    for g in range(10):
        mask = nb > g
        if not mask.any():
            break
        pos = starts[mask] + g
        byte = ((v[mask] >> np.uint64(7 * g)) & _M7F).astype(np.uint8)
        cont = (nb[mask] - 1 > g).astype(np.uint8)
        out[pos] = byte | (cont << 7)
    return out.tobytes(), offs


def binary_runs(buf, offsets) -> pa.Array:
    """Arrow binary array whose i-th value is buf[offsets[i]:offsets[i+1]]
    — every run of one encoded buffer, with no per-run bytes object."""
    offs = np.asarray(offsets, dtype=np.int64)
    if offs.size and offs[-1] > np.iinfo(np.int32).max:
        raise ValueError("binary runs past 2 GiB need a large_binary column")
    return pa.Array.from_buffers(pa.binary(), offs.size - 1, [
        None, pa.py_buffer(offs.astype(np.int32)), pa.py_buffer(buf)])


def decode_blocked_deltas(buf: bytes, n: int, block_size: int) -> np.ndarray:
    """Decode a delta stream whose deltas RESET at every block boundary
    (the first value of each block is absolute) -> absolute int64 values.

    This layout makes each block independently decodable (lazy block-max
    WAND skips decode of pruned blocks)."""
    d = varbyte_decode(buf)
    assert d.size == n, (d.size, n)
    if n == 0:
        return d.astype(np.int64)
    c = np.cumsum(d, dtype=np.uint64)
    bs = np.arange(0, n, block_size)
    pre = np.concatenate((np.zeros(1, dtype=np.uint64), c[bs[1:] - 1]))
    lens = np.diff(np.append(bs, n))
    corr = np.repeat(pre, lens)
    return (c - corr).astype(np.int64)


def decode_runs(runs, block_size: int) -> list[tuple]:
    """[(decode_blocked_deltas(doc_buf, df, block_size),
    varbyte_decode(tf_buf), varbyte_decode(dl_buf)) for doc_buf, tf_buf,
    dl_buf, df in runs] from ONE varbyte pass over all the streams; the
    arrays are views of that one batch."""
    if not runs:
        return []
    doc_bufs, tf_bufs, dl_bufs, dfs = zip(*runs)
    bounds = [0, *accumulate(map(int, dfs))]
    n = bounds[-1]
    v = varbyte_decode(b"".join([*doc_bufs, *tf_bufs, *dl_bufs]))
    assert v.size == 3 * n, (v.size, n)
    d, tfs, dls = v[:n], v[n:2 * n], v[2 * n:]
    c = np.cumsum(d, dtype=np.uint64)
    # the doc-id deltas reset at every block of every run: subtract the
    # running sum before each block's first (absolute) value
    local = np.arange(n, dtype=np.int64) - np.repeat(bounds[:-1], dfs)
    first = local % block_size == 0
    base = (c - d)[first]
    docs = (c - base[np.cumsum(first) - 1]).astype(np.int64)
    return [(docs[a:b], tfs[a:b], dls[a:b])
            for a, b in zip(bounds, bounds[1:])]


def delta_encode_segments(sorted_vals, seg_starts) -> np.ndarray:
    """Per-run delta encode in one pass: within each run the first value is
    absolute, the rest are diffs (runs are ascending-sorted)."""
    v = np.ascontiguousarray(sorted_vals, dtype=np.uint64)
    if v.size == 0:
        return v
    d = np.empty_like(v)
    d[0] = v[0]
    np.subtract(v[1:], v[:-1], out=d[1:])
    d[seg_starts] = v[seg_starts]
    return d


def delta_encode(sorted_vals) -> np.ndarray:
    """Ascending-sorted unique uint64 -> deltas (first absolute)."""
    v = np.ascontiguousarray(sorted_vals, dtype=np.uint64)
    if v.size == 0:
        return v
    d = np.empty_like(v)
    d[0] = v[0]
    np.subtract(v[1:], v[:-1], out=d[1:])
    return d


def delta_decode(deltas) -> np.ndarray:
    d = np.ascontiguousarray(deltas, dtype=np.uint64)
    return np.cumsum(d, dtype=np.uint64)


def encode_postings(doc_ids) -> bytes:
    """Ascending-sorted unique doc_ids (int64/uint64) -> delta varbyte."""
    return varbyte_encode(delta_encode(np.asarray(doc_ids, dtype=np.uint64)))


def decode_postings(buf: bytes) -> np.ndarray:
    """Inverse of encode_postings; returns int64 doc_ids."""
    return delta_decode(varbyte_decode(buf)).astype(np.int64)
