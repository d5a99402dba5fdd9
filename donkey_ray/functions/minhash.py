"""MinHash + SimHash sketches for near-duplicate detection.

MinHash: 128 universal-hash permutations h_i(x) = (a_i*x + b_i) mod p over
64-bit shingle hashes (p = 2^31-1, so a_i*x fits uint64 and the whole
signature vectorizes); params a_i/b_i are splitmix64-derived and the
shingle hashes sha256-based, so a DuckDB oracle can recompute the FULL
signature + LSH chain in SQL. LSH banding NUM_BANDS=32 bands x
ROWS_PER_BAND=4 rows. SimHash: 64-bit sign-of-weighted-bit-sums over
token hashes, near-dup via 4x16-bit band buckets + Hamming check.

All numpy-vectorized over the shingle/token hash arrays.
"""

from __future__ import annotations

import numpy as np

from .textstats import fp_token_hash64
from .tokenize import SimpleTokenizer

NUM_PERMS = 128
# 32 bands x 4 rows: LSH S-curve midpoint (1/32)^(1/4) ~= 0.42, so pairs at
# the 0.5 Jaccard near-dup threshold are caught with high probability
NUM_BANDS = 32
ROWS_PER_BAND = NUM_PERMS // NUM_BANDS
# 31-bit Mersenne prime: a*x fits in uint64, so the whole signature is one
# vectorized (perms x shingles) uint64 product — no per-value Python ints.
_P = np.uint64((1 << 31) - 1)
_TOK = SimpleTokenizer()


def _perm_params() -> tuple[np.ndarray, np.ndarray]:
    """Permutation params pinned to splitmix64 (NOT an RNG object) so the
    DuckDB oracle can regenerate the identical a_i/b_i in SQL:
    a_i = splitmix64(2i+1) % (p-1) + 1, b_i = splitmix64(2i+2) % p."""
    from .hashing import splitmix64

    i = np.arange(NUM_PERMS, dtype=np.uint64)
    a = splitmix64(np.uint64(2) * i + np.uint64(1)) % (_P - np.uint64(1)) + np.uint64(1)
    b = splitmix64(np.uint64(2) * i + np.uint64(2)) % _P
    return a, b


_A, _B = _perm_params()


def _mod_p(v: np.ndarray) -> np.ndarray:
    """v mod (2^31-1) via Mersenne folding — no integer division (the
    hot op of signature computation; ~6x faster than uint64 %)."""
    v = (v & _P) + (v >> np.uint64(31))
    v = (v & _P) + (v >> np.uint64(31))
    v = (v & _P) + (v >> np.uint64(31))
    return np.where(v >= _P, v - _P, v)


def minhash_signature(shingle_hs: np.ndarray) -> np.ndarray:
    """(NUM_PERMS,) uint64 signature; all-p sentinel for empty docs."""
    if shingle_hs.size == 0:
        return np.full(NUM_PERMS, _P, dtype=np.uint64)
    x = _mod_p(shingle_hs.astype(np.uint64))
    prod = _mod_p(_A[:, None] * x[None, :] + _B[:, None])  # (perms, shingles)
    return prod.min(axis=1)


_BAND_SALT = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x: np.ndarray) -> np.ndarray:
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def band_keys_matrix(sigs: np.ndarray) -> np.ndarray:
    """(docs, NUM_PERMS) signatures -> (docs, NUM_BANDS) uint64 bucket
    keys, fully vectorized: polynomial-combine each band's ROWS_PER_BAND
    values, salt with the band index, splitmix-finalize. Two docs share a
    band key iff their band's signature values are equal (modulo 64-bit
    mix collisions)."""
    d = sigs.reshape(sigs.shape[0], NUM_BANDS, ROWS_PER_BAND).astype(np.uint64)
    acc = d[:, :, 0].copy()
    for j in range(1, ROWS_PER_BAND):
        acc = acc * np.uint64(0x100000001B3) + d[:, :, j]
    bands = np.arange(NUM_BANDS, dtype=np.uint64) * _BAND_SALT
    return _mix64(acc ^ bands[None, :])


def minhash_signature_matrix(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Batched signatures: ``values[offsets[i]:offsets[i+1]]`` is row i's
    shingle-hash set; returns (rows, NUM_PERMS) uint64. Rows with EMPTY
    sets get the all-p sentinel (same as minhash_signature). One
    (perms x total-shingles) product + minimum.reduceat — no per-doc
    Python."""
    n_rows = len(offsets) - 1
    out = np.full((n_rows, NUM_PERMS), _P, dtype=np.uint64)
    if len(values) == 0:
        return out
    lens = np.diff(offsets)
    nz = np.flatnonzero(lens > 0)
    if len(nz) == 0:
        return out
    x = _mod_p(values.astype(np.uint64))
    starts = offsets[nz]
    # loop over PERMS (128 python iterations), vectorized over shingles:
    # per-perm temporaries are one total-shingles vector (cache-friendly)
    # instead of a (perms x total) matrix whose memory traffic dominates
    for p in range(NUM_PERMS):
        vp = _mod_p(_A[p] * x + _B[p])
        out[nz, p] = np.minimum.reduceat(vp, starts)
    return out


def jaccard(a: np.ndarray, b: np.ndarray) -> float:
    """Exact Jaccard of two sorted uint64 hash sets."""
    if a.size == 0 and b.size == 0:
        return 1.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    union = a.size + b.size - inter
    return inter / union if union else 0.0


def estimate_jaccard(sig_a: np.ndarray, sig_b: np.ndarray) -> float:
    return float(np.mean(sig_a == sig_b))


def simhash64(text: str) -> int:
    """64-bit SimHash over token hashes weighted by tf.

    Token hash pinned to sha256-top-8-bytes (fp_token_hash64) so the
    DuckDB oracle can mirror the computation exactly in SQL."""
    toks = _TOK.tokenize(text)
    if not toks:
        return 0
    acc = np.zeros(64, dtype=np.int64)
    from collections import Counter

    for tok, tf in Counter(toks).items():
        h = fp_token_hash64(tok)
        bits = (h >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        acc += tf * (2 * bits.astype(np.int64) - 1)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


def simhash_bands(h: int, n_bands: int = 4) -> list[int]:
    """Band keys (band_idx << width | chunk) for Hamming<=n_bands-1
    candidates. chunk < 2^width, so distinct (band, chunk) always map to
    distinct keys and the key fits uint64 for every n_bands (the former
    ``band << width*2`` shift overflowed 64 bits at n_bands=2)."""
    width = 64 // n_bands
    mask = (1 << width) - 1
    return [(band << width) | ((h >> (band * width)) & mask) for band in range(n_bands)]
