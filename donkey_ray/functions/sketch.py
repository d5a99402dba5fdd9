"""Mergeable sketches for distributed approximate aggregation.

HyperLogLog (Flajolet et al., standard 2^p-register formulation with
the small-range linear-counting correction): the unit of work is a
REGISTER VECTOR, which is associative-mergeable by elementwise max —
exactly the map-side-partial + tiny-final-merge shape every partial
aggregate in this repo uses. Hashing is splitmix64 (the repo's pinned
process-independent mixer), so partials from any worker merge exactly.
"""

from __future__ import annotations

import math

import numpy as np

_SPLITMIX_C1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_C2 = np.uint64(0x94D049BB133111EB)


def _mix64(x: np.ndarray) -> np.ndarray:
    z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * _SPLITMIX_C1
    z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_C2
    return z ^ (z >> np.uint64(31))


def hll_partial(values: np.ndarray, p: int = 12) -> np.ndarray:
    """Register vector (2^p uint8) for one batch of int64/uint64 values."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if len(values) == 0:
        return regs
    h = _mix64(np.asarray(values))
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)  # pad tail with 1s
    # rank = leading zeros of the remaining 64-p bits, +1 (capped)
    lz = np.zeros(len(h), dtype=np.uint8)
    cur = rest.copy()
    top = np.uint64(1) << np.uint64(63)
    alive = np.ones(len(h), dtype=bool)
    for _ in range(64 - p):
        zero_top = alive & ((cur & top) == 0)
        lz[zero_top] += 1
        alive &= zero_top
        if not alive.any():
            break
        cur = cur << np.uint64(1)
    rank = lz + 1
    np.maximum.at(regs, idx, rank)
    return regs


def hll_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(a, b)


def hll_estimate(regs: np.ndarray) -> float:
    """Cardinality estimate with linear counting for the small range.

    The harmonic sum is assembled as the EXACT integer S = sum_j 2^(64-r_j)
    (each term a power of two; the fold can't lose bits), then one pinned
    float expression alpha*m*m*2^64 / float(S) — so the DuckDB oracle
    computes the bit-identical estimate (HUGEINT sum + the same literal
    float assembly), with no order-dependent float summation anywhere."""
    m = len(regs)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    counts = np.bincount(regs.astype(np.int64), minlength=65)
    s_scaled = 0
    for r in range(65):
        c = int(counts[r])
        if c:
            s_scaled += c << (64 - r)
    est = (alpha * m * m * 18446744073709551616.0) / float(s_scaled)
    zeros = int(counts[0])
    if est <= 2.5 * m and zeros:
        return float(m) * math.log(m / zeros)
    return float(est)


# ---- count-min sketch (mergeable frequency estimates) ----
# depth x width counters; bucket_d(key) = splitmix64(key ^ SEED_d) %
# WIDTH. Seeds are pi-digit constants (public, pinned); WIDTH a power
# of two. Estimates never undercount; overcount <= 2N/WIDTH w.h.p.
CMS_DEPTH = 4
CMS_WIDTH = 2048
CMS_SEEDS = (
    0x243F6A8885A308D3, 0x13198A2E03707344,
    0xA4093822299F31D0, 0x082EFA98EC4E6C89,
)


def cms_buckets(keys: np.ndarray) -> np.ndarray:
    """(CMS_DEPTH, len(keys)) bucket indices."""
    from .hashing import splitmix64

    k = np.asarray(keys, dtype=np.uint64)
    return np.stack([
        (splitmix64(k ^ np.uint64(s)) % np.uint64(CMS_WIDTH)).astype(np.int64)
        for s in CMS_SEEDS
    ])


def cms_partial(keys: np.ndarray, counts: np.ndarray | None = None) -> np.ndarray:
    """One batch's partial sketch: (CMS_DEPTH, CMS_WIDTH) int64.
    ``counts`` weights each key (defaults to 1 per key)."""
    sk = np.zeros((CMS_DEPTH, CMS_WIDTH), dtype=np.int64)
    if len(keys) == 0:
        return sk
    c = np.ones(len(keys), np.int64) if counts is None else counts.astype(np.int64)
    b = cms_buckets(keys)
    for d in range(CMS_DEPTH):
        np.add.at(sk[d], b[d], c)
    return sk


def cms_query(sk: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Point estimates: min over depth of the key's counters."""
    if len(keys) == 0:
        return np.zeros(0, np.int64)
    b = cms_buckets(keys)
    return np.min(
        np.stack([sk[d][b[d]] for d in range(CMS_DEPTH)]), axis=0
    ).astype(np.int64)
