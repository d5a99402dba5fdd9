"""Deterministic hashing: doc ids, content digests, partition routing.

All hashes are process-independent (no Python hash()) so that retries,
resumes and different cluster sizes produce identical results
(SURVEY.md B6/B25 and section 4 'Ordering').
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

_MASK63 = (1 << 63) - 1


def doc_id_from_key(repo: str, path: str, commit: str) -> int:
    """Deterministic global int64 doc_id from the corpus uniqueness key
    (repo, path, commit) — order-independent, no global pass (SURVEY.md B6)."""
    h = hashlib.sha256()
    h.update(repo.encode())
    h.update(b"\x00")
    h.update(path.encode())
    h.update(b"\x00")
    h.update(commit.encode())
    return int.from_bytes(h.digest()[:8], "big") & _MASK63


def sha256_hex_column(col: pa.Array) -> pa.Array:
    """sha256 hex digest per string value (hashlib loop; C-speed digest)."""
    return pa.array(
        [None if v is None else hashlib.sha256(v.encode()).hexdigest()
         for v in col.to_pylist()],
        type=pa.string(),
    )


def stable_term_hash(term: str) -> int:
    """64-bit stable hash for term -> partition routing (blake2b)."""
    return int.from_bytes(
        hashlib.blake2b(term.encode(), digest_size=8).digest(), "big"
    )


def term_partition(term: str, num_partitions: int) -> int:
    return stable_term_hash(term) % num_partitions


def salted_parts(term: str, num_partitions: int, salt_bits: int) -> list[int]:
    """Every partition a hot term's salted runs can land in (the query-side
    inverse of the extractor's salt routing table) — sorted, deduplicated."""
    parts = set()
    for salt in range(1 << salt_bits):
        parts.add(
            int.from_bytes(
                hashlib.blake2b(
                    term.encode() + b"#" + salt.to_bytes(8, "big"), digest_size=8
                ).digest(),
                "big",
            ) % num_partitions
        )
    return sorted(parts)


def splitmix64(values: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 mix of uint64 values (the engine's pinned
    deterministic-randomness primitive; the DuckDB oracle mirrors it with
    HUGEINT limb arithmetic)."""
    z = np.asarray(values, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def deterministic_sample_mask(doc_ids: np.ndarray, mod: int) -> np.ndarray:
    """Fully deterministic ~1/mod sample by doc_id (SURVEY.md B22);
    splitmix64-mixed so low-bit patterns in ids don't bias the sample."""
    return (splitmix64(doc_ids) % np.uint64(mod)) == 0
