"""Deterministic hashing: doc ids, content digests, term -> partition
routing.

All hashes are process-independent (no Python hash()) so that retries,
resumes and different cluster sizes produce identical results
(SURVEY.md B6/B25 and section 4 'Ordering').
"""

from __future__ import annotations

import functools
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


def doc_ids_for_batch(batch: pa.Table, id_col: str | None) -> np.ndarray:
    """Per-row int64 doc_id of a corpus batch: its ``id_col`` column when
    the batch has one, else ``doc_id_from_key`` of each row's
    (repo, path, commit)."""
    if id_col and id_col in batch.column_names:
        return batch.column(id_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
    return np.fromiter(
        map(doc_id_from_key, batch.column("repo").to_pylist(),
            batch.column("path").to_pylist(),
            batch.column("commit").to_pylist()),
        dtype=np.int64, count=batch.num_rows)


# ---- term -> partition routing (SURVEY.md B12/B17/B18): the ONE rule
# of every index writer (build, merge, prune) and of the query engine.
# A term lives in its home partition blake2b(term) % P; a hot term's
# postings are salted by the TOP ``salt_bits`` bits s of doc_id into
# blake2b(term#s) % P, so each salted run covers a contiguous doc range.


def _route(key: bytes, num_partitions: int) -> int:
    return int.from_bytes(
        hashlib.blake2b(key, digest_size=8).digest(), "big") % num_partitions


@functools.lru_cache(maxsize=1 << 21)
def term_partition(term: str, num_partitions: int) -> int:
    """A term's home partition; cached per process (build throughput
    depends on it)."""
    return _route(term.encode(), num_partitions)


@functools.lru_cache(maxsize=1 << 16)
def salt_table(term: str, num_partitions: int, salt_bits: int) -> np.ndarray:
    """A hot term's partition per salt s = doc_id >> (63 - salt_bits)."""
    table = np.array([_route(term.encode() + b"#" + s.to_bytes(8, "big"),
                             num_partitions)
                      for s in range(1 << salt_bits)], dtype=np.int32)
    table.flags.writeable = False
    return table


def salted_parts(term: str, num_partitions: int, salt_bits: int) -> list[int]:
    """The sorted distinct partitions a hot term's salted runs can hit."""
    return sorted(set(salt_table(term, num_partitions, salt_bits).tolist()))


def candidate_parts(term: str, num_partitions: int, hot_terms,
                    salt_bits: int) -> list[int]:
    """The partitions that can hold ``term`` in an index written with
    this hot set — the read-side inverse of ``partition_column``."""
    if term in hot_terms:
        return salted_parts(term, num_partitions, salt_bits)
    return [term_partition(term, num_partitions)]


def partition_column(terms: pa.Array | pa.ChunkedArray, doc_ids: np.ndarray,
                     num_partitions: int, hot_terms=frozenset(),
                     salt_bits: int = 4) -> np.ndarray:
    """The int32 ``part`` per posting row, hashed once per distinct term."""
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    enc = terms.dictionary_encode()
    uniq, codes = enc.dictionary.to_pylist(), enc.indices.to_numpy()
    part = np.fromiter((term_partition(t, num_partitions) for t in uniq),
                       dtype=np.int32, count=len(uniq))[codes]
    if hot_terms:  # a set
        salts = np.asarray(doc_ids, dtype=np.int64) >> (63 - salt_bits)
        for j in [j for j, t in enumerate(uniq) if t in hot_terms]:
            m = codes == j
            part[m] = salt_table(uniq[j], num_partitions, salt_bits)[salts[m]]
    return part


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
