"""Declared Arrow schemas for every logical table (SURVEY.md section 1.2).

Donkey's schema is fixed at compile time by the plugin's Object struct
([PK], src/donkey.h — see SURVEY.md section 0); ours is fixed by these
module-level pyarrow.Schema constants, validated on read (fail fast).
"""

from __future__ import annotations

import pyarrow as pa

# Authoritative input shape (BASELINE.json input_hint)
CORPUS = pa.schema(
    [
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("content", pa.string()),
    ]
)

# Derived doc table (content replaced by its sha256; dl lives in postings)
DOCS = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("content_sha256", pa.string()),  # hex
        ("n_chars", pa.int64()),
    ]
)

# Exploded postings (pre-shuffle intermediate)
POSTINGS = pa.schema(
    [
        ("term", pa.string()),
        ("doc_id", pa.int64()),
        ("tf", pa.int32()),
        ("dl", pa.int32()),
        ("part", pa.int32()),
    ]
)

# On-disk index segment row (one row per (term-run) within a partition).
# doc_ids: delta+varbyte with the delta RESET at each 128-posting block
# (first value of a block is absolute), so any block decodes on its own;
# tfs/dls: varbyte. block_*: per-block block-max metadata + byte offsets
# (len n_blocks+1) enabling lazy per-block decode in block-max WAND.
SEGMENT = pa.schema(
    [
        ("term", pa.string()),
        ("df", pa.int64()),
        ("doc_ids", pa.binary()),
        ("tfs", pa.binary()),
        ("dls", pa.binary()),
        ("block_last_doc", pa.list_(pa.int64())),
        ("block_max_tf", pa.list_(pa.int32())),
        ("block_min_dl", pa.list_(pa.int32())),
        ("block_doc_boff", pa.list_(pa.int64())),
        ("block_tf_boff", pa.list_(pa.int64())),
        ("block_dl_boff", pa.list_(pa.int64())),
    ]
)

QUERIES = pa.schema(
    [
        ("query_id", pa.int64()),
        ("text", pa.string()),
        ("k", pa.int32()),
    ]
)

RESULTS = pa.schema(
    [
        ("query_id", pa.int64()),
        ("rank", pa.int32()),
        ("doc_id", pa.int64()),
        ("score", pa.float64()),
    ]
)

BLOCK_SIZE = 128  # postings per block-max block (SURVEY.md section 7 step 4)
# index artifact generation (meta.json ``format_version``); v3 added the
# docs ``doc_len`` column and meta ``lang_stats``
FORMAT_VERSION = 3


def validate(table_schema: pa.Schema, expected: pa.Schema, what: str) -> None:
    """Fail fast on schema drift; extra columns are allowed, missing/
    mistyped are not."""
    for field in expected:
        got = table_schema.field(field.name) if field.name in table_schema.names else None
        if got is None:
            raise ValueError(f"{what}: missing column {field.name!r}; have {table_schema.names}")
        if got.type != field.type:
            raise ValueError(
                f"{what}: column {field.name!r} has type {got.type}, expected {field.type}"
            )
