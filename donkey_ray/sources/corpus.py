"""Corpus sources / adapters (SURVEY.md B1).

Reads prune columns at the Parquet scan (only the 5 corpus columns leave
storage) and validate the declared schema, failing fast on drift.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.dataset as pads
import ray
import ray.data

from .. import schemas

CORPUS_COLUMNS = [f.name for f in schemas.CORPUS]

# Smallest block a build-lifecycle read asks for. Each block costs a build
# ~45 ms of fixed task and exchange overhead (one CPU, 2000-doc corpus:
# 1 block 0.82 s, 8 blocks 1.14 s), and the build computes ~220 ms per
# on-disk MB, so a 4 MiB block spends under 5% of its wall on that
# overhead (derivation in SCALE.md "Read").
MIN_BLOCK_BYTES = 4 << 20


def blocks_for_bytes(input_bytes: int, cpus: int) -> int:
    """clamp(ceil(input_bytes / MIN_BLOCK_BYTES), 1, 2 x cpus)."""
    return max(1, min(2 * cpus, -(-input_bytes // MIN_BLOCK_BYTES)))


def read_block_count(paths: str | list[str]) -> int:
    """Block count for a build-lifecycle read of ``paths`` (a file, a
    directory or a file list): ``blocks_for_bytes`` of their on-disk
    bytes on this cluster's CPUs. The build's corpus and hot-sample
    reads, and the docs and segment reads of merge, compaction, prune
    and reshard, all size their blocks by it."""
    dset = pads.dataset(paths)
    input_bytes = sum(i.size for i in
                      dset.filesystem.get_file_info(dset.files))
    cpus = int(ray.cluster_resources().get("CPU", 4))
    return blocks_for_bytes(input_bytes, cpus)


def read_corpus(
    path: str,
    *,
    langs: list[str] | None = None,
    override_num_blocks: int | None = None,
) -> ray.data.Dataset:
    """Read a Parquet corpus (repo, path, commit, lang, content).

    Column pruning happens at the read; an optional lang filter is pushed
    into the scan (SURVEY.md B9/B10). The block count is
    ``override_num_blocks``, else ``read_block_count`` of the files.
    """
    frag = pads.dataset(path)
    schemas.validate(frag.schema, schemas.CORPUS, f"corpus at {path}")
    extra = [c for c in ("doc_id",) if c in frag.schema.names]
    kwargs = {}
    if langs:
        from pyarrow.dataset import field

        kwargs["filter"] = field("lang").isin(langs)
    if override_num_blocks is None:
        override_num_blocks = read_block_count(frag.files)
    return ray.data.read_parquet(path, columns=CORPUS_COLUMNS + extra,
                                 override_num_blocks=override_num_blocks,
                                 **kwargs)


def documents_as_corpus(
    sf_dir: str, *, content_col: str = "text",
    lang: str | None = None,
) -> ray.data.Dataset:
    """Adapt the driver's documents table (doc_id, text, lang, source,
    n_chars — TESTDATA.md) into the corpus shape, keeping its doc_id.

    Mapping (FIXTURES.md section 4): repo <- source, path <- str(doc_id),
    commit <- '' (ids come from the doc_id column), content <- text.
    ``content_col`` selects which column becomes the indexed content —
    per-FIELD indexes (e.g. over ``source``) reuse this adapter.
    ``lang`` restricts to one language AT THE READ (row-group predicate
    pushdown) — the per-lang index family's source.
    """
    import pyarrow.dataset as pads

    cols = ["doc_id", "text", "lang", "source"]
    if content_col not in cols:
        cols.append(content_col)
    kwargs = {}
    if lang is not None:
        kwargs["filter"] = pads.field("lang") == lang
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=cols, **kwargs)

    def adapt(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "repo": batch.column("source").cast(pa.string()),
                "path": batch.column("doc_id").cast(pa.string()),
                "commit": pa.array([""] * n, pa.string()),
                "lang": batch.column("lang").cast(pa.string()),
                "content": batch.column(content_col).cast(pa.string()),
                "doc_id": batch.column("doc_id").cast(pa.int64()),
            }
        )

    return ds.map_batches(adapt, batch_format="pyarrow", zero_copy_batch=True)


def read_corpus_jsonl(
    path: str,
    *,
    langs: list[str] | None = None,
    override_num_blocks: int | None = None,
) -> ray.data.Dataset:
    """Read a JSONL corpus (one object per line with the 5 corpus keys)
    into the corpus shape — the raw-ingest path for sources that haven't
    been parquet-ified yet (donkey's console batch-insert analogue,
    SURVEY.md A9). Ray's native JSON reader streams line-files per
    block, so this scales like the parquet path minus columnar pruning
    (JSON must parse whole objects — convert to parquet for reruns).
    Missing ``lang`` defaults to ''; extra keys are dropped; missing
    required keys fail fast."""
    kwargs = {}
    if override_num_blocks is not None:
        kwargs["override_num_blocks"] = override_num_blocks
    ds = ray.data.read_json(path, **kwargs)

    def adapt(batch: pa.Table) -> pa.Table:
        names = set(batch.column_names)
        missing = {"repo", "path", "commit", "content"} - names
        if missing:
            raise ValueError(f"jsonl corpus at {path} missing {missing}")
        n = batch.num_rows
        lang = (batch.column("lang").cast(pa.string()) if "lang" in names
                else pa.array([""] * n, pa.string()))
        return pa.table({
            "repo": batch.column("repo").cast(pa.string()),
            "path": batch.column("path").cast(pa.string()),
            "commit": batch.column("commit").cast(pa.string()),
            "lang": lang,
            "content": batch.column("content").cast(pa.string()),
        })

    out = ds.map_batches(adapt, batch_format="pyarrow", zero_copy_batch=True)
    if langs:
        allowed = set(langs)
        out = out.filter(lambda row: row["lang"] in allowed)
    return out


def read_corpus_text_dir(
    root: str,
    *,
    repo: str = "local",
    commit: str = "",
    lang_by_ext: dict[str, str] | None = None,
) -> ray.data.Dataset:
    """Read a directory tree of source files into the corpus shape —
    path <- file path relative to ``root``, content <- file text, lang
    from the extension map (default: py/rs/go/js/java/c/cpp/simple).
    The raw-files ingest surface (donkey extracts from files/URLs,
    SURVEY.md A1/A9); file listing is driver-side, reads are parallel
    tasks via ray.data.read_binary_files(include_paths=True)."""
    import os

    ext_map = lang_by_ext or {
        ".py": "python", ".rs": "rust", ".go": "go", ".js": "js",
        ".java": "java", ".c": "c", ".cpp": "cpp", ".h": "c",
    }
    root = os.path.abspath(root)
    ds = ray.data.read_binary_files(root, include_paths=True)

    def adapt(batch: pa.Table) -> pa.Table:
        paths = [os.path.relpath(p, root)
                 for p in batch.column("path").to_pylist()]
        texts = [b.decode("utf-8", errors="replace")
                 for b in batch.column("bytes").to_pylist()]
        langs = [ext_map.get(os.path.splitext(p)[1], "simple")
                 for p in paths]
        n = len(paths)
        return pa.table({
            "repo": pa.array([repo] * n, pa.string()),
            "path": pa.array(paths, pa.string()),
            "commit": pa.array([commit] * n, pa.string()),
            "lang": pa.array(langs, pa.string()),
            "content": pa.array(texts, pa.string()),
        })

    return ds.map_batches(adapt, batch_format="pyarrow", zero_copy_batch=True)
