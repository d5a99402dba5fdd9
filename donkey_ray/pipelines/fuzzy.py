"""Fuzzy (edit-distance-1) term matching over the index dictionary.

A hash-sharded dictionary cannot route "terms within edit distance 1 of
q", so fuzzy matching gets its own derived artifact: a TRIGRAM INDEX
mapping padded character 3-grams to dictionary terms, built once from
the segment term columns (term-column reads only — no posting bytes)
through one keyed exchange, written as gram-sorted parquet partitions.

Candidate generation is provably complete for max_edit=1 under the
padded-trigram scheme (grams of '^term$'):

- a term of length L has L padded grams; one edit (substitution,
  insertion or deletion) modifies a window of at most 3 consecutive
  grams and leaves every gram outside the window byte-identical, so for
  L >= 4 at least one shared gram survives between q and any t' with
  lev(q, t') <= 1;
- the only escapes are terms of length <= 3 (an interior substitution
  can destroy all 3 grams), so ALL dictionary terms of length <= 3 are
  kept in a separate short-terms file (bounded: the <=3-char token
  space) and always verified.

Candidates = (terms sharing >= 1 padded trigram with q, fetched by
gram-pruned parquet reads) UNION (the short-terms file); each candidate
is verified with exact Levenshtein. Query cost is O(candidate terms),
never O(vocabulary); artifact size is O(vocabulary x avg term length),
partitioned like everything else.

SQL mirror: DuckDB ``levenshtein(term, q) <= 1`` over the term-df CTE,
scored with the ordinary disjunctive BM25 over the matched expansion
(the prefix_topk pattern).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..state import manifest as mf

SHORT_LEN = 3  # terms this short skip the trigram route entirely


def padded_trigrams(term: str) -> list[str]:
    s = f"^{term}$"
    if len(s) < 3:
        return [s]
    return [s[i: i + 3] for i in range(len(s) - 2)]


def levenshtein1(a: str, b: str) -> bool:
    """Exact lev(a, b) <= 1 (banded check — O(len))."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # la <= lb <= la + 1
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    if i == la:
        return True  # equal or one trailing insert
    if la == lb:
        return a[i + 1:] == b[i + 1:]  # one substitution
    return a[i:] == b[i + 1:]  # one deletion from b


def trigram_dir(index_dir: str) -> str:
    return os.path.join(index_dir, "trigram")


def build_trigram_index(index_dir: str) -> str:
    """Build (once; marker-resumable) the trigram artifact for an index:
    trigram/part-*.parquet (gram, term) sorted by gram (row-group stats
    give pruned reads), plus trigram/short_terms.parquet (len <= 3)."""
    import pyarrow.parquet as pq

    from ..stages.exchange import keyed_partition_map

    out = trigram_dir(index_dir)
    marker = os.path.join(out, "_DONE")
    if os.path.exists(marker):
        return out
    import shutil

    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out, exist_ok=True)
    meta = mf.load_meta(index_dir)
    parts = sorted(int(p) for p in meta["parts_built"])

    def read_terms(batch: pa.Table) -> pa.Table:
        cols = {"term": []}
        for part in batch.column("part").to_pylist():
            path = mf.segment_path(index_dir, int(part))
            cols["term"].append(
                pq.read_table(path, columns=["term"]).column("term")
            )
        return pa.table({"term": pa.concat_arrays(
            [c.combine_chunks() for c in cols["term"]]
        )})

    terms_ds = (
        ray.data.from_items([{"part": p} for p in parts])
        .map_batches(read_terms, batch_format="pyarrow", batch_size=1)
    )

    def explode(batch: pa.Table) -> pa.Table:
        terms = batch.column("term").to_pylist()
        grams: list[str] = []
        out_terms: list[str] = []
        for t in terms:
            for g in padded_trigrams(t):
                grams.append(g)
                out_terms.append(t)
        return pa.table(
            {"gram": pa.array(grams, pa.string()),
             "term": pa.array(out_terms, pa.string())}
        )

    exploded = terms_ds.map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True
    )

    def write_part(part: pa.Table) -> pa.Table:
        if part.num_rows == 0:
            return pa.table({"rows": pa.array([0], pa.int64())})
        # distinct (a hot salted term appears in several segments) and
        # gram-sorted so parquet row-group stats prune lookups
        d = part.group_by(["gram", "term"], use_threads=False).aggregate([])
        d = d.sort_by([("gram", "ascending"), ("term", "ascending")])
        import uuid

        name = f"part-{uuid.uuid4().hex[:12]}.parquet"
        tmp = os.path.join(out, "." + name)
        pq.write_table(d, tmp, row_group_size=4096)
        os.rename(tmp, os.path.join(out, name))
        return pa.table({"rows": pa.array([d.num_rows], pa.int64())})

    write_part.__name__ = "trigram_write"
    total = sum(
        r["rows"]
        for r in keyed_partition_map(exploded, ["gram"], write_part).take_all()
    )

    # short terms: bounded side file, always included in candidates
    short = (
        terms_ds.map_batches(
            lambda b: b.filter(
                pc.less_equal(pc.utf8_length(b.column("term")), SHORT_LEN)
            ),
            batch_format="pyarrow",
        )
        .take_all()
    )
    short_terms = sorted({r["term"] for r in short})
    pq.write_table(
        pa.table({"term": pa.array(short_terms, pa.string())}),
        os.path.join(out, "short_terms.parquet"),
    )
    mf.atomic_write_json(
        os.path.join(out, "meta.json"),
        {"rows": int(total), "n_short": len(short_terms)},
    )
    mf.atomic_write_bytes(marker, b"")
    return out


def expand_fuzzy(index_dir: str, term: str, *, max_candidates: int = 100_000) -> list[str]:
    """All dictionary terms within edit distance 1 of ``term`` (sorted).
    Gram-pruned parquet reads + the short-terms file, then exact
    verification — complete for max_edit=1 (see module docstring)."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    out = build_trigram_index(index_dir)
    grams = padded_trigrams(term)
    files = [os.path.join(out, f) for f in sorted(os.listdir(out))
             if f.startswith("part-")]
    cand: set[str] = set()
    if files:
        hits = pads.dataset(files).to_table(
            columns=["term"],
            filter=pads.field("gram").isin(grams),
        )
        cand.update(hits.column("term").to_pylist())
    if len(cand) > max_candidates:
        raise ValueError(
            f"fuzzy expansion of {term!r} produced more than "
            f"{max_candidates} trigram candidates"
        )
    cand.update(
        pq.read_table(os.path.join(out, "short_terms.parquet"))
        .column("term").to_pylist()
    )
    return sorted(t for t in cand if levenshtein1(term, t))


def fuzzy_topk(
    index_dirs: str | list[str], text: str, k: int, *,
    max_candidates: int = 100_000,
) -> list[tuple[int, float]]:
    """Fuzzy top-k: every query term expands to its edit-distance-1
    dictionary matches; ordinary disjunctive BM25 over the union of the
    expansions (each matched term contributes with its own global df,
    exactly as if the user had typed all matched terms).

    FEDERATED: pass a list of index dirs (e.g. base + delta indexes
    before compaction) and each member keeps its OWN trigram artifact —
    expansion unions the per-member candidate sets, scoring runs through
    the federated QueryEngine (dfs and corpus stats combined across
    members), so fuzzy serving never requires a merged dictionary."""
    from ..stages.score import QueryEngine

    dirs = [index_dirs] if isinstance(index_dirs, str) else list(index_dirs)
    eng = QueryEngine(dirs)
    matched: set[str] = set()
    for t in sorted(set(eng._tok.tokenize(text))):
        for d in dirs:
            matched.update(expand_fuzzy(d, t, max_candidates=max_candidates))
    return eng.terms_topk(sorted(matched), k)


def expand_substring(
    index_dir: str, s: str, where: str, *, max_candidates: int = 100_000
) -> list[str]:
    """All dictionary terms with ``s`` as a suffix (``where='suffix'``) or
    substring (``where='contains'``) — the leading-wildcard expansions a
    hash-sharded dictionary cannot route, answered from the SAME trigram
    artifact fuzzy matching uses (no extra build pass).

    Completeness: a match's padded form ``^term$`` contains the probe
    string (``s + '$'`` for suffix, ``s`` for contains) as a contiguous
    substring, so every 3-char window of the probe is a padded trigram of
    the term — one window probed via gram-pruned reads finds every match.
    Probes shorter than 3 chars fall back to a substring scan over the
    gram column, which is vocabulary-sized (never posting-sized) and
    still ``max_candidates``-guarded. Terms of length <= SHORT_LEN live
    in the short-terms side file and are always verified."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    if where not in ("suffix", "contains"):
        raise ValueError(f"where must be 'suffix' or 'contains': {where!r}")
    if not s:
        raise ValueError("empty wildcard core")
    out = build_trigram_index(index_dir)
    probe = s + "$" if where == "suffix" else s
    files = [os.path.join(out, f) for f in sorted(os.listdir(out))
             if f.startswith("part-")]
    cand: set[str] = set()
    if files:
        if len(probe) >= 3:
            # one necessary window; the '$'-anchored window is the most
            # selective for suffixes, any window works for contains
            gram = probe[-3:] if where == "suffix" else probe[:3]
            hits = pads.dataset(files).to_table(
                columns=["term"], filter=pads.field("gram") == gram,
            )
            cand.update(hits.column("term").to_pylist())
        else:
            t = pads.dataset(files).to_table(columns=["gram", "term"])
            mask = pc.match_substring(t.column("gram"), probe)
            cand.update(t.filter(mask).column("term").to_pylist())
    if len(cand) > max_candidates:
        raise ValueError(
            f"wildcard {s!r} ({where}) produced more than "
            f"{max_candidates} trigram candidates"
        )
    cand.update(
        pq.read_table(os.path.join(out, "short_terms.parquet"))
        .column("term").to_pylist()
    )
    ok = (lambda t: t.endswith(s)) if where == "suffix" else (lambda t: s in t)
    return sorted(t for t in cand if ok(t))


def wildcard_topk(
    index_dirs: str | list[str], pattern: str, k: int, *,
    max_candidates: int = 100_000, max_terms: int = 4096,
) -> list[tuple[int, float]]:
    """General wildcard top-k: ``pre*`` (sharded-dictionary range scan),
    ``*suf`` / ``*mid*`` (trigram-artifact expansion, above), or a plain
    term. The expansion scores as ordinary disjunctive BM25 — each
    matched term contributes with its own global df, exactly as if the
    user had typed every matched term. Federated like fuzzy_topk: each
    member index keeps its own trigram artifact and expansions union."""
    from ..stages.score import QueryEngine

    dirs = [index_dirs] if isinstance(index_dirs, str) else list(index_dirs)
    eng = QueryEngine(dirs)
    lead, trail = pattern.startswith("*"), pattern.endswith("*")
    core = pattern.strip("*")
    toks = eng._tok.tokenize(core)
    if len(toks) != 1:
        raise ValueError(
            f"wildcard core must normalize to one term: {pattern!r} -> {toks}"
        )
    s = toks[0]
    if not lead and not trail:
        matched = {s}
    elif trail and not lead:
        matched = set(eng.expand_prefix(s, max_terms=max_terms))
    else:
        where = "contains" if trail else "suffix"
        matched = set()
        for d in dirs:
            matched.update(expand_substring(
                d, s, where, max_candidates=max_candidates))
    return eng.terms_topk(sorted(matched), k)
