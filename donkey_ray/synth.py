"""Deterministic synthetic corpus + query generators (FIXTURES.md).

Seeded, self-contained, byte-stable: same seed -> byte-identical Parquet
(fixed row-group size, no timestamps). The Zipf(s=1.2) identifier
vocabulary plus a ~100%-df ``common_token`` guarantee the skew/salting
path (SURVEY.md B18) is exercised.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

LANGS = ["py", "c", "cpp", "java", "js"]
_LANG_W = np.array([0.35, 0.15, 0.15, 0.2, 0.15])
_EXT = {"py": "py", "c": "c", "cpp": "cc", "java": "java", "js": "js"}
_KW = {
    "py": ["return", "if", "for", "def", "class", "import", "while", "else"],
    "c": ["return", "if", "for", "int", "char", "while", "else", "struct"],
    "cpp": ["return", "if", "for", "int", "void", "while", "else", "template"],
    "java": ["return", "if", "for", "int", "public", "while", "else", "static"],
    "js": ["return", "if", "for", "var", "function", "while", "else", "const"],
}
_WORDS = [
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel",
    "india", "juliet", "kilo", "lima", "mike", "november", "oscar", "papa",
    "quebec", "romeo", "sierra", "tango", "uniform", "victor", "whiskey",
    "xray", "yankee", "zulu", "amber", "basil", "cedar", "dune", "ember",
    "flint", "grove", "haze", "iris", "jade", "kelp", "lotus", "maple",
    "nectar", "onyx", "pearl", "quartz", "reed", "slate", "topaz", "umber",
    "violet", "willow", "xenon", "yarrow", "zephyr", "anvil", "beacon",
    "cobalt", "drift", "eddy", "fjord", "glyph", "harbor", "inlet", "jetty",
    "knoll", "ledge",
]
VOCAB_SIZE = 5000
ZIPF_S = 1.2
COMMON_TOKEN = "commontoken"  # appears in ~100% of docs (no '_' so the
# code tokenizer keeps it whole — a single maximal-df term)


def _vocab() -> list[str]:
    return [f"id{w}{i}" for i, w in enumerate(
        np.tile(_WORDS, VOCAB_SIZE // len(_WORDS) + 1)[:VOCAB_SIZE]
    )]


def _zipf_probs(n: int, s: float) -> np.ndarray:
    p = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), s)
    return p / p.sum()


def make_corpus(n_rows: int, seed: int = 42, lines_lo: int = 5, lines_hi: int = 40) -> pa.Table:
    """Generate the corpus table in the authoritative input shape."""
    rng = np.random.default_rng(seed)
    vocab = np.asarray(_vocab())
    probs = _zipf_probs(VOCAB_SIZE, ZIPF_S)

    langs = rng.choice(len(LANGS), size=n_rows, p=_LANG_W)
    repos, paths, commits, lang_col, contents = [], [], [], [], []
    seen = set()
    for i in range(n_rows):
        lang = LANGS[langs[i]]
        repo = f"org{i % 7}/repo{i % 23}"
        w1 = _WORDS[int(rng.integers(len(_WORDS)))]
        w2 = _WORDS[int(rng.integers(len(_WORDS)))]
        path = f"src/{w1}/{w2}_{i}.{_EXT[lang]}"
        key = (repo, path)
        assert key not in seen, "uniqueness key violated"
        seen.add(key)
        commit = hashlib.sha1(f"{repo}:{path}:{seed}".encode()).hexdigest()
        n_lines = int(rng.integers(lines_lo, lines_hi + 1))
        kws = _KW[lang]
        idents = vocab[rng.choice(VOCAB_SIZE, size=3 * n_lines, p=probs)]
        nums = rng.integers(0, 1000, size=n_lines)
        lines = [
            f"{kws[j % len(kws)]} {idents[3*j]} = {idents[3*j+1]}({idents[3*j+2]}, {nums[j]});"
            for j in range(n_lines)
        ]
        lines.append(f"{kws[0]} {COMMON_TOKEN};")
        repos.append(repo)
        paths.append(path)
        commits.append(commit)
        lang_col.append(lang)
        contents.append("\n".join(lines))
    return pa.table(
        {
            "repo": pa.array(repos, pa.string()),
            "path": pa.array(paths, pa.string()),
            "commit": pa.array(commits, pa.string()),
            "lang": pa.array(lang_col, pa.string()),
            "content": pa.array(contents, pa.string()),
        }
    )


def _corpus_rows_for_indices(
    idx, seed: int, lines_lo: int, lines_hi: int
) -> pa.Table:
    """Rows for specific doc indices — deterministic per (seed, i), so
    generation parallelizes over index ranges with identical output
    regardless of batching (used by the Ray-parallel bench generator)."""
    vocab = np.asarray(_vocab())
    probs = _zipf_probs(VOCAB_SIZE, ZIPF_S)
    cum = np.cumsum(probs)
    repos, paths, commits, lang_col, contents = [], [], [], [], []
    for i in idx:
        i = int(i)
        rng = np.random.default_rng((seed, i))
        lang = LANGS[int(rng.integers(len(LANGS)))]
        repo = f"org{i % 7}/repo{i % 23}"
        w1 = _WORDS[int(rng.integers(len(_WORDS)))]
        w2 = _WORDS[int(rng.integers(len(_WORDS)))]
        path = f"src/{w1}/{w2}_{i}.{_EXT[lang]}"
        commit = hashlib.sha1(f"{repo}:{path}:{seed}".encode()).hexdigest()
        n_lines = int(rng.integers(lines_lo, lines_hi + 1))
        kws = _KW[lang]
        idents = vocab[np.searchsorted(cum, rng.random(3 * n_lines))]
        nums = rng.integers(0, 1000, size=n_lines)
        lines = [
            f"{kws[j % len(kws)]} {idents[3*j]} = {idents[3*j+1]}({idents[3*j+2]}, {nums[j]});"
            for j in range(n_lines)
        ]
        lines.append(f"{kws[0]} {COMMON_TOKEN};")
        repos.append(repo)
        paths.append(path)
        commits.append(commit)
        lang_col.append(lang)
        contents.append("\n".join(lines))
    return pa.table(
        {
            "repo": pa.array(repos, pa.string()),
            "path": pa.array(paths, pa.string()),
            "commit": pa.array(commits, pa.string()),
            "lang": pa.array(lang_col, pa.string()),
            "content": pa.array(contents, pa.string()),
        }
    )


def generate_corpus_parquet(
    n_rows: int,
    out_path: str,
    *,
    seed: int = 42,
    lines_lo: int = 30,
    lines_hi: int = 60,
    override_num_blocks: int | None = None,
) -> str:
    """Ray-parallel deterministic corpus generation to a Parquet directory
    (bench scale; driver-side make_corpus is the small-fixture path)."""
    import ray
    import ray.data

    if override_num_blocks is None:
        cpus = int(ray.cluster_resources().get("CPU", 4))
        override_num_blocks = max(2 * cpus, 8)

    def gen(batch) -> pa.Table:
        return _corpus_rows_for_indices(batch["id"], seed, lines_lo, lines_hi)

    (
        ray.data.range(n_rows, override_num_blocks=override_num_blocks)
        .map_batches(gen, batch_format="numpy", batch_size=4096)
        .write_parquet(out_path)
    )
    return out_path


def make_queries(n: int = 200, seed: int = 42) -> pa.Table:
    """Pinned query mix (FIXTURES.md section 2): 1-term common, 1-term rare,
    2-4-term conjunctions, absent term, duplicate-term."""
    rng = np.random.default_rng(seed + 1)
    vocab = _vocab()
    texts = []
    for i in range(n):
        kind = i % 5
        if kind == 0:
            texts.append(rng.choice(["return", "if", COMMON_TOKEN, "for"]))
        elif kind == 1:
            texts.append(vocab[int(rng.integers(VOCAB_SIZE // 2, VOCAB_SIZE))])
        elif kind == 2:
            m = int(rng.integers(2, 5))
            texts.append(" ".join(vocab[j] for j in rng.integers(0, VOCAB_SIZE, size=m)))
        elif kind == 3:
            texts.append(f"absentterm{i}xq")
        else:
            t = vocab[int(rng.integers(0, 200))]
            texts.append(f"{t} {t}")
    return pa.table(
        {
            "query_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array([str(t) for t in texts], pa.string()),
            "k": pa.array([10 if i % 2 == 0 else 100 for i in range(n)], pa.int32()),
        }
    )
