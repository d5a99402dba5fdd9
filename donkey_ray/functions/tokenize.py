"""Per-language tokenizers + registry (SURVEY.md B12, B24).

This is the engine's user-extension surface — the analogue of donkey's
compile-time Extractor plugin specialization (src/donkey.h, [PK] file-level,
see SURVEY.md section 0): ``register_tokenizer(lang, factory)`` plugs a new
language in at runtime.

Pinned tokenization spec (oracle and engine share this module):

* ``SimpleTokenizer`` (natural text: en/es/zh/fr/de and unknown langs):
  lowercase, then maximal runs of ``[a-z0-9]+``. SQL equivalent (used by
  the DuckDB oracles): ``regexp_extract_all(lower(text), '[a-z0-9]+')``.

* ``CodeTokenizer`` (source code: py/c/cpp/java/js/go/rs/...):
  extract identifiers ``[A-Za-z_][A-Za-z0-9_]*`` and integer literals
  ``[0-9]+``; split identifiers on '_' and on camelCase boundaries;
  lowercase all parts; drop empties. Keywords are ordinary identifiers
  (they survive as-is, e.g. ``return``, ``if``).

Both return the token sequence in document order (duplicates preserved);
document length dl = len(tokens).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_SIMPLE_RE = re.compile(r"[a-z0-9]+")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+")
# camelCase splitter: ACRONYMTail | Capitalized/lower runs | digit runs
_CAMEL_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")


class SimpleTokenizer:
    """Whitespace/punct tokenizer for natural-language text."""

    name = "simple"

    def tokenize(self, text: str) -> list[str]:
        if text.isascii():
            return _SIMPLE_RE.findall(text.lower())
        # non-ASCII: Python str.lower() is a FULL Unicode mapping
        # ('İ' -> 'i' + combining dot) while Arrow and DuckDB — the
        # oracle spec — use simple mappings ('İ' -> 'i'); delegate to
        # the column kernel so query-side terms match index-side terms
        flat, _parents, _dl = self.tokenize_column(
            pa.array([text], pa.string()))
        return flat.to_pylist()

    def tokenize_column(self, col: pa.Array) -> tuple[pa.Array, np.ndarray]:
        """Vectorized column path: returns (list<string> tokens, dl int64).

        Uses Arrow kernels (utf8_lower + split_pattern_regex) — zero Python
        per-row work. Equivalent to tokenize() per row.
        """
        lower = pc.utf8_lower(col)
        toks = pc.split_pattern_regex(lower, "[^a-z0-9]+")
        # splitting leaves '' at boundaries; drop them
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        keep = pc.not_equal(flat, "")
        flat = flat.filter(keep)
        parents = parents[keep.to_numpy(zero_copy_only=False)]
        dl = np.bincount(parents, minlength=len(col)).astype(np.int64)
        return flat, parents, dl


class CodeTokenizer:
    """Identifier-splitting tokenizer for source code."""

    name = "code"

    def tokenize(self, text: str) -> list[str]:
        out: list[str] = []
        for ident in _IDENT_RE.findall(text):
            if "_" in ident:
                for part in ident.split("_"):
                    if part:
                        out.extend(m.lower() for m in _CAMEL_RE.findall(part))
            else:
                out.extend(m.lower() for m in _CAMEL_RE.findall(ident))
        return out

    # Vectorized equivalent of tokenize(): instead of extracting
    # identifiers and camel-splitting per row, INSERT a space at every
    # token boundary with four anchored RE2 passes over the whole column,
    # then reuse the simple lower+split path. Pass order matters:
    #   D. a digit run that STARTS a token (preceded by start-of-string or
    #      a non-identifier char — NOT '_' or a letter) followed by a
    #      letter splits ("14foo" -> "14 foo" but "foo2bar" stays);
    #      runs FIRST so later passes' inserted spaces can't create
    #      new "token-initial digit" contexts ("HTTP2foo" keeps "2foo").
    #   B. acronym before a Capitalized word ("ABCDef" -> "ABC Def")
    #   A. lower/digit before upper ("getH" -> "get H")
    #   C. upper before digit ("HTTP2" -> "HTTP 2"; "Ab2" untouched
    #      because 'b2' is lower-digit)
    # Equality with the per-row twin is property-tested over the synth
    # corpus and adversarial identifiers (tests/test_tokenize.py).
    _COLUMN_RULES = [
        (r"(^|[^A-Za-z0-9_])([0-9]+)([A-Za-z])", r"\1\2 \3"),
        (r"([A-Z]+)([A-Z][a-z])", r"\1 \2"),
        (r"([a-z0-9])([A-Z])", r"\1 \2"),
        (r"([A-Z])([0-9])", r"\1 \2"),
    ]

    def tokenize_column(self, col: pa.Array):
        """Vectorized column path (4 boundary-insert RE2 passes + the
        Arrow lower/split kernels); token-identical to tokenize()."""
        out = col
        for pattern, replacement in self._COLUMN_RULES:
            out = pc.replace_substring_regex(
                out, pattern=pattern, replacement=replacement)
        # per-row twin splits identifiers on the RAW text with an ASCII
        # class, so every non-ASCII char is a separator; utf8_lower maps
        # some non-ASCII uppercase INTO ASCII (U+212A KELVIN -> 'k',
        # U+0130 -> 'i' + combining dot), which would glue tokens the
        # row path keeps apart — strip non-ASCII to spaces FIRST
        out = pc.replace_substring_regex(
            out, pattern=r"[^\x00-\x7F]+", replacement=" ")
        lower = pc.utf8_lower(out)
        toks = pc.split_pattern_regex(lower, "[^a-z0-9]+")
        flat = pc.list_flatten(toks)
        parents = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
        keep = pc.not_equal(flat, "")
        flat = flat.filter(keep)
        parents = parents[keep.to_numpy(zero_copy_only=False)]
        dl = np.bincount(parents, minlength=len(col)).astype(np.int64)
        return flat, parents, dl


# ---------------------------------------------------------------- stemming
#
# Pinned S-STEMMER (Harman 1991's weak "S removal" stemmer), chosen over
# Porter because its three if/elif rules are expressible identically in
# RE2 on BOTH engines (Arrow replace_substring_regex and DuckDB
# regexp_replace), so the DuckDB oracle shares the spec verbatim:
#
#   1. ends in "ies" (not "eies"/"aies", >=2 chars before) -> "ies"->"y"
#      (so 4-letter words like "dies"/"ties" fall through to rule 2 —
#      pinned by the GOLDENS table; this matches the regex below, which
#      requires (.+[^ea]) = at least two preceding chars)
#   2. ends in "es"  (not "aes"/"ees"/"oes", >=2 chars before) -> drop "s"
#   3. ends in "s"   (not "us"/"ss", >=2 chars before)         -> drop "s"
#
# Applied as three SEQUENTIAL anchored regex replaces: rule 1's output
# ends in "y" and rule 2's in "e", so a later rule can never re-fire on
# an earlier rule's output — sequential application IS if/elif.
_STEM_RULES: list[tuple[str, str]] = [
    (r"(.+[^ea])ies$", r"\1y"),
    (r"(.+[^aeo])es$", r"\1e"),
    (r"(.+[^us])s$", r"\1"),
]

_STEM_RES = [(re.compile(p), r.replace("\\1", "\\g<1>")) for p, r in _STEM_RULES]


def s_stem(token: str) -> str:
    """Stem one lowercase token by the pinned s-stemmer rules."""
    for rx, rep in _STEM_RES:
        new = rx.sub(rep, token)
        if new != token:
            return new
    return token


def s_stem_array(arr: pa.Array) -> pa.Array:
    """Vectorized pinned s-stemmer over a string array (3 RE2 passes)."""
    for pattern, replacement in _STEM_RULES:
        arr = pc.replace_substring_regex(
            arr, pattern=pattern, replacement=replacement)
    return arr


def stem_sql(expr: str) -> str:
    """The SAME pinned rules as a DuckDB expression over ``expr`` — the
    single source the SQL oracles use (RE2 on both sides)."""
    for pattern, replacement in _STEM_RULES:
        rep = replacement.replace("\\1", r"\1")
        expr = f"regexp_replace({expr}, '{pattern}', '{rep}')"
    return expr


# ---------------------------------------------------------- accent folding
#
# Pinned Latin accent-fold map (applied AFTER lower(), so only lowercase
# forms are listed). 1:1 char mappings render to ONE DuckDB translate()
# call; the lone 1:2 mapping (sharp s -> "ss") is a separate replace on
# both sides. Characters outside the map stay non-[a-z0-9] and remain
# token separators, exactly as in the un-folded simple analyzer.
_FOLD_SRC = "àáâãäåèéêëìíîïòóôõöøùúûüýÿñçšžđ"
_FOLD_DST = "aaaaaaeeeeiiiioooooouuuuyyncszd"
assert len(_FOLD_SRC) == len(_FOLD_DST)
_FOLD_TABLE = str.maketrans(_FOLD_SRC, _FOLD_DST)


def fold_text(text: str) -> str:
    """lower + pinned accent fold of one string (row twin of the
    vectorized column path)."""
    return text.lower().replace("ß", "ss").translate(_FOLD_TABLE)


def fold_column(col: pa.Array) -> pa.Array:
    """Vectorized pinned fold: utf8_lower, sharp-s expansion, then one
    replace per mapped char (each a C-level Arrow kernel pass)."""
    out = pc.utf8_lower(col)
    out = pc.replace_substring(out, pattern="ß", replacement="ss")
    for s, d in zip(_FOLD_SRC, _FOLD_DST):
        out = pc.replace_substring(out, pattern=s, replacement=d)
    return out


def fold_sql(expr: str) -> str:
    """The SAME pinned fold as a DuckDB expression (translate is 1:1, so
    the sharp s goes through replace) — the source the oracles use."""
    return (f"translate(replace(lower({expr}), 'ß', 'ss'), "
            f"'{_FOLD_SRC}', '{_FOLD_DST}')")


class FoldTokenizer(SimpleTokenizer):
    """SimpleTokenizer over accent-folded text (query_lang='fold'):
    'résumé' and 'resume' index and query as the same term."""

    name = "fold"

    def tokenize(self, text: str) -> list[str]:
        return _SIMPLE_RE.findall(fold_text(text))

    def tokenize_column(self, col: pa.Array):
        return super().tokenize_column(fold_column(col))


class StemTokenizer(SimpleTokenizer):
    """SimpleTokenizer + the pinned s-stemmer on every token. Index and
    query sides share this class (via query_lang='stem'), so plural
    queries match singular documents and vice versa."""

    name = "stem"

    def tokenize(self, text: str) -> list[str]:
        return [s_stem(t) for t in super().tokenize(text)]

    def tokenize_column(self, col: pa.Array):
        flat, parents, dl = super().tokenize_column(col)
        return s_stem_array(flat), parents, dl


# Pinned stopword list (query_lang='stop'): the classic tiny closed-class
# set, frozen so the engine and the DuckDB oracle share one source.
# Distinct from functions/textstats.STOPWORDS (the quality-score ratio's
# pinned 6-word list) — the two specs are versioned independently.
STOPWORDS: frozenset[str] = frozenset(
    {"the", "a", "an", "and", "or", "of", "to", "in", "is", "it"}
)


def stop_sql_list() -> str:
    """The stopword set as a DuckDB list literal (sorted, deterministic)."""
    return "[" + ",".join(f"'{w}'" for w in sorted(STOPWORDS)) + "]"


class StopTokenizer(SimpleTokenizer):
    """SimpleTokenizer minus the pinned stopwords (query_lang='stop'):
    closed-class noise words never reach the index, shrinking postings
    for the highest-df terms; dl counts CONTENT tokens only (both sides
    — engine and oracle — drop stopwords before doc length)."""

    name = "stop"
    _STOP_ARR = None  # class-level cache of the Arrow value_set

    def tokenize(self, text: str) -> list[str]:
        return [t for t in super().tokenize(text) if t not in STOPWORDS]

    def tokenize_column(self, col: pa.Array):
        flat, parents, dl = super().tokenize_column(col)
        if StopTokenizer._STOP_ARR is None:
            StopTokenizer._STOP_ARR = pa.array(sorted(STOPWORDS), pa.string())
        keep = pc.invert(pc.is_in(flat, value_set=StopTokenizer._STOP_ARR))
        flat = flat.filter(keep)
        parents = parents[keep.to_numpy(zero_copy_only=False)]
        dl = np.bincount(parents, minlength=len(col)).astype(np.int64)
        return flat, parents, dl


_REGISTRY: dict[str, type] = {}


def register_tokenizer(lang: str, factory) -> None:
    """Extension point: map a lang code to a tokenizer factory/class."""
    _REGISTRY[lang] = factory


for _lang in ("en", "es", "zh", "fr", "de", "text", "simple"):
    register_tokenizer(_lang, SimpleTokenizer)
for _lang in ("py", "c", "cpp", "java", "js", "go", "rs", "rb", "code"):
    register_tokenizer(_lang, CodeTokenizer)
register_tokenizer("stem", StemTokenizer)
register_tokenizer("fold", FoldTokenizer)
register_tokenizer("stop", StopTokenizer)

DEFAULT_TOKENIZER = "simple"


def get_tokenizer(lang: str):
    """Instantiate the tokenizer registered for ``lang`` (default simple)."""
    return _REGISTRY.get(lang, SimpleTokenizer)()
