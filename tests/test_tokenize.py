import numpy as np
import pyarrow as pa

from donkey_ray.functions.tokenize import (
    CodeTokenizer,
    SimpleTokenizer,
    get_tokenizer,
    register_tokenizer,
)


def test_simple_golden():
    t = SimpleTokenizer()
    assert t.tokenize("Hello, World! 42") == ["hello", "world", "42"]
    assert t.tokenize("") == []
    assert t.tokenize("  ...  ") == []
    assert t.tokenize("a-b_c") == ["a", "b", "c"]


def test_code_golden():
    t = CodeTokenizer()
    assert t.tokenize("return foo_bar;") == ["return", "foo", "bar"]
    assert t.tokenize("getHTTPResponse2") == ["get", "http", "response2"]
    assert t.tokenize("camelCaseVar = snake_case_var(x, 42);") == [
        "camel", "case", "var", "snake", "case", "var", "x", "42",
    ]
    assert t.tokenize("__init__") == ["init"]
    assert t.tokenize("X") == ["x"]
    assert t.tokenize("if (a>b) return TRUE;") == ["if", "a", "b", "return", "true"]


def test_registry():
    assert isinstance(get_tokenizer("en"), SimpleTokenizer)
    assert isinstance(get_tokenizer("py"), CodeTokenizer)
    assert isinstance(get_tokenizer("unknown-lang"), SimpleTokenizer)

    class Custom(SimpleTokenizer):
        pass

    register_tokenizer("klingon", Custom)
    assert isinstance(get_tokenizer("klingon"), Custom)


def _check_column_path(tok, texts):
    col = pa.array(texts, pa.string())
    flat, parents, dl = tok.tokenize_column(col)
    flat = flat.to_pylist()
    for i, text in enumerate(texts):
        expect = tok.tokenize(text)
        got = [flat[j] for j in np.flatnonzero(parents == i)]
        assert got == expect, (text, got, expect)
        assert dl[i] == len(expect)


def test_simple_column_path_matches_row_path():
    _check_column_path(
        SimpleTokenizer(),
        ["Hello, World!", "", "a-b_c 42", "the the the", "...", "Zoë 7x"],
    )


def test_code_column_path_matches_row_path():
    _check_column_path(
        CodeTokenizer(),
        ["return foo_bar;", "", "getHTTPResponse2 camelCase", "x = 1;"],
    )


def test_shingle_hash_column_equals_per_row():
    """The vectorized batch kernel and the per-row pinned twin must
    produce identical sorted distinct shingle-hash sets."""
    import numpy as np
    import pyarrow as pa

    from donkey_ray.functions.textstats import shingle_hash_column, shingle_hashes, shingles

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "", "short", "a b", "a b c a b c a b c",
        "x y z w v u t s r q p", "the the the the", "Mixed CASE tokens 42",
    ]
    col = pa.array(texts, pa.string())
    for n in (1, 2, 3, 4):
        vals, offs = shingle_hash_column(col, n)
        for i, t in enumerate(texts):
            want = np.sort(shingle_hashes(t, n))
            got = vals[offs[i]:offs[i + 1]]
            assert np.array_equal(want, got), (n, i, t)
            # cardinality equals the distinct string-shingle count
            assert len(got) == len(set(shingles(t, n)))


def test_code_column_vectorized_equals_row_adversarial():
    """The 4-pass boundary-insert column path must be token-identical to
    the per-row extract+camel-split twin on adversarial identifiers."""
    import numpy as np

    cases = [
        "ABCDef R2D2 HTTP2 Ab2 AB2c foo14Bar x2B aBcD",
        "3.14foo 14foo _14foo A_14foo foo2bar __init__ _ 1a2b 12 34abc",
        "HTTP2foo fooÉbar Straße _private9Var XML2JSONParser",
        "a\n14x\nB2", "1a 2b x9 9x _9x 9_x", "Ü14foo é14bar",
        "", "   ", "_", "9", "Z",
    ]
    import string

    rng = np.random.default_rng(123)
    alphabet = list(string.ascii_letters + string.digits + "_ .;\n(){}")
    for _ in range(500):
        n = int(rng.integers(0, 40))
        cases.append("".join(rng.choice(alphabet, size=n)))
    _check_column_path(CodeTokenizer(), cases)


def test_code_tokenizer_non_ascii_row_column_parity():
    """REGRESSION (review finding): utf8_lower maps some non-ASCII
    uppercase INTO ASCII (U+212A KELVIN -> 'k', U+0130 -> 'i'...), which
    glued tokens in the vectorized path that the per-row path splits."""
    import pyarrow as pa

    from donkey_ray.functions.tokenize import CodeTokenizer, SimpleTokenizer

    cases = [
        "xKy",              # KELVIN SIGN between tokens
        "AİB",              # LATIN CAPITAL I WITH DOT ABOVE
        "café résumé",  # accented lowercase separators
        "KK", "", "plainAscii_ok42",
    ]
    tok = CodeTokenizer()
    flat, parents, dl = tok.tokenize_column(pa.array(cases, pa.string()))
    col_rows = [[] for _ in cases]
    for t, p in zip(flat.to_pylist(), parents):
        col_rows[p].append(t)
    assert col_rows == [tok.tokenize(c) for c in cases]
    # SimpleTokenizer row twin uses Python str.lower() (also Unicode) —
    # its parity on the same inputs is unaffected by the fix
    s = SimpleTokenizer()
    sflat, sparents, _ = s.tokenize_column(pa.array(cases, pa.string()))
    s_rows = [[] for _ in cases]
    for t, p in zip(sflat.to_pylist(), sparents):
        s_rows[p].append(t)
    assert s_rows == [s.tokenize(c) for c in cases]


def test_stop_tokenizer_row_column_parity():
    import pyarrow as pa

    from donkey_ray.functions.tokenize import (
        STOPWORDS,
        StopTokenizer,
        get_tokenizer,
    )

    tok = get_tokenizer("stop")
    assert isinstance(tok, StopTokenizer)
    cases = ["the table of value", "a an and or of to in is it", "",
             "The IT is a Table"]
    flat, parents, dl = tok.tokenize_column(pa.array(cases, pa.string()))
    rows = [[] for _ in cases]
    for t, p in zip(flat.to_pylist(), parents):
        rows[p].append(t)
    assert rows == [tok.tokenize(c) for c in cases]
    assert rows[0] == ["table", "value"]
    assert rows[1] == []            # all-stopword doc -> dl 0
    assert list(dl) == [len(r) for r in rows]
    assert not (set(flat.to_pylist()) & STOPWORDS)


def test_tokenize_column_dl_equals_row_tokenize():
    """tokenize_column's dl (the doc_len the build writes to the docs
    rows) equals the per-row token count, for every registered
    tokenizer, over adversarial identifiers and non-ASCII text; a null
    row has dl 0."""
    import pyarrow as pa

    from donkey_ray.functions.tokenize import (CodeTokenizer, FoldTokenizer,
                                               SimpleTokenizer, StemTokenizer,
                                               StopTokenizer)

    texts = [
        "def fooBar_baz2(x): return HTTP2Server + 14foo",
        "the quick brown fox and the lazy dog in a box",
        "résumé naïve Äpfel ß STRASSE İstanbul",
        "", "   ", "___", "a", "ABCDef getHTTPResponse2x",
        "x" * 5000 + " y z", None,
        "tab\tnewline\nmixed 123abc ABC123 a1B2c3",
    ]
    col = pa.array(texts, pa.string())
    for tk in (SimpleTokenizer(), CodeTokenizer(), FoldTokenizer(),
               StemTokenizer(), StopTokenizer()):
        _flat, _parents, dl = tk.tokenize_column(col)
        assert dl[texts.index(None)] == 0, tk.name
        for t, d in zip(texts, dl):
            if t is not None:
                assert len(tk.tokenize(t)) == d or not t.isascii()
