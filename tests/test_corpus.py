"""Corpus parsing, identifier extraction and statistics."""

import json
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mathns.corpus import (
    _ASCII_OPERATORS,
    _GREEK_CHAR_TO_NAME,
    _GREEK_VARIANTS,
    _fold_symbol,
    _in_excluded_block,
    _strip_wrappers,
    _subscript_text,
    GREEK_COMMANDS,
    PLACEHOLDER_PREFIX,
    Lines,
    StopLists,
    build_corpus,
    corpus_stats,
    default_stop_lists,
    drop_sparse_documents,
    identifier_key,
    load_corpus,
    normalize_identifier,
    parse_document,
    scan_formula,
    split_key,
)
from mathns.errors import (
    DuplicateDocId,
    ExcludedSymbol,
    MathnsError,
    UnbalancedFormulaDelimiter,
)

STOPS = default_stop_lists()


def oracle_scan(formula: str) -> list[str]:
    """Brute-force token scanner, independent of the library grammar.

    Walks the string with a flat regex, keeping single letters and
    greek commands (with an optional subscript), dropping anything that
    follows '^' and any stop-listed run.
    """
    token_re = re.compile(r"\\[A-Za-z]+|[A-Za-z]+|\^|\{|\}|_|.")
    tokens = token_re.findall(formula)
    out = []
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        if tok == "^":
            if i + 1 < len(tokens) and tokens[i + 1] == "{":
                i += 2
                while i < len(tokens) and tokens[i] != "}":
                    i += 1
                i += 1
            else:
                i += 2
            continue
        name = None
        if tok.startswith("\\") and tok[1:] in {
            "sigma", "alpha", "beta", "gamma", "mu", "theta", "lambda", "pi",
        }:
            name = tok[1:]
        elif len(tok) == 1 and tok.isalpha():
            name = tok
        elif tok.isalpha() and not STOPS.is_stopped_symbol(tok):
            for ch in tok:
                out.append(ch)
            i += 1
            continue
        if name is None:
            i += 1
            continue
        # optional subscript
        if i + 1 < len(tokens) and tokens[i + 1] == "_":
            i += 2
            if i < len(tokens) and tokens[i] == "{":
                sub = []
                i += 1
                while i < len(tokens) and tokens[i] != "}":
                    sub.append(tokens[i])
                    i += 1
                i += 1
                out.append(f"{name}_{''.join(sub)}")
            else:
                out.append(f"{name}_{tokens[i]}")
                i += 1
        else:
            out.append(name)
            i += 1
    return out


# every JSON value a corpus line can hold
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# pieces of TeX, well-formed and not: commands, scripts, groups, stray
# braces and backslashes, wrapper commands and excluded or folded symbols
TEX_FRAGMENTS = [
    "x", "E", "mc", "sin", "where", r"\sigma", r"\alpha", r"\varepsilon", r"\frac",
    r"\mathbf", r"\mathrm", r"\vec", r"\bar", r"\sin", r"\unknown", "\\", "\\{",
    "_", "^", "{", "}", "_{", "^{", "(", ")", "+", "=", "1", "2", " ", "\u2200",
    "\u2192", "\u2207", "\u03c3", "\U0001D430", "\u00e9", "$", "[[", "]]",
]




def old_read_group(s, pos):
    """``_read_group`` as it was when ``old_scan_formula`` called it."""
    if pos >= len(s):
        return "", pos
    if s[pos] == "{":
        depth = 0
        for j in range(pos, len(s)):
            if s[j] == "{":
                depth += 1
            elif s[j] == "}":
                depth -= 1
                if depth == 0:
                    return s[pos + 1 : j], j + 1
        return s[pos + 1 :], len(s)
    if s[pos] == "\\":
        m = re.match(r"\\[A-Za-z]+", s[pos:])
        if m:
            return m.group(0), pos + m.end()
        return s[pos : pos + 2], pos + 2
    return s[pos], pos + 1


def old_scan_formula(formula, stops=None):
    """Reference: the scanner with one branch per kind of identifier, each
    handing its base to a nested script reader, that the one-loop scanner
    replaced."""
    if stops is None:
        stops = StopLists()
    s = _strip_wrappers(formula)
    ids = []
    skipped = 0
    pos = 0
    n = len(s)

    def attach_script(base, p):
        subscript = None
        while p < n and s[p] in "_^":
            mark = s[p]
            group, p = old_read_group(s, p + 1)
            if mark == "_" and subscript is None:
                subscript = _subscript_text(group)
        ids.append(identifier_key(base, subscript))
        return p

    while pos < n:
        ch = s[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "\\":
            m = re.match(r"\\([A-Za-z]+)", s[pos:])
            if not m:
                pos += 2
                continue
            cmd = m.group(1)
            after = pos + m.end()
            if cmd in GREEK_COMMANDS:
                base = _GREEK_VARIANTS.get(cmd, cmd)
                if stops.is_stopped_symbol(base):
                    skipped += 1
                    pos = after
                else:
                    pos = attach_script(base, after)
            else:
                skipped += 1
                pos = after
            continue
        if ch.isascii() and ch.isalpha():
            run = re.match(r"[A-Za-z]+", s[pos:]).group(0)
            after = pos + len(run)
            if len(run) > 1 and stops.is_stopped_symbol(run):
                skipped += 1
                pos = after
                continue
            for i, letter in enumerate(run):
                if stops.is_stopped_symbol(letter):
                    skipped += 1
                    continue
                if i == len(run) - 1:
                    pos = attach_script(letter, after)
                else:
                    ids.append(letter)
            else:
                pos = max(pos, after)
            continue
        if ch == "^":
            _, pos = old_read_group(s, pos + 1)
            continue
        if ch == "_":
            _, pos = old_read_group(s, pos + 1)
            skipped += 1
            continue
        if ch in _ASCII_OPERATORS or ch.isdigit():
            pos += 1
            continue
        try:
            base = normalize_identifier(ch, stops)
        except ExcludedSymbol:
            skipped += 1
            pos += 1
            continue
        pos = attach_script(base, pos + 1)
    return ids, skipped


# TEX_FRAGMENTS plus the pieces of tests/test_fuzz.py and a few more: a
# non-Greek command, an escaped brace, a non-ASCII digit and a \text group
SCANNER_PIECES = sorted(set(TEX_FRAGMENTS) | {
    "\\Omega", "\\varphi", "\\hat", "\\hat{", "\\sum", "\\_", "y_1", "a", ".", "?",
    " is the ", "mass", "large", "of", "é", "ß", "Ω", "ℝ", "𝐱", "ħ", "∂",
    "\u0301", "\u0308", "\u20d7", "\\sin", "\\{", "²", "\\text{max}", "_{",
})
# no stop list, the packaged one, and one that stops letters, a letter run
# and a Greek name
SCANNER_STOPS = [None, STOPS, StopLists(symbol_stop=frozenset({"x", "d", "e", "xy", "alpha"}))]


class TestScannerMatchesTheOldBranches:
    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(SCANNER_PIECES), max_size=16).map("".join),
           st.sampled_from(SCANNER_STOPS))
    @example(r"xy_1^2 \alpha_{d} e_x d x_\theta ²_1 é^2_{a} _b", SCANNER_STOPS[2])
    @example(r"\text{max}_{\{ ab \hat{\sum}_", None)
    @example(r"x_1_2 + \sigma_{}_{a}^2_b", None)  # the first non-empty "_" group is the subscript
    def test_same_keys_and_skipped_count(self, formula, stops):
        assert scan_formula(formula, stops) == old_scan_formula(formula, stops)

    @pytest.mark.parametrize("stops", SCANNER_STOPS)
    def test_every_toy_formula(self, stops, toy_corpus_path):
        formulas = [f for doc in load_corpus(toy_corpus_path).documents for f in doc.formulas]
        assert len(formulas) > 100
        for formula in formulas:
            assert scan_formula(formula, stops) == old_scan_formula(formula, stops)


class TestParseDocument:
    def test_single_formula(self):
        doc = parse_document({"doc_id": "a", "text": "Let $E = mc^2$."})
        assert len(doc.formulas) == 1
        assert doc.formulas[0] == "E = mc^2"
        assert f"{PLACEHOLDER_PREFIX}0" in doc.body

    def test_no_math(self):
        doc = parse_document({"doc_id": "a", "text": "no math"})
        assert doc.formulas == ()
        assert doc.body == "no math"

    def test_unbalanced_dollar(self):
        with pytest.raises(UnbalancedFormulaDelimiter):
            parse_document({"doc_id": "a", "text": "bad $x"})

    @pytest.mark.parametrize("text", [5, None, ["x"], {"a": 1}])
    def test_text_must_be_a_string(self, text):
        with pytest.raises(ValueError, match="document 'd': text must be a string"):
            parse_document({"doc_id": "d", "text": text})

    @pytest.mark.parametrize("key", ["title", "category"])
    def test_null_title_or_category_counts_as_absent(self, key):
        # str(None) used to make it the word 'None', a real category in purity
        doc = parse_document({"doc_id": "d", "text": "x", key: None})
        assert getattr(doc, key) == ""
        assert doc == parse_document({"doc_id": "d", "text": "x"})

    @pytest.mark.parametrize("record", [{"doc_id": None, "text": "x"}, {"text": "x"}])
    def test_doc_id_must_be_present_and_not_null(self, record):
        with pytest.raises(ValueError, match="needs a non-null doc_id"):
            parse_document(record)

    @given(
        st.one_of(
            st.dictionaries(
                st.sampled_from(["doc_id", "text", "title", "category"]),
                st.one_of(JSON_VALUES, st.text(st.sampled_from("ab $\\_{}"), max_size=12)),
            ),
            JSON_VALUES,
        )
    )
    def test_any_json_record_parses_or_raises_a_known_error(self, record):
        try:
            parse_document(record)
        except (ValueError, MathnsError):
            pass

    def test_duplicate_doc_id(self):
        records = [
            {"doc_id": "a", "text": "$x$"},
            {"doc_id": "a", "text": "$y$"},
        ]
        with pytest.raises(DuplicateDocId):
            build_corpus(records, STOPS)


class TestExtractIdentifiers:
    def test_emc2(self):
        ids = scan_formula("E = mc^2", STOPS)[0]
        assert ids == ["E", "m", "c"]

    def test_superscript_ignored(self):
        assert scan_formula("x^2", STOPS)[0] == ["x"]

    def test_sigma_subscript_and_operator(self):
        got = scan_formula(r"\sigma_d + \sin(y)", STOPS)[0]
        assert got == oracle_scan(r"\sigma_d + \sin(y)")
        assert got == ["sigma_d", "y"]

    def test_braced_subscript(self):
        ids = scan_formula(r"x_{slope} + \beta_{\theta}", STOPS)[0]
        assert ids == ["x_slope", "beta_theta"]

    def test_wrapper_commands_unwrapped(self):
        ids = scan_formula(r"\mathbf{w} + \bar X + \vec{v}_1", STOPS)[0]
        assert ids == ["w", "X", "v_1"]

    def test_operator_names_dropped_and_counted(self):
        ids, skipped = scan_formula(r"\sin(x) + \cos(y) + \frac{a}{b}", STOPS)
        assert ids == ["x", "y", "a", "b"]
        assert skipped >= 3

    @given(
        st.lists(
            st.sampled_from(["x", "y", "E", "m", r"\sigma", r"\mu_4", "x_1", "q^2"]),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_oracle_on_random_formulas(self, parts):
        formula = " + ".join(parts)
        got = scan_formula(formula, STOPS)[0]
        assert got == oracle_scan(formula)

    @given(st.lists(st.sampled_from(TEX_FRAGMENTS), max_size=12))
    def test_any_tex_fragments_scan_or_raise_a_known_error(self, parts):
        try:
            ids, skipped = scan_formula("".join(parts), STOPS)
        except MathnsError:
            return
        assert all(isinstance(i, str) for i in ids) and skipped >= 0


def old_normalize_identifier(symbol: str, stops: StopLists | None = None) -> str:
    """Reference: ``normalize_identifier`` with its one-character and
    many-character branches, before they became one lookup and one test."""
    if not symbol:
        raise ExcludedSymbol("empty symbol")
    for ch in symbol:
        if _in_excluded_block(ch):
            raise ExcludedSymbol(f"{symbol!r} is in an excluded Unicode block")
    folded = _fold_symbol(symbol)
    if not folded:
        raise ExcludedSymbol(f"{symbol!r} folds to nothing")
    for ch in folded:
        if _in_excluded_block(ch):
            raise ExcludedSymbol(f"{symbol!r} folds into an excluded block")
    if stops is not None and stops.is_stopped_symbol(folded):
        raise ExcludedSymbol(f"{symbol!r} is stop-listed")
    if len(folded) == 1:
        ch = folded[0]
        if ch in _GREEK_CHAR_TO_NAME:
            base = _GREEK_CHAR_TO_NAME[ch]
        elif ch.isalpha():
            base = ch
        else:
            raise ExcludedSymbol(f"{symbol!r} is not a letter symbol")
    else:
        if not folded.isalpha():
            raise ExcludedSymbol(f"{symbol!r} is not a letter symbol")
        base = folded
    if stops is not None and stops.is_stopped_symbol(base):
        raise ExcludedSymbol(f"{symbol!r} normalizes to a stop-listed base")
    return base


def _normalized(normalize, symbol, stops):
    try:
        return normalize(symbol, stops)
    except ExcludedSymbol as exc:
        return f"ExcludedSymbol: {exc}"


class TestNormalizeIdentifier:
    @settings(max_examples=500)
    @given(st.one_of(st.characters(), st.text(st.characters(), max_size=4)),
           st.sampled_from([None, STOPS]))
    @example("\u03c3", None)  # one character, named
    @example("\U0001D6D1", STOPS)  # bold pi folds to a named one
    @example("\u00b2", None)  # superscript two folds to a digit
    @example("ab", STOPS)
    def test_same_result_as_the_two_branches(self, symbol, stops):
        want = _normalized(old_normalize_identifier, symbol, stops)
        assert _normalized(normalize_identifier, symbol, stops) == want

    def test_bold_w_folds(self):
        assert normalize_identifier("\U0001D430") == "w"

    def test_identity(self):
        assert normalize_identifier("w") == "w"

    def test_arrow_rejected(self):
        with pytest.raises(ExcludedSymbol):
            normalize_identifier("\u2192")

    def test_operator_block_rejected_nabla_kept(self):
        with pytest.raises(ExcludedSymbol):
            normalize_identifier("\u2200")  # forall
        assert normalize_identifier("\u2207") == "nabla"

    def test_greek_letter_named(self):
        assert normalize_identifier("\u03c3") == "sigma"
        assert normalize_identifier("\u03a3") == "Sigma"

    def test_stop_listed_symbol_rejected(self):
        stops = StopLists(symbol_stop=frozenset({"q"}))
        with pytest.raises(ExcludedSymbol):
            normalize_identifier("q", stops)

    @given(st.sampled_from("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"))
    def test_idempotent(self, ch):
        once = normalize_identifier(ch)
        assert normalize_identifier(once) == once

    def test_no_extracted_base_is_stopped(self):
        ids = scan_formula(r"E + \sin x + where", STOPS)[0]
        assert all(not STOPS.is_stopped_symbol(split_key(i)[0]) for i in ids)


class TestCorpusStats:
    def test_single_doc_counts(self):
        corpus = build_corpus([{"doc_id": "d", "text": "$x$ $x$ $y$"}], STOPS)
        report = corpus_stats(corpus)
        assert report["identifier_counts"] == [("x", 2), ("y", 1)]
        assert report["per_document"][0]["distinct"] == 2

    def test_empty_corpus(self):
        report = corpus_stats(build_corpus([], STOPS))
        assert report["n_documents"] == 0
        assert report["identifier_counts"] == []

    def test_totals_equal_per_doc_sums(self):
        corpus = build_corpus(
            [
                {"doc_id": "a", "text": "$x$ $y$ and $z_1$"},
                {"doc_id": "b", "text": "$x$ twice $x$"},
                {"doc_id": "c", "text": r"$\mu$ $\mu$ $\mu$"},
            ],
            STOPS,
        )
        report = corpus_stats(corpus)
        # independent recount: a has {x, y, z_1}, b has {x, x}, c has 3 mu
        totals = sum(count for _, count in report["identifier_counts"])
        per_doc = sum(row["total"] for row in report["per_document"])
        assert totals == per_doc == 8

    def test_drop_sparse_documents(self):
        corpus = build_corpus(
            [
                {"doc_id": "a", "text": "$x$ only one"},
                {"doc_id": "b", "text": "$x$ and $y$"},
            ],
            STOPS,
        )
        kept = drop_sparse_documents(corpus, min_occurrences=2)
        assert [d.doc_id for d in kept.documents] == ["b"]


# formulas that repeat within and across documents; several skip fragments
REPEATED_FORMULAS = ["x", r"\theta", r"\sigma^2", r"\sin x + \theta_1", r"\mathbf{w} + where", "x"]


def scan_each_occurrence(records, stops):
    """Reference: ``scan_formula`` once per formula occurrence."""
    identifiers, skipped = {}, 0
    for raw in records:
        doc = parse_document(raw)
        identifiers[doc.doc_id] = []
        for formula in doc.formulas:
            ids, n = scan_formula(formula, stops)
            identifiers[doc.doc_id].append(ids)
            skipped += n
    return identifiers, skipped


def formula_identifiers(corpus):
    """Each document's identifiers by doc_id, one list per formula."""
    return {doc.doc_id: [list(ids) for ids in doc.identifiers] for doc in corpus}


class TestFormulaMemo:
    RECORDS = [
        {"doc_id": "a", "text": " and ".join(f"${f}$" for f in REPEATED_FORMULAS)},
        {"doc_id": "b", "text": r"$x$ then $\theta$ and $\sin x + \theta_1$ again $x$"},
        {"doc_id": "c", "text": r"only $\mathbf{w} + where$ here"},
    ]

    def test_matches_a_scan_per_occurrence(self):
        corpus = build_corpus(self.RECORDS, STOPS)
        identifiers, skipped = scan_each_occurrence(self.RECORDS, STOPS)
        assert formula_identifiers(corpus) == identifiers
        assert corpus.skipped_fragments == skipped > 0

    @given(
        st.lists(
            st.lists(st.sampled_from(REPEATED_FORMULAS), max_size=6),
            min_size=1,
            max_size=5,
        )
    )
    def test_generated_documents_match_a_scan_per_occurrence(self, docs):
        records = [
            {"doc_id": str(i), "text": " text ".join(f"${f}$" for f in formulas)}
            for i, formulas in enumerate(docs)
        ]
        corpus = build_corpus(records, STOPS)
        identifiers, skipped = scan_each_occurrence(records, STOPS)
        assert formula_identifiers(corpus) == identifiers
        assert corpus.skipped_fragments == skipped
        for doc in corpus:
            recount = Counter(i for ids in identifiers[doc.doc_id] for i in ids)
            assert doc.identifier_counts == recount

    def test_occurrences_of_one_formula_share_one_tuple(self):
        a, b, _ = build_corpus(self.RECORDS, STOPS)
        # a's last formula and b's first and last are the same "x" as a's first
        assert isinstance(a.identifiers[0], tuple)
        assert a.identifiers[0] is a.identifiers[5] is b.identifiers[0] is b.identifiers[3]

    def test_memo_does_not_outlive_a_call(self):
        records = [{"doc_id": "a", "text": "$x + y$"}]
        plain = build_corpus(records, StopLists())
        stopped = build_corpus(records, StopLists(symbol_stop=frozenset({"x"})))
        assert list(plain.documents[0].identifiers[0]) == ["x", "y"]
        assert list(stopped.documents[0].identifiers[0]) == ["y"]
        assert (plain.skipped_fragments, stopped.skipped_fragments) == (0, 1)


WRAPPERS = [r"\bar", r"\hat", r"\vec", r"\mathbf", r"\mathbb", r"\mathcal", r"\boldsymbol"]
# one symbol: an ASCII letter run, a Greek command or its var form, or a
# letter from the Greek, Letterlike, Mathematical Alphanumeric and
# fullwidth blocks (U+FF3F, a fullwidth "_", folds to "_")
SYMBOL = st.one_of(
    st.from_regex(r"[A-Za-z]{1,3}", fullmatch=True),
    st.sampled_from(sorted("\\" + name for name in GREEK_COMMANDS)),
    st.characters(min_codepoint=0x0370, max_codepoint=0x03FF),
    st.characters(min_codepoint=0x2100, max_codepoint=0x214F),
    st.characters(min_codepoint=0x1D400, max_codepoint=0x1D7FF),
    st.sampled_from(["\uff3f", "\ufe4d", "\uff41", "_"]),
)
# script content: letters, digits, ",+-", "_", spaces, Greek commands,
# \text and nested braces
SCRIPT_TEXT = st.recursive(
    st.one_of(
        st.from_regex(r"[A-Za-z0-9,+\- _]{0,3}", fullmatch=True),
        st.sampled_from([r"\theta", r"\varphi", r"\text", r"\mathrm", "\u03b1", "\u00b2"]),
    ),
    # a braced group of inner parts, bare or after \text or \mathrm
    lambda inner: st.tuples(
        st.sampled_from(["", r"\text", r"\mathrm"]), st.lists(inner, max_size=3)
    ).map(lambda p: p[0] + "{" + "".join(p[1]) + "}"),
    max_leaves=6,
)
SCRIPT = st.tuples(st.sampled_from("_^"), SCRIPT_TEXT).map("".join)


@st.composite
def formulas(draw):
    """A formula of wrapped or bare symbols, each with up to two scripts."""
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        symbol = draw(SYMBOL)
        if draw(st.booleans()):
            symbol = draw(st.sampled_from(WRAPPERS)) + "{" + symbol + "}"
        parts.append(symbol + "".join(draw(st.lists(SCRIPT, max_size=2))))
    return draw(st.sampled_from([" + ", " ", "", "="])).join(parts)


class TestIdentifierKey:
    def test_key_with_subscript(self):
        assert identifier_key("x", "1") == "x_1"
        assert split_key("x_1") == ("x", "1")

    def test_key_plain(self):
        assert identifier_key("sigma") == "sigma"
        assert split_key("sigma") == ("sigma", None)

    @given(formulas())
    def test_every_scanned_key_splits_back(self, formula):
        try:
            keys, _ = scan_formula(formula, STOPS)
        except MathnsError:
            return
        for key in keys:
            base, subscript = split_key(key)
            assert identifier_key(base, subscript) == key
            assert base and "_" not in base
            assert subscript is None or (subscript and "_" not in subscript)


class TestLoadCorpus:
    def test_line_that_is_not_json_is_named(self, tmp_path, toy_corpus_path):
        # the error named "line 1 column 14" of the broken fragment, not the corpus line
        lines = toy_corpus_path.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[3] = lines[3][:13] + "\n"  # '{"category": '
        bad = tmp_path / "corpus.jsonl"
        bad.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_corpus(bad, STOPS)
        assert str(info.value) == f"{bad}, line 4: Expecting value (column 14)"

    def test_blank_lines_count(self, tmp_path):
        bad = tmp_path / "corpus.jsonl"
        bad.write_text('{"doc_id": "a", "text": "$x$ and $y$"}\n\n  \n  {"doc_id": "b",\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}, line 4: "):
            load_corpus(bad, STOPS)

    @pytest.mark.parametrize(
        "record, error, message",
        [
            ({"text": "$x$"}, ValueError, "corpus record needs a non-null doc_id and a text field"),
            ({"doc_id": "a", "text": "$y$"}, DuplicateDocId, "duplicate doc_id 'a'"),
            ({"doc_id": "c", "text": "it costs $5"}, UnbalancedFormulaDelimiter,
             "document 'c': unpaired '$' delimiter"),
        ],
        ids=["no-doc-id", "duplicate-doc-id", "unpaired-dollar"],
    )
    def test_record_that_does_not_parse_is_named(self, tmp_path, record, error, message):
        # the error named neither: "a" for the duplicate, no file or line for the others
        records = [{"doc_id": "a", "text": "$x$ and $y$"}, {"doc_id": "b", "text": "$x$"}, record]
        bad = tmp_path / "corpus.jsonl"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        with pytest.raises(error) as info:
            load_corpus(bad, STOPS)
        assert str(info.value) == f"{bad}, line 3: {message}"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_byte_that_is_not_utf8_is_named(self, tmp_path, toy_corpus_path, newline):
        # the error gave a position in a read buffer: "... byte 0xe9 in position 3362"
        lines = [line.encode("utf-8") for line in toy_corpus_path.read_text("utf-8").splitlines()]
        lines[2] = lines[2].replace(b'"text": "', b'"text": "caf\xe9 ', 1)
        bad = tmp_path / "corpus.jsonl"
        bad.write_bytes(newline.encode().join(lines) + newline.encode())
        with pytest.raises(ValueError) as info:
            load_corpus(bad, STOPS)
        assert str(info.value) == f"{bad}, line 3: not UTF-8 (invalid continuation byte)"


class TestLines:
    @given(st.lists(st.tuples(st.text(st.sampled_from("ab \t\x0c\x85\u2028\u2029\x1c\xe9")),
                              st.sampled_from(["\n", "\r\n", "\r"]))),
           st.booleans())
    def test_lines_are_those_of_text_mode(self, tmp_path_factory, lines, last_break):
        # str.splitlines also broke at \x0c, \x85, \x1c, U+2028 and U+2029,
        # so a labels line holding one was refused as the wrong line
        text = "".join(line + newline for line, newline in lines)
        if lines and not last_break:
            text = text[: -len(lines[-1][1])]
        path = tmp_path_factory.mktemp("lines") / "file.txt"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            want = [(n, line.removesuffix("\n")) for n, line in enumerate(fh, 1) if line.strip()]
        with Lines(path) as reader:
            assert [(reader.line, line) for line in reader] == want
