"""Fuzz tests: TeX-like and arbitrary text through the formula scanner and
the extraction path."""

from hypothesis import given, settings
from hypothesis import strategies as st

from mathns.corpus import build_corpus, default_stop_lists, identifier_key, scan_formula, split_key
from mathns.errors import MathnsError
from mathns.extraction import METHODS, extract_relations, prepare_document
from mathns.textproc import Lexicon

STOPS = default_stop_lists()
LEX = Lexicon.default()

# commands, scripts, braces, delimiters and links, words the tagger knows,
# non-ASCII letters and combining marks
PIECES = st.sampled_from([
    "\\alpha", "\\Omega", "\\varphi", "\\hat", "\\hat{", "\\mathbf", "\\sum", "\\", "\\_",
    "_", "^", "{", "}", "$", "[[", "]]", "x", "y_1", "E", "a", " ", ".", "?", " is the ",
    "mass", "large", "of", "=", "+", "2", "é", "ß", "Ω", "ℝ", "𝐱", "ħ", "∇", "∂",
    "\u0301", "\u0308", "\u20d7",  # combining acute, diaeresis and vector arrow
])
TEXTS = st.one_of(st.lists(PIECES, max_size=30).map("".join), st.text())


@settings(max_examples=300)
@given(TEXTS)
def test_scan_formula_never_raises_and_its_keys_split_back(formula):
    keys, skipped = scan_formula(formula, STOPS)
    assert skipped >= 0
    for key in keys:
        assert identifier_key(*split_key(key)) == key


@settings(max_examples=300)
@given(TEXTS)
def test_extraction_raises_only_package_errors(text):
    for method in METHODS:
        try:
            corpus = build_corpus([{"doc_id": "d", "text": text}], STOPS)
            extract_relations(prepare_document(corpus.documents[0], LEX), method)
        except MathnsError:
            pass
