"""Tokenizer, tagger, math annotation and chunking."""

import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mathns.corpus import PLACEHOLDER_PREFIX, build_corpus
from mathns.errors import UnknownPlaceholder, UnterminatedLink
from mathns.extraction import prepare_document
from mathns.textproc import (
    DT,
    ID,
    IN,
    JJ,
    LINK,
    MATH,
    NN,
    NNS,
    NOUN_PHRASE,
    OTHER,
    SYM,
    VB,
    Lexicon,
    TaggedToken,
    _TOKEN_RE,
    _Tokens,
    annotate_math,
    chunk_phrases,
    pos_tag,
    tokenize_sentences,
)

LEX = Lexicon.default()
P = PLACEHOLDER_PREFIX  # P + "0" is formula 0's token in a document body


def tag_text(text: str):
    return pos_tag(tokenize_sentences(text), LEX)


class TestTokenizer:
    def test_two_sentences(self):
        assert tokenize_sentences("A b. C d.") == [["A", "b", "."], ["C", "d", "."]]

    def test_empty(self):
        assert tokenize_sentences("") == []

    def test_token_count_matches_oracle(self):
        text = (
            f"The mean {P}0 is computed over n samples. "
            f"It holds that {P}1, hence the claim!"
        )
        got = tokenize_sentences(text)
        # oracle: independent whitespace+punctuation scan of the raw text,
        # each placeholder spelt as one word
        words = re.sub(re.escape(P) + r"(\d+)", r"formula\1", text)
        oracle = re.findall(r"\[\[|\]\]|[\w'-]+|[^\w\s]", words)
        assert sum(len(s) for s in got) == len(oracle)

    def test_placeholder_single_token(self):
        sentences = tokenize_sentences(f"value {P}12 here.")
        assert f"{P}12" in sentences[0]

    def test_link_markers_are_tokens(self):
        sentences = tokenize_sentences("the [[speed of light]] is c.")
        assert sentences[0][1] == "[["
        assert "]]" in sentences[0]

    @pytest.mark.parametrize("text, want", [
        ("The energy E is 3.14 here.", [["The", "energy", "E", "is", "3", ".", "14", "here", "."]]),
        ("Let x be the position.No space here",
         [["Let", "x", "be", "the", "position", ".", "No", "space", "here"]]),
        ("abc.def", [["abc", ".", "def"]]),
        ("Why?!Because. Done", [["Why", "?", "!", "Because", "."], ["Done"]]),
        # no abbreviation list: "e.g." followed by a space still ends a sentence
        ("See e.g. the mass m.", [["See", "e", ".", "g", "."], ["the", "mass", "m", "."]]),
    ])
    def test_a_stop_that_no_whitespace_follows_keeps_its_sentence(self, text, want):
        """Regression: the prose in front of a ".", "?" or "!" that no
        whitespace follows was dropped, "The energy E is 3." with it."""
        assert tokenize_sentences(text) == want

    @pytest.mark.parametrize("text", [
        "." * 100_000,
        "?!" * 50_000 + "x",
        ("." * 999 + "a") * 100,
        ". " * 50_000,
    ])
    def test_punctuation_runs_split_in_linear_time(self, text):
        start = time.perf_counter()
        sentences = tokenize_sentences(text)
        assert time.perf_counter() - start < 1.0
        assert sum(map(len, sentences)) == len(_TOKEN_RE.findall(text))


# the pieces a sentence splitter can trip on: stops alone and in runs,
# several kinds of whitespace, placeholders, links and words
SPLITTER_PIECES = st.sampled_from([
    ".", "?", "!", "..", "?!", "!?.", " ", "  ", "\t", "\n", "\r\n", "\x0c", "\u00a0", "\u2003",
    f"{P}0", f"{P}12", P, "[[", "]]", "x", "mass", "3", "14", "e.g", "it's", "-", ",",
])


@given(st.lists(SPLITTER_PIECES, max_size=30).map("".join))
@example("The energy E is 3.14 here. The mass m is large.")
def test_sentences_hold_every_token_of_the_text(text):
    sentences = tokenize_sentences(text)
    assert [token for sentence in sentences for token in sentence] == _TOKEN_RE.findall(text)
    assert all(sentences)


class TestPosTag:
    def test_determiner(self):
        tagged = tag_text("the")
        assert tagged[0][0].tag == DT

    def test_noun(self):
        assert tag_text("corpus")[0][0].tag == NN

    def test_unknown_word_is_other(self):
        assert tag_text("zzzqx")[0][0].tag == OTHER

    def test_suffix_rules(self):
        tags = [t.tag for t in tag_text("bijection continuous estimators")[0]]
        assert tags == [NN, JJ, "NNS"]

    def test_longest_suffix_wins(self):
        # "fitness" matches both -ness (NN) and -s (NNS); longest wins
        assert tag_text("fitness")[0][0].tag == NN

    def test_output_length_equals_input(self):
        sentences = tokenize_sentences("a b c d. e f.")
        tagged = pos_tag(sentences, LEX)
        assert [len(s) for s in tagged] == [len(s) for s in sentences]

    def test_equal_tokens_are_one_object(self):
        # across sentences, documents and calls on one lexicon
        lexicon = Lexicon.default()
        first = f"The mean {P}0 is large. The mean is {P}1, is it?"
        tagged = [pos_tag(tokenize_sentences(text), lexicon)
                  for text in (first, "the mean of it. The end.", first)]
        assert tagged[2] == tagged[0]
        one: dict[str, TaggedToken] = {}
        for token in (t for doc in tagged for sentence in doc for t in sentence):
            assert one.setdefault(token.text, token) is token, token
        assert len(one) == 13

    def test_prepared_documents_share_the_lexicons_tokens(self):
        # annotation and chunking pass the tokens they keep through
        lexicon = Lexicon.default()
        corpus = build_corpus([
            {"doc_id": "a", "text": "Let $x$ be the mean of $y + z$. The mean is large."},
            {"doc_id": "b", "text": "The [[ mass ]] is $m$, and the mean is $m$."},
        ])
        kept = [
            token
            for doc in corpus.documents
            for sentence in prepare_document(doc, lexicon).sentences
            for token in sentence
            if token.tag not in (ID, MATH, LINK, NOUN_PHRASE)
        ]
        assert {"Let", "be", "the", "The", "is", ".", ","} <= {t.text for t in kept}
        assert all(token is lexicon.tokens[token.text] for token in kept)


def uncached_tag(lexicon: Lexicon, word: str) -> str:
    """Reference: the lexicon and suffix rules applied afresh to each word."""
    hit = lexicon.words.get(word.lower())
    if hit is not None:
        return hit
    best = None
    for pos, (suffix, tag) in enumerate(lexicon.suffix_rules):
        if len(word) > len(suffix) and word.lower().endswith(suffix):
            key = (-len(suffix), pos)
            if best is None or key < best[0]:
                best = (key, tag)
    return best[1] if best is not None else OTHER


class TestLexiconMemo:
    def words(self) -> list[str]:
        out = []
        for word in LEX.words:
            out += [word, word.upper(), word[:1].upper() + word[1:]]
        out += [suffix for suffix, _ in LEX.suffix_rules]  # no longer than the rule
        out += ["İ", "İs", "İTY", "xİtion", "zzqx"]  # "İ".lower() has two characters
        return out

    def test_matches_the_uncached_rules(self):
        lexicon = Lexicon.default()
        words = self.words()
        for word in words:
            assert lexicon.tag_word(word) == uncached_tag(LEX, word), word
        for word in words + words[::-1]:  # the second pass is served by the memo
            assert lexicon.tokens[word].tag == uncached_tag(LEX, word), word

    def test_each_suffix_rule_is_hit(self):
        lexicon = Lexicon.default()
        for suffix, tag in LEX.suffix_rules:
            word = "zzqx" + suffix  # no longer rule matches, so this one wins
            assert lexicon.tag_word(word) == tag == uncached_tag(LEX, word)

    def test_keyed_on_the_token_as_written(self):
        # "a\u0130s" has three characters and its lower-cased form
        # "ai\u0307s" four, so a memo keyed on the lower-cased form would
        # give both the same tag
        lexicon = Lexicon({}, [("i\u0307s", NN)])
        upper, lower = "a\u0130s", "ai\u0307s"
        assert upper.lower() == lower
        assert [lexicon.tokens[w].tag for w in (lower, upper, lower)] == [NN, OTHER, NN]
        assert [uncached_tag(lexicon, w) for w in (lower, upper)] == [NN, OTHER]

    def test_rules_are_computed_once_per_word(self, monkeypatch):
        lexicon = Lexicon.default()
        calls = []
        memo = lexicon.tokens
        monkeypatch.setattr(memo, "tag_word", lambda w: calls.append(w) or lexicon.tag_word(w))
        tags = [memo[w].tag for w in ("estimators", "the", "estimators", "The")]
        assert tags == ["NNS", DT, "NNS", DT]
        assert calls == ["estimators", "the", "The"]

    def test_rules_are_read_only(self):
        lexicon = Lexicon.default()
        with pytest.raises(TypeError):
            lexicon.words["corpus"] = JJ
        with pytest.raises(TypeError):
            lexicon.suffix_rules[0] = ("s", JJ)


class TestAnnotateMath:
    def test_multi_identifier_formula_is_math(self):
        tagged = tag_text(f"see {P}0 here.")
        out = annotate_math(tagged, [["E", "m", "c"]], {})
        assert out[0][1].tag == MATH

    def test_single_identifier_replaced(self):
        tagged = tag_text(f"see {P}0 here.")
        out = annotate_math(tagged, [["sigma_d"]], {})
        tok = out[0][1]
        assert tok.tag == ID and tok.text == "sigma_d"

    def test_prose_token_retagged(self):
        tagged = tag_text("clearly E holds.")
        out = annotate_math(tagged, [], {"E"})
        retagged = [t for t in out[0] if t.text == "E"]
        assert retagged[0].tag == ID

    def test_unknown_placeholder(self):
        tagged = tag_text(f"see {P}7 here.")
        with pytest.raises(UnknownPlaceholder):
            annotate_math(tagged, [], {})

    def test_articles_stay_determiners(self):
        """Regression: with ``$a$`` and ``$A$`` in the document, the prose
        articles "a" and a sentence-initial "A" were re-tagged ID."""
        doc = build_corpus([{"doc_id": "d", "text": (
            "A body moves with acceleration $a$. Let $A$ denote a matrix. A force acts."
        )}]).documents[0]
        prepared = prepare_document(doc, LEX)
        tokens = [t for sentence in prepared.sentences for t in sentence if t.text in ("a", "A")]
        assert [(t.text, t.tag) for t in tokens] == [
            ("A", DT), ("a", ID), ("A", ID), ("a", DT), ("A", DT),
        ]

    def test_id_texts_are_known_identifiers(self):
        tagged = tag_text(f"E relates m and {P}0.")
        out = annotate_math(tagged, [["c"]], {"E", "m", "c"})
        for sentence in out:
            for tok in sentence:
                if tok.tag == ID:
                    assert tok.text in {"E", "m", "c"}


class TestProseThatSpellsAPlaceholder:
    """Regression: the placeholder was ``FORMULA_<i>``, which prose can spell.
    Spelt with an unknown number it stopped the run with UnknownPlaceholder;
    with a known one it tagged a second occurrence of that formula's
    identifier, which the ranker scored against."""

    @staticmethod
    def ids_of(text):
        doc = build_corpus([{"doc_id": "d", "text": text}]).documents[0]
        prepared = prepare_document(doc, LEX)
        return [(t.text, i) for s in prepared.sentences for i, t in enumerate(s) if t.tag == ID]

    def test_unknown_number_is_prose(self):
        assert self.ids_of("The energy $E$ is a FORMULA_7 thing.") == [("E", 2)]

    def test_known_number_is_prose(self):
        assert self.ids_of("The energy $E$ of FORMULA_0 is large.") == [("E", 2)]


class TestChunkPhrases:
    def test_adjective_noun_run(self):
        tagged = tag_text("ordinary least squares")
        out = chunk_phrases(tagged)
        assert len(out[0]) == 1
        assert out[0][0].tag == NOUN_PHRASE
        assert out[0][0].text == "ordinary least squares"

    def test_link_collapse(self):
        tagged = tag_text("the [[ speed of light ]] is constant.")
        out = chunk_phrases(tagged)
        links = [t for t in out[0] if t.tag == LINK]
        assert len(links) == 1
        assert links[0].text == "speed of light"

    def test_formula_inside_a_link_is_left_out(self):
        """Regression: a formula inside ``[[...]]`` kept its placeholder in the
        link's text, which became the definition "speed $0 of light"."""
        doc = build_corpus([{"doc_id": "d", "text": (
            "The [[ speed $u + v$ of light ]] is $c$. The [[ $u + v$ ]] is $w$."
        )}]).documents[0]
        prepared = prepare_document(doc, LEX)
        links = [t.text for sentence in prepared.sentences for t in sentence if t.tag == LINK]
        assert links == ["speed of light", ""]

    def test_identifier_inside_a_link_follows_it(self):
        """Regression: an identifier inside ``[[...]]`` joined the link's text
        "mass m" and left no ID token, so no method could define it."""
        doc = build_corpus([{"doc_id": "d", "text": "The [[ mass $m$ ]] is large."}]).documents[0]
        first = prepare_document(doc, LEX).sentences[0]
        assert [(t.text, t.tag) for t in first[:4]] == [
            ("The", DT), ("mass", LINK), ("m", ID), ("is", VB)
        ]

    def test_lone_noun_becomes_phrase(self):
        out = chunk_phrases(tag_text("energy"))
        assert out[0][0].tag == NOUN_PHRASE
        assert out[0][0].text == "energy"

    def test_unterminated_link(self):
        with pytest.raises(UnterminatedLink):
            chunk_phrases(tag_text("a [[ broken link."))

    def test_no_cross_sentence_chunk(self):
        out = chunk_phrases(tag_text("big mass. energy now."))
        assert len(out) == 2
        assert out[0][0].text == "big mass"
        assert out[1][0].text == "energy"

    def test_output_not_longer_than_input(self):
        sentences = tag_text("the big red mass holds much energy.")
        out = chunk_phrases(sentences)
        assert len(out[0]) <= len(sentences[0])

    def test_adjectives_without_noun_stay(self):
        out = chunk_phrases(
            [[TaggedToken("continuous", JJ), TaggedToken("is", "VB")]]
        )
        assert [t.tag for t in out[0]] == [JJ, "VB"]


def old_chunk_phrases(tagged):
    """Reference: the two-pass scanner the regex chunker replaced, which
    leaves MATH and ID tokens out of a link's text, and keeps each ID token
    right after the link, as the chunker does."""
    return [old_merge_noun_runs(old_merge_links(sentence, s)) for s, sentence in enumerate(tagged)]


def old_merge_links(sentence, s):
    row = []
    i = 0
    while i < len(sentence):
        tok = sentence[i]
        if tok.text == "[[":
            j = i + 1
            inner = []
            ids = []
            while j < len(sentence) and sentence[j].text != "]]":
                if sentence[j].tag == ID:
                    ids.append(sentence[j])
                elif sentence[j].tag != MATH:
                    inner.append(sentence[j].text)
                j += 1
            if j == len(sentence):
                raise UnterminatedLink(f"sentence {s}: '[[' without ']]'")
            row.append(TaggedToken(" ".join(inner), LINK))
            row.extend(ids)
            i = j + 1
        else:
            row.append(tok)
            i += 1
    return row


def old_merge_noun_runs(sentence):
    row = []
    i = 0
    while i < len(sentence):
        tok = sentence[i]
        if tok.tag in (JJ, NN, NNS):
            j = i
            adjectives = []
            while j < len(sentence) and sentence[j].tag == JJ:
                adjectives.append(sentence[j])
                j += 1
            nouns = []
            while j < len(sentence) and sentence[j].tag in (NN, NNS):
                nouns.append(sentence[j])
                j += 1
            if nouns:
                parts = [t.text for t in adjectives + nouns]
                row.append(TaggedToken(" ".join(parts), NOUN_PHRASE))
                i = j
            else:
                row.append(tok)
                i += 1
        else:
            row.append(tok)
            i += 1
    return row


def outcome(chunker, tagged):
    try:
        return chunker(tagged)
    except UnterminatedLink as exc:
        return ("UnterminatedLink", str(exc))


ALL_TAGS = [NN, NNS, JJ, DT, VB, IN, SYM, OTHER, MATH, ID, LINK, NOUN_PHRASE]
NOT_NOUN_LIKE = [t for t in ALL_TAGS if t not in (JJ, NN, NNS)]
# (text, tag) of one token; adjectives and nouns twice as likely, so runs form
TOKENS = st.one_of(
    st.tuples(st.sampled_from(["mass", "big", "of", "x", f"{P}0"]),
              st.sampled_from(ALL_TAGS + [JJ, NN, NNS])),
    st.tuples(st.just("[["), st.sampled_from(ALL_TAGS)),
    # a ']]' tagged JJ/NN/NNS outside a link is the one pinned difference below
    st.tuples(st.just("]]"), st.sampled_from(NOT_NOUN_LIKE)),
)


def as_tagged(sentences):
    return [[TaggedToken(text, tag) for text, tag in sentence] for sentence in sentences]


class TestChunkerMatchesOldScanner:
    @given(st.lists(st.lists(TOKENS, max_size=14), max_size=4))
    @example([[("big", JJ), ("big", JJ), ("of", IN), ("big", JJ)]])  # adjectives only
    @example([[("[[", SYM), ("[[", SYM), ("mass", NN), ("]]", SYM), ("]]", SYM)]])  # nested
    @example([[("mass", NN), ("]]", SYM), ("[[", SYM), ("big", JJ), ("mass", NNS)]])
    @example([[("[[", SYM), ("x", ID), ("big", JJ), (f"{P}0", MATH), ("x", ID), ("]]", SYM)]])
    def test_same_tokens_as_the_old_scanner(self, sentences):
        tagged = as_tagged(sentences)
        assert outcome(chunk_phrases, tagged) == outcome(old_chunk_phrases, tagged)

    @pytest.mark.parametrize("tag", [JJ, NN, NNS])
    def test_close_bracket_inside_a_link_closes_it_whatever_its_tag(self, tag):
        tagged = as_tagged([[("[[", SYM), ("mass", NN), ("]]", tag), ("big", JJ), ("x", NN)]])
        got = chunk_phrases(tagged)
        assert got == old_chunk_phrases(tagged)
        assert [(t.text, t.tag) for t in got[0]] == [("mass", LINK), ("big x", NOUN_PHRASE)]

    @pytest.mark.parametrize("tag", [JJ, NN, NNS])
    def test_stray_close_bracket_never_joins_a_noun_run(self, tag):
        # pos_tag tags every bracket token SYM, so only a caller's own tags
        # reach this case; the old scanner joined the ']]' to the run
        tagged = as_tagged([[("big", JJ), ("]]", tag), ("mass", NN)]])
        got = chunk_phrases(tagged)
        assert [(t.text, t.tag) for t in got[0]] == [
            ("big", JJ), ("]]", tag), ("mass", NOUN_PHRASE)
        ]
        assert old_chunk_phrases(tagged)[0][0].text == "big ]] mass"

    def test_pos_tag_tags_bracket_tokens_sym(self):
        tagged = tag_text("a ]] b [[ c ]]")[0]
        assert [t.tag for t in tagged if t.text in ("[[", "]]")] == [SYM, SYM, SYM]


def old_pos_tag(sentences, lexicon):
    """Reference: the per-token loop the memo-mapped tagger replaced."""
    tagged = []
    for sentence in sentences:
        row = []
        for token in sentence:
            if token.startswith(PLACEHOLDER_PREFIX):
                tag = MATH
            elif re.fullmatch(r"[^\w\s]+", token):
                tag = SYM
            else:
                tag = lexicon.tag_word(token)
            row.append(TaggedToken(token, tag))
        tagged.append(row)
    return tagged


def old_annotate_math(tagged, per_formula, doc_identifiers):
    """Reference: the per-token loop that rebuilt every token with ``_replace``."""
    out = []
    for sentence in tagged:
        row = []
        for tok in sentence:
            if tok.text.startswith(PLACEHOLDER_PREFIX):
                suffix = tok.text[len(PLACEHOLDER_PREFIX) :]
                try:
                    idx = int(suffix)
                    ids = per_formula[idx]
                except (ValueError, IndexError):
                    raise UnknownPlaceholder(tok.text) from None
                if len(ids) == 1:
                    row.append(tok._replace(text=ids[0], tag=ID))
                else:
                    row.append(tok._replace(tag=MATH))
            elif tok.text in doc_identifiers and tok.tag not in (DT, LINK, NOUN_PHRASE):
                row.append(tok._replace(tag=ID))
            else:
                row.append(tok)
        out.append(row)
    return out


# known and unknown placeholders with formulas 0..2 ($05 is formula 5, unknown),
# symbol runs, link brackets, the articles a/A beside the identifiers a/A,
# lexicon and suffix-rule words, and "İ", whose lower-cased form is longer
WORDS = [
    f"{P}0", f"{P}1", f"{P}2", f"{P}9", f"{P}05", P, "[[", "]]", "+", "=", ".", ",", "((",
    "a", "A", "the", "The", "x", "E", "m", "corpus", "energy", "estimators", "continuous",
    "zzqx", "İ", "İs", "xİtion", "speed-of", "it's",
]
FORMULAS = [["x"], ["E", "m"], ["a"]]  # $0 resolves to x, $1 stays MATH, $2 to a
KEYS = {"a", "A", "x", "E", "m", "İ"}


def annotated(annotate, tagged, per_formula=FORMULAS, doc_identifiers=KEYS):
    try:
        return annotate(tagged, per_formula, doc_identifiers)
    except UnknownPlaceholder as exc:
        return ("UnknownPlaceholder", str(exc))


class TestTaggerMatchesTheOldLoops:
    @settings(max_examples=200)
    @given(st.lists(st.lists(st.sampled_from(WORDS), max_size=12), max_size=5))
    def test_pos_tag_gives_the_old_tokens(self, sentences):
        fresh = Lexicon.default()
        want = old_pos_tag(sentences, Lexicon.default())
        assert pos_tag(sentences, fresh) == want
        assert pos_tag(sentences, fresh) == want  # served by the memo
        assert pos_tag(sentences, LEX) == want  # a memo shared across examples

    @settings(max_examples=200)
    @given(st.lists(st.lists(st.sampled_from(WORDS), max_size=12), max_size=5))
    def test_annotate_math_gives_the_old_tokens_on_tagged_text(self, sentences):
        tagged = pos_tag(sentences, LEX)
        assert annotated(annotate_math, tagged) == annotated(old_annotate_math, tagged)

    @settings(max_examples=200)
    @given(st.lists(st.lists(st.tuples(st.sampled_from(WORDS), st.sampled_from(ALL_TAGS)),
                             max_size=12), max_size=5))
    @example([[("a", DT), ("a", ID), ("A", LINK), ("A", NOUN_PHRASE), ("x", JJ), (f"{P}0", DT)]])
    @example([[(f"{P}1", NOUN_PHRASE), (f"{P}2", ID)], [], [("İ", OTHER), (f"{P}05", MATH)]])
    def test_annotate_math_gives_the_old_tokens_whatever_the_tags(self, sentences):
        # tokens already tagged DT, LINK, NOUN_PHRASE or ID, as a caller may pass them
        tagged = as_tagged(sentences)
        assert annotated(annotate_math, tagged) == annotated(old_annotate_math, tagged)

    @pytest.mark.parametrize("token", [f"{P}9", f"{P}05", P, f"{P}x"])
    def test_unknown_placeholder_still_raises(self, token):
        tagged = pos_tag([["see", f"{P}0", token]], LEX)
        with pytest.raises(UnknownPlaceholder, match=re.escape(token)):
            annotate_math(tagged, FORMULAS, KEYS)

    def test_input_is_left_as_it_was(self):
        tagged = pos_tag([["the", "a", f"{P}0", "x"], ["E", f"{P}1"]], LEX)
        before = [list(sentence) for sentence in tagged]
        annotate_math(tagged, FORMULAS, KEYS)
        chunk_phrases(tagged)
        assert tagged == before

    def test_token_memo_computes_each_tokens_rules_once(self, monkeypatch):
        lexicon = Lexicon.default()
        rules, missing = [], []
        monkeypatch.setattr(
            lexicon.tokens, "tag_word", lambda w: rules.append(w) or lexicon.tag_word(w)
        )
        token_of = _Tokens.__missing__
        monkeypatch.setattr(
            _Tokens, "__missing__", lambda memo, t: missing.append(t) or token_of(memo, t)
        )
        sentences = [["estimators", f"{P}0", "+", "the"], ["the", "estimators", f"{P}0", "The", "+"]]
        first = pos_tag(sentences, lexicon)
        assert pos_tag(sentences, lexicon) == first == old_pos_tag(sentences, LEX)
        assert missing == ["estimators", f"{P}0", "+", "the", "The"]
        assert rules == ["estimators", "the", "The"]  # no rules for placeholders or symbols
        assert {text: token.tag for text, token in lexicon.tokens.items()} == {
            "estimators": NNS, f"{P}0": MATH, "+": SYM, "the": DT, "The": DT
        }
        assert all(text == token.text for text, token in lexicon.tokens.items())
