"""Tokenization, sentence splitting and math-aware POS tagging.

A sentence ends after each ``.``, ``?`` or ``!`` that whitespace follows.
A token is its text and its tag; its place is its index in its sentence.

The tag scheme is a Penn-Treebank subset extended with four tags for
mathematical text: MATH for multi-identifier formulas, ID for
stand-alone identifiers, LINK for ``[[...]]`` spans and NOUN_PHRASE for
collapsed noun runs.  Tagging is rule-based: a word lexicon first, then
ordered suffix rules, then OTHER.  Each ``Lexicon`` makes one
``TaggedToken`` per distinct token, which every position of it shares, and
the stages map tokens at C level: no Python frame runs per token.
"""

from __future__ import annotations

import re
from itertools import accumulate, chain, pairwise, repeat
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Container, NamedTuple, Sequence

from .corpus import PLACEHOLDER_PREFIX, Lines, tab_pair
from .errors import UnknownPlaceholder, UnterminatedLink

NN = "NN"
NNS = "NNS"
JJ = "JJ"
DT = "DT"
VB = "VB"
IN = "IN"
SYM = "SYM"
OTHER = "OTHER"
MATH = "MATH"
ID = "ID"
LINK = "LINK"
NOUN_PHRASE = "NOUN_PHRASE"


class TaggedToken(NamedTuple):
    text: str  # an ID token's is its identifier key
    tag: str


def _read_pairs(path: str | Path) -> list[tuple[str, ...]]:
    """The tab-separated pairs of a UTF-8 file, one a line; ``#`` starts a
    comment.  A ValueError names the line that is not a pair."""
    with Lines(path) as lines:
        uncommented = (line.split("#", 1)[0].rstrip() for line in lines)
        return [tab_pair(line) for line in uncommented if line]


class Lexicon:
    """Word -> tag map plus ordered suffix rules (longest match first).

    Both are read-only after construction, so each instance can keep the
    one tagged token of every token it has seen: ``tokens``, ``pos_tag``'s memo.
    """

    def __init__(self, words: dict[str, str], suffix_rules: list[tuple[str, str]]):
        self.words = MappingProxyType({w.lower(): t for w, t in words.items()})
        self.suffix_rules = tuple(suffix_rules)
        # longest suffix first; the stable sort keeps file order among equals
        self._longest_first = tuple(sorted(self.suffix_rules, key=lambda rule: -len(rule[0])))
        self.tokens = _Tokens(self.tag_word)

    @classmethod
    def load(cls, lexicon_path: str | Path, suffix_path: str | Path) -> "Lexicon":
        return cls(dict(_read_pairs(lexicon_path)), _read_pairs(suffix_path))

    @classmethod
    def default(cls) -> "Lexicon":
        data = Path(__file__).parent / "data"
        return cls.load(data / "lexicon.tsv", data / "suffix_rules.tsv")

    def tag_word(self, word: str) -> str:
        """Lexicon tag of ``word``, else its longest suffix rule, else OTHER.

        A suffix rule tests ``len(word)``, which can differ from
        ``len(word.lower())`` (``"İ"``), so a memo keys on the word as written.
        """
        lower = word.lower()
        hit = self.words.get(lower)
        if hit is not None:
            return hit
        for suffix, tag in self._longest_first:
            if len(word) > len(suffix) and lower.endswith(suffix):
                return tag
        return OTHER


_SENTENCE_END_RE = re.compile(r"(?<=[.?!])(?=\s)")
_TOKEN_RE = re.compile(re.escape(PLACEHOLDER_PREFIX) + r"\d+|\[\[|\]\]|[\w'-]+|[^\w\s]")
_SYM_RE = re.compile(r"[^\w\s]+")


class _Tokens(dict):
    """Token -> its one ``TaggedToken``, made on first sight: a placeholder
    is MATH, a symbol run SYM, any other token ``tag_word``'s."""

    def __init__(self, tag_word: Callable[[str], str]):
        self.tag_word = tag_word

    def __missing__(self, token: str) -> TaggedToken:
        if token.startswith(PLACEHOLDER_PREFIX):
            tag = MATH
        else:
            tag = SYM if _SYM_RE.fullmatch(token) else self.tag_word(token)
        self[token] = tagged = TaggedToken(token, tag)
        return tagged


_new = tuple.__new__  # _new(TaggedToken, (text, tag)) runs no Python frame
_text, _tag = itemgetter(0), itemgetter(1)


def tokenize_sentences(text: str) -> list[list[str]]:
    """Split into sentences after each ``.?!`` that whitespace follows, so a
    stop inside "3.14" stays in its sentence, then tokenize.

    Formula placeholders stay single tokens; ``[[`` and ``]]`` are
    tokens of their own so link spans survive tokenization.  A sentence
    with no token is dropped.
    """
    return list(filter(None, map(_TOKEN_RE.findall, _SENTENCE_END_RE.split(text))))


def pos_tag(sentences: Sequence[Sequence[str]], lexicon: Lexicon) -> list[list[TaggedToken]]:
    """Tag every token: a placeholder MATH, a symbol run SYM, else the
    lexicon hit, else suffix rules, else OTHER.  Each distinct token is
    tagged once per lexicon, and its positions share the one
    ``TaggedToken`` of the lexicon's ``tokens`` memo."""
    token_of = lexicon.tokens.__getitem__
    return [list(map(token_of, tokens)) for tokens in sentences]


def annotate_math(
    tagged: Sequence[Sequence[TaggedToken]],
    per_formula: Sequence[Sequence[str]],
    doc_identifiers: Container[str],
) -> list[list[TaggedToken]]:
    """Resolve placeholders and re-tag identifier tokens.

    ``per_formula`` holds each formula's identifier keys, and
    ``doc_identifiers`` every key of the document.  A placeholder whose
    formula holds more than one identifier keeps the MATH tag; with
    exactly one identifier the token is replaced by its key and tagged ID.
    Plain tokens matching a known document identifier are re-tagged ID as
    well, unless the lexicon tags them DT: the articles "a" and "A" stay
    articles beside identifiers a and A.
    """
    # a token's annotation depends on its text and tag alone, so each distinct
    # token is looked at once, in reading order (an error names the first
    # unknown placeholder), and a token that does not change is kept as it is
    changed: dict[tuple[str, str], TaggedToken] = {}
    for text, tag in dict.fromkeys(chain.from_iterable(tagged)):
        if text.startswith(PLACEHOLDER_PREFIX):
            try:
                ids = per_formula[int(text[len(PLACEHOLDER_PREFIX) :])]
            except (ValueError, IndexError):
                raise UnknownPlaceholder(text) from None
            changed[text, tag] = _new(TaggedToken, (ids[0], ID) if len(ids) == 1 else (text, MATH))
        elif text in doc_identifiers and tag not in (DT, LINK, NOUN_PHRASE):
            changed[text, tag] = _new(TaggedToken, (text, ID))
    return [list(map(changed.get, sentence, sentence)) for sentence in tagged]


# One code per token: a link bracket by its text, else J for JJ, N for
# NN|NNS and "." for any other tag.
_BRACKETS = {"[[": "[", "]]": "]"}
_CODES = {JJ: "J", NN: "N", NNS: "N"}
# A link runs from ``[[`` to the first ``]]``; a noun run is (JJ)* (NN|NNS)+.
_CHUNK_RE = re.compile(r"\[[^\]]*(?P<close>\])?|J*N+")


def chunk_phrases(tagged: Sequence[Sequence[TaggedToken]]) -> list[list[TaggedToken]]:
    """Collapse ``[[...]]`` spans to LINK and noun runs to NOUN_PHRASE.

    A link's text joins its tokens but leaves out MATH formulas and ID
    tokens, so a link that holds only a formula has empty text.  Each ID
    token of a link stays in the sentence, right after the LINK token.

    Each sentence's span of the document's tag-code string is matched
    against ``_CHUNK_RE``, so a noun run is a maximal (JJ)* (NN|NNS)+
    sequence outside links; chunking never crosses sentence boundaries.
    """
    flat = list(chain.from_iterable(tagged))
    texts = list(map(_text, flat))
    codes = "".join(map(_BRACKETS.get, texts, map(_CODES.get, map(_tag, flat), repeat("."))))
    out = []
    for s, (lo, hi) in enumerate(pairwise(accumulate(map(len, tagged), initial=0))):
        row, end = [], lo
        for match in _CHUNK_RE.finditer(codes, lo, hi):  # never past the sentence's end
            start, stop = match.span()
            row += flat[end:start]
            end = stop
            if codes[start] != "[":
                row.append(_new(TaggedToken, (" ".join(texts[start:end]), NOUN_PHRASE)))
            elif match["close"]:
                inner = flat[start + 1 : end - 1]
                text = " ".join([t.text for t in inner if t.tag not in (MATH, ID)])
                row.append(_new(TaggedToken, (text, LINK)))
                row += [t for t in inner if t.tag == ID]
            else:
                raise UnterminatedLink(f"sentence {s}: '[[' without ']]'")
        row += flat[end:hi]
        out.append(row)
    return out
