"""Tokenization, sentence splitting and math-aware POS tagging.

The tag scheme is a Penn-Treebank subset extended with four tags for
mathematical text: MATH for multi-identifier formulas, ID for
stand-alone identifiers, LINK for ``[[...]]`` spans and NOUN_PHRASE for
collapsed noun runs.  Tagging is rule-based: a word lexicon first, then
ordered suffix rules, then OTHER.
"""

from __future__ import annotations

import re
from pathlib import Path
from types import MappingProxyType
from typing import Container, NamedTuple, Sequence

from .corpus import PLACEHOLDER_PREFIX, read_lines
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
    sentence_idx: int
    token_idx: int


def _read_pairs(path: str | Path) -> list[tuple[str, str]]:
    """The tab-separated pairs of a UTF-8 file, one a line; ``#`` starts a
    comment.  A ValueError names the line that is not a pair."""
    pairs = []
    for n, line in enumerate(read_lines(path), start=1):
        if line := line.split("#", 1)[0].rstrip():
            pair = tuple(line.split("\t"))
            if len(pair) != 2:
                raise ValueError(f"{path}, line {n}: expected two fields split by one tab")
            pairs.append(pair)
    return pairs


class Lexicon:
    """Word -> tag map plus ordered suffix rules (longest match first).

    Both are read-only after construction, so each instance can remember
    the tag of every word it has seen.
    """

    def __init__(self, words: dict[str, str], suffix_rules: list[tuple[str, str]]):
        self.words = MappingProxyType({w.lower(): t for w, t in words.items()})
        self.suffix_rules = tuple(suffix_rules)
        # longest suffix first; the stable sort keeps file order among equals
        self._longest_first = tuple(sorted(self.suffix_rules, key=lambda rule: -len(rule[0])))
        self._tags: dict[str, str] = {}

    @classmethod
    def load(cls, lexicon_path: str | Path, suffix_path: str | Path) -> "Lexicon":
        return cls(dict(_read_pairs(lexicon_path)), _read_pairs(suffix_path))

    @classmethod
    def default(cls) -> "Lexicon":
        data = Path(__file__).parent / "data"
        return cls.load(data / "lexicon.tsv", data / "suffix_rules.tsv")

    def tag_word(self, word: str) -> str:
        """Lexicon tag of ``word``, else its longest suffix rule, else OTHER.

        Computed once per distinct token and instance.  The memo is keyed
        on the token as written, not lower-cased: the suffix rules test
        ``len(word)``, which can differ from ``len(word.lower())`` (``"İ"``).
        """
        tag = self._tags.get(word)
        if tag is None:
            tag = self._tags[word] = self._rule_tag(word)
        return tag

    def _rule_tag(self, word: str) -> str:
        lower = word.lower()
        hit = self.words.get(lower)
        if hit is not None:
            return hit
        for suffix, tag in self._longest_first:
            if len(word) > len(suffix) and lower.endswith(suffix):
                return tag
        return OTHER


_SENTENCE_RE = re.compile(r"[^.?!]*[.?!]+(?=\s|$)|[^.?!]+$")
_TOKEN_RE = re.compile(re.escape(PLACEHOLDER_PREFIX) + r"\d+|\[\[|\]\]|[\w'-]+|[^\w\s]")
_SYM_RE = re.compile(r"[^\w\s]+")


def tokenize_sentences(text: str) -> list[list[str]]:
    """Split into sentences on ``.?!`` + whitespace/EOF, then tokenize.

    Formula placeholders stay single tokens; ``[[`` and ``]]`` are
    tokens of their own so link spans survive tokenization.
    """
    sentences = []
    for match in _SENTENCE_RE.finditer(text):
        chunk = match.group(0).strip()
        if not chunk:
            continue
        tokens = _TOKEN_RE.findall(chunk)
        if tokens:
            sentences.append(tokens)
    return sentences


def pos_tag(sentences: Sequence[Sequence[str]], lexicon: Lexicon) -> list[list[TaggedToken]]:
    """Tag every token: lexicon hit wins, else suffix rules, else OTHER."""
    tagged = []
    for s_idx, sentence in enumerate(sentences):
        row = []
        for t_idx, token in enumerate(sentence):
            if token.startswith(PLACEHOLDER_PREFIX):
                tag = MATH
            elif _SYM_RE.fullmatch(token):
                tag = SYM
            else:
                tag = lexicon.tag_word(token)
            row.append(TaggedToken(token, tag, s_idx, t_idx))
        tagged.append(row)
    return tagged


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

    Each sentence is matched as a string of tag codes against
    ``_CHUNK_RE``, so a noun run is a maximal (JJ)* (NN|NNS)+ sequence
    outside links; chunking never crosses sentence boundaries.
    """
    out = []
    for sentence in tagged:
        codes = "".join([_BRACKETS.get(t.text) or _CODES.get(t.tag, ".") for t in sentence])
        row: list[TaggedToken] = []
        end = 0
        for match in _CHUNK_RE.finditer(codes):
            start = match.start()
            row.extend(sentence[end:start])
            end = match.end()
            first = sentence[start]
            ids = []
            if codes[start] != "[":
                text, tag = " ".join([t.text for t in sentence[start:end]]), NOUN_PHRASE
            elif match["close"]:
                inner = sentence[start + 1 : end - 1]
                text, tag = " ".join([t.text for t in inner if t.tag not in (MATH, ID)]), LINK
                ids = [t for t in inner if t.tag == ID]
            else:
                raise UnterminatedLink(f"sentence {first.sentence_idx}: '[[' without ']]'")
            row.append(TaggedToken(text, tag, first.sentence_idx, first.token_idx))
            row.extend(ids)
        row.extend(sentence[end:])
        out.append(row)
    return out
