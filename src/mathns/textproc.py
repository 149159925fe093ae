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
from typing import NamedTuple, Optional, Sequence

from .corpus import PLACEHOLDER_PREFIX, Identifier
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
    text: str
    tag: str
    sentence_idx: int
    token_idx: int
    identifier: Optional[Identifier] = None


def _read_pairs(path: str | Path) -> list[tuple[str, str]]:
    """The tab-separated pairs of a file, one a line; ``#`` starts a comment."""
    pairs = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line := line.split("#", 1)[0].rstrip():
            first, second = line.split("\t")
            pairs.append((first, second))
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
_TOKEN_RE = re.compile(r"\[\[|\]\]|[\w'-]+|[^\w\s]")
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
    formula_identifiers: Sequence[Sequence[Identifier]],
    doc_identifiers: dict[str, Identifier],
) -> list[list[TaggedToken]]:
    """Resolve placeholders and re-tag identifier tokens.

    A placeholder whose formula holds more than one identifier keeps the
    MATH tag; with exactly one identifier the token is replaced by that
    identifier and tagged ID.  Plain tokens matching a known document
    identifier are re-tagged ID as well.
    """
    out = []
    for sentence in tagged:
        row = []
        for tok in sentence:
            if tok.text.startswith(PLACEHOLDER_PREFIX):
                suffix = tok.text[len(PLACEHOLDER_PREFIX) :]
                try:
                    idx = int(suffix)
                    ids = formula_identifiers[idx]
                except (ValueError, IndexError):
                    raise UnknownPlaceholder(tok.text) from None
                if len(ids) == 1:
                    ident = ids[0]
                    row.append(tok._replace(text=ident.key, tag=ID, identifier=ident))
                else:
                    row.append(tok._replace(tag=MATH))
            elif tok.text in doc_identifiers and tok.tag not in (LINK, NOUN_PHRASE):
                row.append(tok._replace(tag=ID, identifier=doc_identifiers[tok.text]))
            else:
                row.append(tok)
        out.append(row)
    return out


def chunk_phrases(tagged: Sequence[Sequence[TaggedToken]]) -> list[list[TaggedToken]]:
    """Collapse ``[[...]]`` spans to LINK and noun runs to NOUN_PHRASE.

    A noun run is a maximal (JJ)* (NN|NNS)+ sequence; chunking never
    crosses sentence boundaries.
    """
    out = []
    for sentence in tagged:
        merged = _merge_links(sentence)
        out.append(_merge_noun_runs(merged))
    return out


def _merge_links(sentence: Sequence[TaggedToken]) -> list[TaggedToken]:
    row: list[TaggedToken] = []
    i = 0
    while i < len(sentence):
        tok = sentence[i]
        if tok.text == "[[":
            j = i + 1
            inner = []
            while j < len(sentence) and sentence[j].text != "]]":
                inner.append(sentence[j].text)
                j += 1
            if j == len(sentence):
                raise UnterminatedLink(
                    f"sentence {tok.sentence_idx}: '[[' without ']]'"
                )
            row.append(
                TaggedToken(" ".join(inner), LINK, tok.sentence_idx, tok.token_idx)
            )
            i = j + 1
        else:
            row.append(tok)
            i += 1
    return row


def _merge_noun_runs(sentence: Sequence[TaggedToken]) -> list[TaggedToken]:
    row: list[TaggedToken] = []
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
                row.append(
                    TaggedToken(
                        " ".join(parts), NOUN_PHRASE, tok.sentence_idx, tok.token_idx
                    )
                )
                i = j
            else:
                row.append(tok)  # adjectives without a noun stay as-is
                i += 1
        else:
            row.append(tok)
            i += 1
    return row
