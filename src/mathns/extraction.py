"""Identifier-definition extraction.

Three methods produce scored relations: the nearest-noun rule, a
pattern matcher over tagged tokens, and a probabilistic ranker that
scores every candidate by two Gaussians (token distance, sentence
distance) plus in-sentence term frequency.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from . import textproc
from .corpus import Corpus, Document, Identifier
from .errors import IdentifierNotInDocument
from .textproc import DT, ID, JJ, LINK, NN, NNS, NOUN_PHRASE, Lexicon, TaggedToken

NEAREST_NOUN = "nearest_noun"
PATTERN = "pattern"
RANKER = "ranker"

METHODS = (NEAREST_NOUN, PATTERN, RANKER)

_DEF_TAGS = frozenset({NN, NNS, LINK, NOUN_PHRASE})
_RUN_TAGS = frozenset({DT, JJ, NN, NNS, NOUN_PHRASE})


@dataclass(frozen=True)
class Relation:
    """An (identifier, definition) pair with extraction score."""

    identifier: Identifier
    definition: str
    score: float
    method: str
    doc_id: Optional[str] = None


@dataclass
class RankerParams:
    """Weights and widths of the probabilistic ranking formula."""

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 0.1
    sigma_d: float = 5.0  # token-distance Gaussian width, in tokens
    sigma_s: float = 2.0  # sentence-distance Gaussian width, in sentences
    retain_threshold: float = 0.4

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise ValueError("weights must be non-negative")
        if self.alpha + self.beta + self.gamma <= 0:
            raise ValueError("at least one weight must be positive")
        if self.sigma_d <= 0 or self.sigma_s <= 0:
            raise ValueError("Gaussian widths must be positive")
        if not 0.0 <= self.retain_threshold <= 1.0:
            raise ValueError("retain_threshold must be in [0, 1]")


@dataclass
class PreparedDocument:
    """A document after tokenization, tagging, annotation and chunking."""

    document: Document
    sentences: list[list[TaggedToken]]
    identifiers: dict[str, Identifier] = field(default_factory=dict)

    def flat_tokens(self) -> list[tuple[int, TaggedToken]]:
        """Tokens in reading order with their global positions."""
        out = []
        pos = 0
        for sentence in self.sentences:
            for tok in sentence:
                out.append((pos, tok))
                pos += 1
        return out

    @cached_property
    def ranking_table(self) -> tuple[list, dict[str, tuple[int, list[int]]]]:
        """For ``rank_candidates``: the noun-like candidates as ``(pos, token,
        tf)``, and per identifier key the sentence of its first occurrence
        and its sorted positions."""
        counts = [Counter(t.text for t in sentence) for sentence in self.sentences]
        candidates, occurrences = [], {}
        for pos, tok in self.flat_tokens():
            s = tok.sentence_idx
            if tok.tag == ID:
                occurrences.setdefault(tok.text, (s, []))[1].append(pos)
            if tok.tag in _DEF_TAGS:
                candidates.append((pos, tok, counts[s][tok.text] / len(self.sentences[s])))
        return candidates, occurrences


def prepare_document(
    doc: Document,
    formula_identifiers: Sequence[Sequence[Identifier]],
    lexicon: Lexicon | None = None,
) -> PreparedDocument:
    """Run the full text pipeline for one document."""
    if lexicon is None:
        lexicon = Lexicon.default()
    identifiers: dict[str, Identifier] = {}
    for ids in formula_identifiers:
        for ident in ids:
            identifiers.setdefault(ident.key, ident)
    sentences = textproc.tokenize_sentences(doc.body)
    tagged = textproc.pos_tag(sentences, lexicon)
    annotated = textproc.annotate_math(tagged, formula_identifiers, identifiers)
    chunked = textproc.chunk_phrases(annotated)
    return PreparedDocument(document=doc, sentences=chunked, identifiers=identifiers)


def prepare_corpus(corpus: Corpus, lexicon: Lexicon | None = None) -> list[PreparedDocument]:
    if lexicon is None:
        lexicon = Lexicon.default()
    return [
        prepare_document(doc, corpus.formula_identifiers[doc.doc_id], lexicon)
        for doc in corpus.documents
    ]


def _identifier_of(tok: TaggedToken) -> Identifier:
    if tok.identifier is not None:
        return tok.identifier
    base, _, sub = tok.text.partition("_")
    return Identifier(base=base, subscript=sub or None, display=tok.text)


def nearest_noun(sentence: Sequence[TaggedToken], id_idx: int) -> Optional[Relation]:
    """Extract the noun run immediately preceding an identifier.

    Scanning left from the identifier, the contiguous run may contain
    determiners, adjectives and nouns; it must contain at least one
    noun.  Determiners are dropped from the returned definition.
    """
    if sentence[id_idx].tag != ID:
        return None
    run: list[TaggedToken] = []
    j = id_idx - 1
    while j >= 0 and sentence[j].tag in _RUN_TAGS:
        run.append(sentence[j])
        j -= 1
    run.reverse()
    if not any(tok.tag in (NN, NNS, NOUN_PHRASE) for tok in run):
        return None
    definition = " ".join(tok.text for tok in run if tok.tag != DT)
    return Relation(
        identifier=_identifier_of(sentence[id_idx]),
        definition=definition,
        score=1.0,
        method=NEAREST_NOUN,
    )


# Pattern language: IDE matches an ID token, DEF an optional determiner
# followed by a noun-like token, literals match lower-cased token text.
_IDE = ("ide",)
_DEF = ("def",)


def _lit(*words: str):
    return ("lit", frozenset(words))


def _opt(*words: str):
    return ("opt", frozenset(words))


PATTERNS: list[tuple[str, list]] = [
    ("IDE DEF", [_IDE, _DEF]),
    ("DEF IDE", [_DEF, _IDE]),
    ("let IDE be DEF", [_lit("let", "set"), _IDE, _lit("denote", "denotes", "be"), _DEF]),
    (
        "DEF is denoted by IDE",
        [_DEF, _lit("is", "are"), _lit("denoted", "defined", "given"), _opt("as", "by"), _IDE],
    ),
    (
        "IDE denotes DEF",
        [_IDE, _lit("denotes", "denote", "stand", "stands"), _opt("as", "by"), _DEF],
    ),
    ("IDE is DEF", [_IDE, _lit("is", "are"), _DEF]),
    ("DEF is IDE", [_DEF, _lit("is", "are"), _IDE]),
]


def _match_at(sentence: Sequence[TaggedToken], start: int, pattern: list):
    pos = start
    ide = None
    definition = None
    for element in pattern:
        kind = element[0]
        if kind == "ide":
            if pos >= len(sentence) or sentence[pos].tag != ID:
                return None
            ide = sentence[pos]
            pos += 1
        elif kind == "def":
            if pos < len(sentence) and sentence[pos].tag == DT:
                pos += 1
            if pos >= len(sentence) or sentence[pos].tag not in _DEF_TAGS:
                return None
            definition = sentence[pos]
            pos += 1
        elif kind == "lit":
            if pos >= len(sentence) or sentence[pos].text.lower() not in element[1]:
                return None
            pos += 1
        elif kind == "opt":
            if pos < len(sentence) and sentence[pos].text.lower() in element[1]:
                pos += 1
    if ide is None or definition is None:
        return None
    return ide, definition


def match_patterns(sentence: Sequence[TaggedToken]) -> list[Relation]:
    """Apply the full pattern list; overlapping matches all reported."""
    found = []
    for start in range(len(sentence)):
        for _, pattern in PATTERNS:
            hit = _match_at(sentence, start, pattern)
            if hit is None:
                continue
            ide, definition = hit
            found.append(
                Relation(
                    identifier=_identifier_of(ide),
                    definition=definition.text,
                    score=1.0,
                    method=PATTERN,
                )
            )
    return found


def ranker_score(delta: float, n_sentences: float, tf: float, params: RankerParams) -> float:
    """Weighted mean of two unnormalized Gaussians and a term frequency.

    The Gaussians are exp(-x^2 / (2 sigma^2)), so both equal 1 at
    distance zero and the result stays in [0, 1] for tf in [0, 1].
    """
    r_d = math.exp(-(delta**2) / (2.0 * params.sigma_d**2))
    r_s = math.exp(-(n_sentences**2) / (2.0 * params.sigma_s**2))
    total = params.alpha * r_d + params.beta * r_s + params.gamma * tf
    return total / (params.alpha + params.beta + params.gamma)


def rank_candidates(
    doc: PreparedDocument, identifier_key: str, params: RankerParams | None = None
) -> list[tuple[TaggedToken, float]]:
    """Score every noun-like token as a definition candidate.

    Token distance is taken to the nearest occurrence of the identifier;
    sentence distance to the sentence of its first occurrence.  Sorted
    by descending score, ties broken by smaller distance, then earlier
    position.

    Candidates, ``tf`` and occurrences come from ``doc.ranking_table``,
    built once per document.  The nearest occurrence is one of the two
    that bisection puts around the candidate, so ``delta`` is the same
    minimum over all occurrences.  The score is ``ranker_score``'s
    expression, bit for bit, inlined with its denominators computed once
    per call: a table of Gaussians per distinct distance was measured no
    faster, since a dict lookup costs about as much as ``math.exp``.
    """
    if params is None:
        params = RankerParams()
    candidates, occurrences = doc.ranking_table
    if identifier_key not in occurrences:
        raise IdentifierNotInDocument(identifier_key)
    first_sentence, occ_positions = occurrences[identifier_key]
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    weight = alpha + beta + gamma
    width_d, width_s = 2.0 * params.sigma_d**2, 2.0 * params.sigma_s**2
    scored = []
    for pos, tok, tf in candidates:
        at = bisect_left(occ_positions, pos)
        nearby = occ_positions[max(0, at - 1) : at + 1]
        delta = min(abs(pos - nearby[0]), abs(pos - nearby[-1]))
        n_sent = abs(tok.sentence_idx - first_sentence)
        r_d = math.exp(-(delta**2) / width_d)
        r_s = math.exp(-(n_sent**2) / width_s)
        score = (alpha * r_d + beta * r_s + gamma * tf) / weight
        scored.append((-score, delta, pos, tok))
    scored.sort()  # positions are unique, so tokens are never compared
    return [(tok, -neg_score) for neg_score, _, _, tok in scored]


def extract_relations(
    doc: PreparedDocument,
    method: str = RANKER,
    params: RankerParams | None = None,
    definition_stop: frozenset[str] = frozenset(),
) -> list[Relation]:
    """Run one extraction method over a prepared document.

    Results are deduplicated per (identifier, definition), keeping the
    maximum score; stop-listed and empty definitions are dropped.
    """
    if method not in METHODS:
        raise ValueError(f"unknown extraction method {method!r}")
    raw: list[Relation] = []
    if method == NEAREST_NOUN:
        for sentence in doc.sentences:
            for idx, tok in enumerate(sentence):
                if tok.tag == ID:
                    rel = nearest_noun(sentence, idx)
                    if rel is not None:
                        raw.append(rel)
    elif method == PATTERN:
        for sentence in doc.sentences:
            raw.extend(match_patterns(sentence))
    else:
        if params is None:
            params = RankerParams()
        for key in sorted(doc.ranking_table[1]):
            ident = doc.identifiers.get(key) or Identifier(base=key, display=key)
            for tok, score in rank_candidates(doc, key, params):
                if score >= params.retain_threshold:
                    raw.append(
                        Relation(
                            identifier=ident,
                            definition=tok.text,
                            score=score,
                            method=RANKER,
                        )
                    )
        del doc.ranking_table  # needed only while this document is ranked
    best: dict[tuple[str, str], Relation] = {}
    for rel in raw:
        definition = rel.definition.strip()
        if not definition or definition.lower() in definition_stop:
            continue
        key = (rel.identifier.key, definition)
        if key not in best or rel.score > best[key].score:
            best[key] = Relation(
                identifier=rel.identifier,
                definition=definition,
                score=rel.score,
                method=rel.method,
                doc_id=doc.document.doc_id,
            )
    return [best[k] for k in sorted(best)]
