"""Identifier-definition extraction.

Three methods produce scored relations: the nearest-noun rule, a
pattern matcher over tagged tokens, and a probabilistic ranker that
scores candidates by two Gaussians (token distance, sentence distance)
plus in-sentence term frequency.  ``extract_relations`` scores only the
candidates whose bound on the score reaches ``retain_threshold``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

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
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise ValueError("weights must be non-negative")
        if self.alpha + self.beta + self.gamma <= 0:
            raise ValueError("at least one weight must be positive")
        if self.sigma_d <= 0 or self.sigma_s <= 0:
            raise ValueError("Gaussian widths must be positive")
        for name in ("sigma_d", "sigma_s"):
            sigma = getattr(self, name)
            try:
                width = 2.0 * sigma**2
            except OverflowError:
                width = math.inf
            if not 0.0 < width < math.inf:  # the rankers divide by it
                raise ValueError(f"{name} must have 2*{name}**2 finite and nonzero, got {sigma!r}")
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
        return list(enumerate(tok for sentence in self.sentences for tok in sentence))

    @cached_property
    def ranking_table(self) -> tuple[list[int], list, list[int], dict, Callable]:
        """For the ranker: the noun-like candidates' positions and tokens, the
        index of each sentence's first candidate (one more entry closes the
        last range), per identifier key the sentence of its first occurrence
        and its sorted positions, and a ``tf`` of a candidate that counts
        each sentence's tokens once, when first asked."""
        positions, tokens, occurrences, counts = [], [], {}, {}
        for pos, tok in self.flat_tokens():
            if tok.tag == ID:
                occurrences.setdefault(tok.text, (tok.sentence_idx, []))[1].append(pos)
            elif tok.tag in _DEF_TAGS:
                positions.append(pos)
                tokens.append(tok)
        sentence_of = [tok.sentence_idx for tok in tokens]
        starts = [bisect_left(sentence_of, s) for s in range(len(self.sentences) + 1)]

        def tf(tok: TaggedToken) -> float:
            s = tok.sentence_idx
            if s not in counts:
                counts[s] = Counter(t.text for t in self.sentences[s])
            return counts[s][tok.text] / len(self.sentences[s])

        return positions, tokens, starts, occurrences, tf


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


def _scores(doc: PreparedDocument, key: str, params: RankerParams, indices: Iterable[int]):
    """``(score, delta, pos, token)`` of the ``doc.ranking_table`` candidates at ``indices``.

    ``delta`` is to the nearer of the two occurrences that bisection puts
    around the candidate, so it is the minimum over all of them.  The
    score is ``ranker_score``'s expression, bit for bit, with its
    denominators computed once: a table of Gaussians per distinct
    distance was measured no faster, since a dict lookup costs about as
    much as ``math.exp``.
    """
    positions, tokens, _, occurrences, tf = doc.ranking_table
    first_sentence, occ_positions = occurrences[key]
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    weight = alpha + beta + gamma
    width_d, width_s = 2.0 * params.sigma_d**2, 2.0 * params.sigma_s**2
    for i in indices:
        pos, tok = positions[i], tokens[i]
        at = bisect_left(occ_positions, pos)
        nearby = occ_positions[max(0, at - 1) : at + 1]
        delta = min(abs(pos - nearby[0]), abs(pos - nearby[-1]))
        n_sent = abs(tok.sentence_idx - first_sentence)
        r_d = math.exp(-(delta**2) / width_d)
        r_s = math.exp(-(n_sent**2) / width_s)
        yield (alpha * r_d + beta * r_s + gamma * tf(tok)) / weight, delta, pos, tok


def rank_candidates(
    doc: PreparedDocument, identifier_key: str, params: RankerParams | None = None
) -> list[tuple[TaggedToken, float]]:
    """Score every noun-like token as a definition candidate.

    Token distance is taken to the nearest occurrence of the identifier;
    sentence distance to the sentence of its first occurrence.  Sorted
    by descending score, ties broken by smaller distance, then earlier
    position.  ``extract_relations`` scores with the same expression,
    but only the candidates that can reach ``retain_threshold`` (see
    ``_reach``).
    """
    if params is None:
        params = RankerParams()
    positions, _, _, occurrences, _ = doc.ranking_table
    if identifier_key not in occurrences:
        raise IdentifierNotInDocument(identifier_key)
    every = range(len(positions))
    scored = sorted(_scores(doc, identifier_key, params, every), key=lambda c: (-c[0], c[1], c[2]))
    return [(tok, score) for score, _, _, tok in scored]


def _reach(n_sentences: int, params: RankerParams) -> tuple[int, float]:
    """``(free, radius)`` for ``_within_reach``; T is retain_threshold, W the weight sum.

    As tf <= 1, a candidate at sentence distance s reaches T only if
    alpha * r_d >= need(s) = T * W - gamma - beta * r_s(s).  ``free``
    counts the sentence distances up to the last s with need <= 0, where
    every token distance passes; ``radius`` is the largest token distance
    that passes at another s, sqrt(ln(alpha / need) * 2 sigma_d^2), or -1.0.
    ``need`` is lowered by 1e-9 W, far above the rounding on either side.
    """
    alpha, beta, weight = params.alpha, params.beta, params.alpha + params.beta + params.gamma
    width_d, width_s = 2.0 * params.sigma_d**2, 2.0 * params.sigma_s**2
    floor = params.retain_threshold * weight - params.gamma - 1e-9 * weight
    free, radius = 0, -1.0
    for s in range(n_sentences):
        need = floor - beta * math.exp(-(s**2) / width_s)
        if need <= 0:
            free = s + 1
        elif need <= alpha:
            radius = max(radius, math.sqrt(math.log(alpha / need) * width_d))
    return free, radius


def _within_reach(doc: PreparedDocument, identifier_key: str, free: int, radius: float) -> set:
    """Indices of the candidates fewer than ``free`` sentences from the first
    occurrence, or at most ``radius`` tokens from any (none when it is -1)."""
    positions, _, starts, occurrences, _ = doc.ranking_table
    first, occ_positions = occurrences[identifier_key]
    near = set(range(starts[max(0, first - free + 1)], starts[min(first + free, len(starts) - 1)]))
    for q in occ_positions:
        near.update(range(bisect_left(positions, q - radius), bisect_right(positions, q + radius)))
    return near


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
    # (identifier, definition, score, method) of every candidate relation
    if method == NEAREST_NOUN:
        rels = (nearest_noun(s, i) for s in doc.sentences for i, t in enumerate(s) if t.tag == ID)
        found = [(r.identifier, r.definition, r.score, r.method) for r in rels if r is not None]
    elif method == PATTERN:
        rels = (r for sentence in doc.sentences for r in match_patterns(sentence))
        found = [(r.identifier, r.definition, r.score, r.method) for r in rels]
    else:
        found = []
        if params is None:
            params = RankerParams()
        free, radius = _reach(len(doc.sentences), params)
        for key in sorted(doc.ranking_table[3]):
            ident = doc.identifiers.get(key) or Identifier(base=key, display=key)
            # in any order: on equal scores the maximum below keeps equal relations
            near = _within_reach(doc, key, free, radius)
            for score, _, _, tok in _scores(doc, key, params, near):
                if score >= params.retain_threshold:
                    found.append((ident, tok.text, score, RANKER))
        del doc.ranking_table  # needed only while this document is ranked
    best: dict[tuple[str, str], tuple[Identifier, float, str]] = {}
    for ident, definition, score, how in found:
        definition = definition.strip()
        if not definition or definition.lower() in definition_stop:
            continue
        key = (ident.key, definition)
        if key not in best or score > best[key][1]:
            best[key] = (ident, score, how)
    return [
        Relation(ident, definition, score, how, doc.document.doc_id)
        for (_, definition), (ident, score, how) in sorted(best.items())
    ]
