"""Identifier-definition extraction.

Three methods produce scored relations: the nearest-noun rule, a
pattern matcher over tagged tokens, and a probabilistic ranker that
scores candidates by two Gaussians (token distance, sentence distance)
plus in-sentence term frequency.  The ranker scores every candidate of
a document in one table, which ``extract_relations`` thresholds at
``retain_threshold`` and ``rank_candidates`` sorts a row of.
``write_relations`` and ``read_relations`` own the relations file.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, fields
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import textproc
from .corpus import Corpus, Document, identifier_key, split_key
from .errors import IdentifierNotInDocument
from .textproc import DT, ID, JJ, LINK, NN, NNS, NOUN_PHRASE, Lexicon, TaggedToken

NEAREST_NOUN = "nearest_noun"
PATTERN = "pattern"
RANKER = "ranker"

METHODS = (NEAREST_NOUN, PATTERN, RANKER)

_DEF_TAGS = frozenset({NN, NNS, LINK, NOUN_PHRASE})
_RUN_TAGS = frozenset({DT, JJ, NN, NNS, NOUN_PHRASE})


class Relation(NamedTuple):
    """An (identifier key, definition) pair with extraction score."""

    identifier: str
    definition: str
    score: float
    method: str
    doc_id: Optional[str] = None


RELATIONS_FILE = "relations.jsonl"
# the keys of a relations file record, in the order of ``_record_values``
_RELATION_KEYS = ("doc_id", "identifier", "subscript", "definition", "score", "method")
_record_values = itemgetter(*_RELATION_KEYS)


def write_relations(out_dir: str | Path, relations: Iterable[Relation]) -> None:
    """Write ``relations.jsonl``: one JSON object a line, sorted by document,
    identifier key and definition, each written as it is made.
    ``read_relations`` reads it back."""
    ordered = sorted(relations, key=lambda r: (r.doc_id, r.identifier, r.definition))
    with open(Path(out_dir) / RELATIONS_FILE, "w", encoding="utf-8") as fh:
        for r in ordered:
            record = (r.doc_id, *split_key(r.identifier), r.definition, r.score, r.method)
            fh.write(json.dumps(dict(zip(_RELATION_KEYS, record)), sort_keys=True) + "\n")


def read_relations(out_dir: str | Path) -> list[Relation]:
    """The relations of ``write_relations``'s file, parsed a line at a time."""
    relations = []
    with open(Path(out_dir) / RELATIONS_FILE, encoding="utf-8") as lines:
        for line in lines:
            if line.strip():
                doc_id, base, sub, definition, score, method = _record_values(json.loads(line))
                key = identifier_key(base, sub)
                relations.append(Relation(key, definition, score, method, doc_id))
    return relations


@dataclass(frozen=True)
class RankerParams:
    """Ranking weights and widths; frozen, so the derived weight, width_d and width_s hold."""

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
        object.__setattr__(self, "weight", self.alpha + self.beta + self.gamma)
        if not math.isfinite(self.weight):  # ranker_score would be nan
            raise ValueError(f"alpha + beta + gamma must be finite, got {self.weight!r}")
        # below it, alpha * r_d loses all precision: 5e-324 * 0.6 rounds to 5e-324
        if self.weight < sys.float_info.min:
            raise ValueError(f"alpha + beta + gamma must be a normal float, got {self.weight!r}")
        if self.sigma_d <= 0 or self.sigma_s <= 0:
            raise ValueError("Gaussian widths must be positive")
        for name, width_name in (("sigma_d", "width_d"), ("sigma_s", "width_s")):
            sigma = getattr(self, name)
            try:
                width = 2.0 * sigma**2
            except OverflowError:
                width = math.inf
            if not 0.0 < width < math.inf:  # the rankers divide by it
                raise ValueError(f"{name} must have 2*{name}**2 finite and nonzero, got {sigma!r}")
            object.__setattr__(self, width_name, width)
        if not 0.0 <= self.retain_threshold <= 1.0:
            raise ValueError("retain_threshold must be in [0, 1]")


@dataclass
class PreparedDocument:
    """A document after tokenization, tagging, annotation and chunking."""

    document: Document
    sentences: list[list[TaggedToken]]

    def flat_tokens(self) -> list[tuple[int, TaggedToken]]:
        """Tokens in reading order with their global positions."""
        return list(enumerate(tok for sentence in self.sentences for tok in sentence))


def prepare_document(doc: Document, lexicon: Lexicon | None = None) -> PreparedDocument:
    """Run the full text pipeline for one document."""
    if lexicon is None:
        lexicon = Lexicon.default()
    sentences = textproc.tokenize_sentences(doc.body)
    tagged = textproc.pos_tag(sentences, lexicon)
    annotated = textproc.annotate_math(tagged, doc.identifiers, doc.identifier_counts)
    chunked = textproc.chunk_phrases(annotated)
    return PreparedDocument(document=doc, sentences=chunked)


def prepare_corpus(corpus: Corpus, lexicon: Lexicon | None = None) -> Iterator[PreparedDocument]:
    """Each document prepared in corpus order, only when the caller asks for it."""
    if lexicon is None:
        lexicon = Lexicon.default()
    for doc in corpus.documents:
        yield prepare_document(doc, lexicon)


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
        identifier=sentence[id_idx].text,
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
                    identifier=ide.text,
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
    r_d = math.exp(-(delta**2) / params.width_d)
    r_s = math.exp(-(n_sentences**2) / params.width_s)
    total = params.alpha * r_d + params.beta * r_s + params.gamma * tf
    return total / params.weight


def _score_table(doc: PreparedDocument, params: RankerParams):
    """``(keys, candidates, scores, deltas)``: each identifier key of ``doc``,
    sorted, and each noun-like token in reading order, with a keys ×
    candidates array of scores and one of token distances.

    Token distance is to the key's nearest occurrence, sentence distance
    to the sentence of its first.  The scores are ``ranker_score``'s, bit
    for bit: the Gaussians are ``math.exp`` tables indexed by distance,
    and numpy's elementwise ``*``, ``+`` and ``/`` round as Python floats
    do.  Memory is per document, one cell per (identifier occurrence,
    candidate): 6 840 at most on the bench's ingest-long corpus at seed 1.
    """
    occurrences: dict[str, tuple[int, list[int]]] = {}  # key: (first sentence, positions)
    positions, candidates = [], []
    for pos, tok in doc.flat_tokens():
        if tok.tag == ID:
            occurrences.setdefault(tok.text, (tok.sentence_idx, []))[1].append(pos)
        elif tok.tag in _DEF_TAGS:
            positions.append(pos)
            candidates.append(tok)
    keys = sorted(occurrences)
    # the grid's rows are every key's occurrence positions, key by key; starts[i] is keys[i]'s first
    starts, rows = [], []
    for key in keys:
        starts.append(len(rows))
        rows += occurrences[key][1]
    grid = np.abs(np.subtract.outer(np.array(rows, np.intp), np.array(positions, np.intp)))
    deltas = np.minimum.reduceat(grid, np.array(starts, np.intp), axis=0)
    firsts = np.array([occurrences[key][0] for key in keys], np.intp)
    sentence_of = np.array([tok.sentence_idx for tok in candidates], np.intp)
    n_sent = np.abs(np.subtract.outer(firsts, sentence_of))
    r_d = np.array([math.exp(-(d**2) / params.width_d) for d in range(deltas.max(initial=0) + 1)])
    r_s = np.array([math.exp(-(s**2) / params.width_s) for s in range(n_sent.max(initial=0) + 1)])
    counts = Counter((s, tok.text) for s, sentence in enumerate(doc.sentences) for tok in sentence)
    tf = np.array([counts[s, text] / len(doc.sentences[s]) for text, _, s, _ in candidates])
    alpha, beta, gamma = params.alpha, params.beta, params.gamma
    scores = (alpha * r_d[deltas] + beta * r_s[n_sent] + gamma * tf) / params.weight
    return keys, candidates, scores, deltas


def rank_candidates(
    doc: PreparedDocument, identifier_key: str, params: RankerParams | None = None
) -> list[tuple[TaggedToken, float]]:
    """Score every noun-like token as a definition candidate.

    Token distance is taken to the nearest occurrence of the identifier;
    sentence distance to the sentence of its first occurrence.  Sorted
    by descending score, ties broken by smaller distance, then earlier
    position.  This is one row of the score table that
    ``extract_relations`` thresholds.
    """
    if params is None:
        params = RankerParams()
    keys, candidates, scores, deltas = _score_table(doc, params)
    if identifier_key not in keys:
        raise IdentifierNotInDocument(identifier_key)
    row = keys.index(identifier_key)
    # lexsort is stable, so candidates with equal score and distance keep reading order
    order = np.lexsort((deltas[row], -scores[row]))
    return [(candidates[j], float(scores[row, j])) for j in order]


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
        if params is None:
            params = RankerParams()
        keys, candidates, scores, _ = _score_table(doc, params)
        rows, cols = np.nonzero(scores >= params.retain_threshold)
        kept = zip(rows.tolist(), cols.tolist(), scores[rows, cols].tolist())
        found = [(keys[i], candidates[j].text, score, RANKER) for i, j, score in kept]
    best: dict[tuple[str, str], tuple[float, str]] = {}
    for ident, definition, score, how in found:
        definition = definition.strip()
        if not definition or definition.lower() in definition_stop:
            continue
        pair = (ident, definition)
        if pair not in best or score > best[pair][0]:
            best[pair] = (score, how)
    return [
        Relation(ident, definition, score, how, doc.document.doc_id)
        for (ident, definition), (score, how) in sorted(best.items())
    ]
