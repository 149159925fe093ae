"""Identifier-definition extraction.

Three methods produce scored relations: the nearest-noun rule, a
pattern matcher over tagged tokens, and a probabilistic ranker that
scores candidates by two Gaussians (token distance, sentence distance)
plus in-sentence term frequency.  The ranker scores every candidate of
a document in one numpy table, with Gaussians read from tables kept per
width for the process; ``extract_relations`` thresholds it at
``retain_threshold`` and ``rank_candidates`` sorts a row of it.  Each
distinct definition text is stripped and stop-tested once per document.
``write_relations`` and ``read_relations`` own the relations file.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass, fields
from itertools import chain, count, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import textproc
from .corpus import Corpus, Document, Lines, identifier_key, split_key
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
# a record's line, as ``json.dumps(..., sort_keys=True)`` of its dict writes it
_RECORD_LINE = "{" + ", ".join(f'"{key}": %s' for key in sorted(_RELATION_KEYS)) + "}\n"


def write_relations(out_dir: str | Path, relations: Iterable[Relation]) -> None:
    """Write ``relations.jsonl``: one JSON object a line, in the order given,
    each written as it comes; the extract stage gives them sorted by
    document, identifier key and definition.  ``read_relations`` reads it back."""
    encode = functools.cache(json.dumps)  # each distinct string is encoded once
    last_id, id_json = object(), ""  # but a doc_id once per run of its relations
    with open(Path(out_dir) / RELATIONS_FILE, "w", encoding="utf-8") as fh:
        for key, definition, score, method, doc_id in relations:  # unpacked: keeps no relation
            base, sub = split_key(key)
            if doc_id != last_id:
                last_id, id_json = doc_id, json.dumps(doc_id)
            # the fields in sorted-key order; a finite float's JSON is its repr
            fields = encode(definition), id_json, encode(base), encode(method)
            fh.write(_RECORD_LINE % (*fields, float.__repr__(score), encode(sub)))


def read_relations(out_dir: str | Path) -> list[Relation]:
    """The relations of ``write_relations``'s file, parsed a line at a time.
    A ValueError names the file and line of a record that does not parse."""
    path, relations = Path(out_dir) / RELATIONS_FILE, []
    with Lines(path) as lines:
        for line in lines:
            try:
                doc_id, base, sub, definition, score, method = _record_values(json.loads(line))
            except (KeyError, TypeError) as exc:
                raise ValueError(f"not a relation record ({exc})") from None
            relations.append(Relation(identifier_key(base, sub), definition, score, method, doc_id))
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
    return Relation(sentence[id_idx].text, definition, 1.0, NEAREST_NOUN)


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
            if hit is not None:
                found.append(Relation(hit[0].text, hit[1].text, 1.0, PATTERN))
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


_text, _tag = itemgetter(0), itemgetter(1)  # of a TaggedToken
_KINDS = {ID: 1, **dict.fromkeys(_DEF_TAGS, 2)}  # of a tag: 1 a key, 2 a candidate, else 0
_GAUSSIANS: dict[float, np.ndarray] = {}  # width: its table


def _gaussian(width: float, upto: int) -> np.ndarray:
    """``ranker_score``'s ``math.exp(-(x**2) / width)`` at x = 0, 1, ..., ``upto``
    or more, bit for bit; kept per width for the process, grown only as needed."""
    table = _GAUSSIANS.get(width, np.empty(0))
    if len(table) <= upto:
        grown = [math.exp(-(x**2) / width) for x in range(len(table), upto + 1)]
        table = _GAUSSIANS[width] = np.concatenate([table, grown])
    return table


def _score_table(doc: PreparedDocument, params: RankerParams):
    """``(keys, candidates, scores, deltas)``: each identifier key of ``doc``,
    sorted, and each noun-like token in reading order, with a keys ×
    candidates array of scores and one of token distances.

    Token distance is to the key's nearest occurrence, sentence distance
    to the sentence of its first.  The scores are ``ranker_score``'s, bit
    for bit: the Gaussians are ``_gaussian``'s tables indexed by distance,
    and numpy's elementwise ``*``, ``+`` and ``/`` round as Python floats
    do.  Memory is per document, one cell per (identifier occurrence,
    candidate): 6 840 at most on the bench's ingest-long corpus at seed 1.
    """
    flat = list(chain.from_iterable(doc.sentences))
    kinds = np.fromiter(map(_KINDS.get, map(_tag, flat), repeat(0)), np.int8, len(flat))
    positions = np.flatnonzero(kinds == 2)
    candidates = list(map(flat.__getitem__, positions.tolist()))
    occurrences: dict[str, list[int]] = {}  # key: its positions
    for pos in np.flatnonzero(kinds == 1).tolist():
        occurrences.setdefault(flat[pos].text, []).append(pos)
    keys = sorted(occurrences)
    # the grid's rows are every key's occurrence positions, key by key; starts[i] is keys[i]'s first
    starts, rows = [], []
    for key in keys:
        starts.append(len(rows))
        rows += occurrences[key]
    rows, starts = np.array(rows, np.intp), np.array(starts, np.intp)
    deltas = np.minimum.reduceat(np.abs(np.subtract.outer(rows, positions)), starts, axis=0)
    lengths = np.array(list(map(len, doc.sentences)), np.intp)
    sentence_of = np.repeat(np.arange(len(lengths)), lengths)  # of each token
    n_sent = np.abs(np.subtract.outer(sentence_of[rows[starts]], sentence_of[positions]))
    r_d = _gaussian(params.width_d, int(deltas.max(initial=0)))
    r_s = _gaussian(params.width_s, int(n_sent.max(initial=0)))
    # tf: the count of the candidate's text in its sentence, over the sentence's length;
    # a token's id is the first position of its (text, sentence) pair
    pairs = zip(map(_text, flat), sentence_of.tolist())
    first = np.fromiter(map({}.setdefault, pairs, count()), np.intp, len(flat))
    tf = np.bincount(first, minlength=len(flat))[first[positions]] / lengths[sentence_of[positions]]
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
    # (identifier, definition text, score) of every candidate relation
    if method == NEAREST_NOUN:
        rels = (nearest_noun(s, i) for s in doc.sentences for i, t in enumerate(s) if t.tag == ID)
        found = [r[:3] for r in rels if r is not None]
    elif method == PATTERN:
        found = [r[:3] for sentence in doc.sentences for r in match_patterns(sentence)]
    else:
        params = RankerParams() if params is None else params
        keys, candidates, scores, _ = _score_table(doc, params)
        rows, cols = np.nonzero(scores >= params.retain_threshold)
        kept = zip(rows.tolist(), cols.tolist(), scores[rows, cols].tolist())
        found = [(keys[i], candidates[j].text, score) for i, j, score in kept]
    clean: dict[str, str] = {}  # each distinct text's definition, "" when it is dropped
    best: dict[tuple[str, str], float] = {}
    for ident, text, score in found:
        if (definition := clean.get(text)) is None:
            definition = text.strip()
            definition = clean[text] = "" if definition.lower() in definition_stop else definition
        pair = (ident, definition)
        if definition and (pair not in best or score > best[pair]):
            best[pair] = score
    return [
        Relation(ident, definition, score, method, doc.document.doc_id)
        for (ident, definition), score in sorted(best.items())
    ]
