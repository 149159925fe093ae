"""Corpus parsing, identifier extraction and dataset statistics.

The corpus format is JSONL with one document per line and fields
``doc_id``, ``title``, ``text`` and ``category``.  Inline formulas are
delimited by ``$...$`` and use a small TeX subset: identifiers are
``\\greekname`` commands, non-ASCII letter symbols and each letter of an
ASCII letter run that is not stop-listed (``sin`` is).  The ``_x`` /
``_{...}`` and ``^...`` scripts right after a command, a symbol or a
run's last letter are read in one pass; the first non-empty ``_`` script
is its subscript, and the rest is discarded.  Anything else is treated
as operator or noise.
"""

from __future__ import annotations

import json
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional

from .errors import DuplicateDocId, ExcludedSymbol, MathnsError, UnbalancedFormulaDelimiter

# the body's token for formula i is PLACEHOLDER_PREFIX + str(i); the body is
# split on "$", so no prose can spell one
PLACEHOLDER_PREFIX = "$"

_GREEK_LOWER = (
    "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu "
    "xi omicron pi rho sigma tau upsilon phi chi psi omega"
).split()
_GREEK_UPPER = "Gamma Delta Theta Lambda Xi Pi Sigma Upsilon Phi Psi Omega".split()
_GREEK_VARIANTS = {
    "varepsilon": "epsilon",
    "vartheta": "theta",
    "varpi": "pi",
    "varrho": "rho",
    "varsigma": "sigma",
    "varphi": "phi",
}

GREEK_COMMANDS = frozenset(_GREEK_LOWER) | frozenset(_GREEK_UPPER) | frozenset(_GREEK_VARIANTS)

# Commands that only change the visual appearance of their argument.
_WRAPPER_COMMANDS = (
    "bar hat vec tilde dot ddot overline underline widehat widetilde "
    "mathbf mathbb mathcal mathfrak mathrm mathit mathsf boldsymbol bm"
).split()

def _greek_codepoint_name(name: str) -> str:
    # Unicode spells the letter without the 'b'
    return "LAMDA" if name.upper() == "LAMBDA" else name.upper()


_GREEK_CHAR_TO_NAME: dict[str, str] = {}
for _name in _GREEK_LOWER:
    _GREEK_CHAR_TO_NAME[
        unicodedata.lookup(f"GREEK SMALL LETTER {_greek_codepoint_name(_name)}")
    ] = _name
for _name in _GREEK_UPPER:
    _GREEK_CHAR_TO_NAME[
        unicodedata.lookup(f"GREEK CAPITAL LETTER {_greek_codepoint_name(_name)}")
    ] = _name
_GREEK_CHAR_TO_NAME["\u03d1"] = "theta"    # script theta
_GREEK_CHAR_TO_NAME["\u03d5"] = "phi"      # script phi
_GREEK_CHAR_TO_NAME["\u03f5"] = "epsilon"  # lunate epsilon
_GREEK_CHAR_TO_NAME["\u2207"] = "nabla"    # kept despite its block, used as identifier

# Unicode blocks fully excluded as one-symbol false identifiers.  nabla is
# the single exception inside Mathematical Operators.
_EXCLUDED_BLOCKS = (
    (0x02B0, 0x02FF),  # Spacing Modifier Letters
    (0x2190, 0x21FF),  # Arrows
    (0x2200, 0x22FF),  # Mathematical Operators
    (0x2300, 0x23FF),  # Miscellaneous Technical
    (0x2500, 0x257F),  # Box Drawing
    (0x25A0, 0x25FF),  # Geometric Shapes
    (0x2600, 0x26FF),  # Miscellaneous Symbols
    (0x2A00, 0x2AFF),  # Supplemental Mathematical Operators
)

_LETTERLIKE_FIXES = {
    "\u0127": "h",  # stroked h left over from folding hbar
    "\u0131": "i",
    "\u0237": "j",
}

_ASCII_OPERATORS = frozenset("=+-*/^_'(){}[]<>|,.;:!?~&%$#@\"`\\ \t\n")
_COMMAND_RE = re.compile(r"\\[A-Za-z]+")
_LETTERS_RE = re.compile(r"[A-Za-z]+")


def identifier_key(base: str, subscript: Optional[str] = None) -> str:
    """The key of a normalized identifier, e.g. x, sigma or x_1, by which
    every stage past ``scan_formula`` knows it."""
    return f"{base}_{subscript}" if subscript else base


def split_key(key: str) -> tuple[str, Optional[str]]:
    """``(base, subscript or None)`` of an ``identifier_key``.  It inverts
    that, as no base (all letters) and no subscript (see ``_subscript_text``)
    holds ``_``."""
    base, _, subscript = key.partition("_")
    return base, subscript or None


@dataclass
class StopLists:
    """Case-insensitive stop lists for false identifiers and definitions."""

    symbol_stop: frozenset[str] = frozenset()
    definition_stop: frozenset[str] = frozenset()

    def is_stopped_symbol(self, s: str) -> bool:
        return s.lower() in self.symbol_stop


class Lines:
    """The non-blank lines of a UTF-8 file, each without its newline, read
    one at a time in text mode, which splits at ``\\n``, ``\\r\\n`` and
    ``\\r`` only.  ``line`` is the number of the line last read, blank lines
    counted.  The file is open inside a ``with Lines(path) as lines:`` block,
    which puts ``{path}, line {n}: `` before the message of a ValueError or
    MathnsError raised in it and keeps the type; a line that is not UTF-8
    or not JSON gives a ValueError."""

    def __init__(self, path: str | Path):
        self.path, self.line = path, 0

    def __enter__(self) -> "Lines":
        self._file = open(self.path, encoding="utf-8", errors="surrogateescape")
        return self

    def __iter__(self) -> Iterator[str]:
        for self.line, text in enumerate(self._file, 1):
            if not text.isascii():  # a byte that is not UTF-8 raises in its own line
                text.encode("utf-8", "surrogateescape").decode("utf-8")
            if not text.isspace():
                yield text.removesuffix("\n")

    def __exit__(self, kind, exc, traceback) -> None:
        self._file.close()
        if isinstance(exc, UnicodeDecodeError):  # its position counts from the line's start
            exc = ValueError(f"not UTF-8 ({exc.reason})")
        elif isinstance(exc, json.JSONDecodeError):  # its line is always 1
            exc = ValueError(f"{exc.msg} (column {exc.colno})")
        if isinstance(exc, (ValueError, MathnsError)):
            raise type(exc)(f"{self.path}, line {self.line}: {exc}") from None


def read_json(path: str | Path):
    """The JSON value of a UTF-8 file; a ValueError names the file."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: {exc}") from None


def tab_pair(line: str) -> tuple[str, ...]:
    """The two tab-separated fields of a line of a labels or lexicon file."""
    pair = tuple(line.split("\t"))
    if len(pair) != 2:
        raise ValueError("expected two fields split by one tab")
    return pair


def load_stop_list(path: str | Path) -> frozenset[str]:
    """Read a stop list file: UTF-8, one entry per line, ``#`` comments."""
    with Lines(path) as lines:
        entries = {line.split("#", 1)[0].strip().lower() for line in lines}
    return frozenset(entries - {""})


def default_stop_lists() -> StopLists:
    data = Path(__file__).parent / "data"
    return StopLists(
        symbol_stop=load_stop_list(data / "symbol_stop.txt"),
        definition_stop=load_stop_list(data / "definition_stop.txt"),
    )


@dataclass
class Document:
    """One identifier-bearing text unit of the corpus and its formulas' identifiers."""

    doc_id: str
    title: str
    category: str
    formulas: tuple[str, ...]
    body: str  # text with each formula replaced by a placeholder token
    identifiers: tuple[tuple[str, ...], ...] = ()  # keys, one tuple per formula
    identifier_counts: Counter = field(default_factory=Counter)


def parse_document(raw: dict) -> Document:
    """Parse one corpus record, locating ``$...$`` formula spans.

    Each formula is replaced in the body text by ``$<i>`` so the
    tokenizer can treat it as a single token.
    """
    if not isinstance(raw, dict) or raw.get("doc_id") is None or "text" not in raw:
        raise ValueError("corpus record needs a non-null doc_id and a text field")
    text = raw["text"]
    if not isinstance(text, str):
        kind = type(text).__name__
        raise ValueError(f"document {raw['doc_id']!r}: text must be a string, got {kind}")
    parts = text.split("$")
    if len(parts) % 2 == 0:
        raise UnbalancedFormulaDelimiter(
            f"document {raw['doc_id']!r}: unpaired '$' delimiter"
        )
    formulas: list[str] = []
    chunks: list[str] = []
    for i, part in enumerate(parts):
        if i % 2 == 0:
            chunks.append(part)
        else:
            chunks.append(f" {PLACEHOLDER_PREFIX}{len(formulas)} ")
            formulas.append(part.strip())
    return Document(
        doc_id=str(raw["doc_id"]),
        title="" if raw.get("title") is None else str(raw["title"]),  # null counts as absent
        category="" if raw.get("category") is None else str(raw["category"]),
        formulas=tuple(formulas),
        body="".join(chunks),
    )


def _fold_symbol(symbol: str) -> str:
    """Fold font variants to plain letters and strip diacritics."""
    decomposed = unicodedata.normalize("NFKD", symbol)
    kept = [ch for ch in decomposed if not unicodedata.combining(ch)]
    folded = unicodedata.normalize("NFKC", "".join(kept))
    return "".join(_LETTERLIKE_FIXES.get(ch, ch) for ch in folded)


def _in_excluded_block(ch: str) -> bool:
    if ch == "\u2207":  # nabla
        return False
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _EXCLUDED_BLOCKS)


def normalize_identifier(symbol: str, stops: StopLists | None = None) -> str:
    """Normalize one symbol from a formula into an identifier's base.

    Mathematical Alphanumeric Symbols and Letterlike Symbols fold to
    Basic Latin / Greek; bar/hat/vec diacritics are stripped; characters
    from excluded blocks and stop-listed symbols raise
    :class:`ExcludedSymbol`.
    """
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
    base = _GREEK_CHAR_TO_NAME.get(folded, folded)
    if not base.isalpha():
        raise ExcludedSymbol(f"{symbol!r} is not a letter symbol")
    if stops is not None and stops.is_stopped_symbol(base):
        raise ExcludedSymbol(f"{symbol!r} normalizes to a stop-listed base")
    return base


_WRAPPER_GROUP_RE = re.compile(
    r"\\(?:%s)\s*(\{[^{}]*\}|\\[A-Za-z]+|[^\s{}])" % "|".join(_WRAPPER_COMMANDS)
)


def _strip_wrappers(formula: str) -> str:
    """Remove appearance-only commands, keeping their arguments."""
    prev = None
    out = formula
    while prev != out:
        prev = out
        out = _WRAPPER_GROUP_RE.sub(
            lambda m: m.group(1)[1:-1] if m.group(1).startswith("{") else m.group(1),
            out,
        )
    return out


def _read_group(s: str, pos: int) -> tuple[str, int]:
    """Read one unit at ``pos``: a {...} group, a command, or one char."""
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
        return s[pos + 1 :], len(s)  # unterminated group: take the rest
    if s[pos] == "\\":
        m = _COMMAND_RE.match(s, pos)
        if m:
            return m.group(0), m.end()
        return s[pos : pos + 2], pos + 2
    return s[pos], pos + 1


def _subscript_text(raw: str) -> Optional[str]:
    """Normalize subscript content to a compact string."""
    text = raw
    for cmd in ("\\text", "\\mathrm", "\\mathit"):
        text = text.replace(cmd, "")
    for name in sorted(GREEK_COMMANDS, key=len, reverse=True):
        text = text.replace("\\" + name, _GREEK_VARIANTS.get(name, name))
    text = re.sub(r"[{}\\\s]", "", text)
    text = "".join(ch for ch in text if ch.isalnum() or ch in ",+-")
    return text or None


def scan_formula(formula: str, stops: StopLists | None = None) -> tuple[list[str], int]:
    """Extract identifiers from a formula; also count skipped fragments.

    Returns ``(keys, skipped)``: the ``identifier_key`` of each identifier
    in order, and the count of unknown commands, stop-listed letter runs
    and excluded symbols.
    """
    if stops is None:
        stops = StopLists()
    stopped = stops.is_stopped_symbol
    s = _strip_wrappers(formula)
    ids: list[str] = []
    skipped = 0
    pos, n = 0, len(s)
    while pos < n:
        ch = s[pos]
        if ch == "\\":
            m = _COMMAND_RE.match(s, pos)
            if not m:
                pos += 2
                continue
            pos, cmd = m.end(), m.group(0)[1:]
            base = _GREEK_VARIANTS.get(cmd, cmd)
            if cmd not in GREEK_COMMANDS or stopped(base):
                skipped += 1  # an operator, an unknown command or a stop-listed letter
                continue
        elif ch.isascii() and ch.isalpha():
            run = _LETTERS_RE.match(s, pos).group(0)
            pos += len(run)
            if len(run) > 1 and stopped(run):
                skipped += 1
                continue
            letters = [letter for letter in run if not stopped(letter)]
            skipped += len(run) - len(letters)
            ids += letters
            if stopped(run[-1]):  # no identifier takes the scripts that follow
                continue
            base = ids.pop()
        elif ch in "_^":
            _, pos = _read_group(s, pos + 1)
            skipped += ch == "_"  # a subscript with no identifier in front of it
            continue
        elif ch.isspace() or ch.isdigit() or ch in _ASCII_OPERATORS:
            pos += 1
            continue
        else:  # a bare non-ASCII symbol: a letter or noise
            pos += 1
            try:
                base = normalize_identifier(ch, stops)
            except ExcludedSymbol:
                skipped += 1
                continue
        subscript = None
        while pos < n and s[pos] in "_^":
            mark, (group, pos) = s[pos], _read_group(s, pos + 1)
            if mark == "_" and subscript is None:
                subscript = _subscript_text(group)
        ids.append(identifier_key(base, subscript))
    return ids, skipped


@dataclass
class Corpus:
    """Parsed documents, each carrying its formulas' identifiers."""

    documents: list[Document] = field(default_factory=list)
    skipped_fragments: int = 0

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)


def build_corpus(records: Iterable[dict], stops: StopLists | None = None) -> Corpus:
    """Parse records into a corpus, extracting formula identifiers.

    Each distinct formula is scanned once per call: corpora repeat the
    same short formulas, and ``scan_formula`` depends only on the formula
    and ``stops``.  Every occurrence shares the formula's one tuple of
    identifiers and adds its skipped fragments.  The memo lives for this
    call only, since another call may use other stop lists.
    """
    if stops is None:
        stops = default_stop_lists()
    corpus = Corpus()
    seen: set[str] = set()
    scanned: dict[str, tuple[tuple[str, ...], int]] = {}
    for raw in records:
        doc = parse_document(raw)
        if doc.doc_id in seen:
            raise DuplicateDocId(f"duplicate doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
        per_formula = []
        for formula in doc.formulas:
            if formula not in scanned:
                ids, skipped = scan_formula(formula, stops)
                scanned[formula] = tuple(ids), skipped
            ids, skipped = scanned[formula]
            per_formula.append(ids)
            doc.identifier_counts.update(ids)
            corpus.skipped_fragments += skipped
        doc.identifiers = tuple(per_formula)
        corpus.documents.append(doc)
    return corpus


def load_corpus(path: str | Path, stops: StopLists | None = None) -> Corpus:
    """Load a JSONL corpus file, one record a line, read through ``Lines``:
    an error of a record keeps its type and names the file and line."""
    with Lines(path) as lines:
        return build_corpus(map(json.loads, lines), stops)


def drop_sparse_documents(corpus: Corpus, min_occurrences: int = 2) -> Corpus:
    """Drop documents with fewer identifier occurrences than the floor.

    Documents that keep only one identifier occurrence after cleaning
    carry no clustering signal and are discarded.
    """
    kept = [doc for doc in corpus.documents if doc.identifier_counts.total() >= min_occurrences]
    return Corpus(documents=kept, skipped_fragments=corpus.skipped_fragments)


def corpus_stats(corpus: Corpus, definitions: Optional[Mapping[str, int]] = None) -> dict:
    """The ``stats.json`` object: identifier counts over the corpus and per
    document, and ``definitions``, each document's count of relations.
    Each list is sorted descending by count."""
    global_counts: Counter = Counter()
    per_document = []
    for doc in corpus.documents:
        counts = doc.identifier_counts
        global_counts.update(counts)
        per_document.append(
            {"doc_id": doc.doc_id, "total": counts.total(), "distinct": len(counts)}
        )
    per_document.sort(key=lambda row: (-row["total"], row["doc_id"]))

    def by_count(counts: Mapping[str, int]) -> list[tuple[str, int]]:
        return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))

    return {
        "n_documents": len(corpus.documents),
        "n_distinct_identifiers": len(global_counts),
        "n_occurrences": global_counts.total(),
        "identifier_counts": by_count(global_counts),
        "per_document": per_document,
        "definitions_per_document": by_count(definitions or {}),
        "skipped_fragments": corpus.skipped_fragments,
    }
