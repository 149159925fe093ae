"""Corpus parsing, identifier extraction and dataset statistics.

The corpus format is JSONL with one document per line and fields
``doc_id``, ``title``, ``text`` and ``category``.  Inline formulas are
delimited by ``$...$`` and use a small TeX subset: identifiers are
single Latin letters or ``\\greekname`` commands with an optional
``_x`` / ``_{...}`` subscript; ``^...`` is consumed and discarded;
anything else is treated as operator or noise.
"""

from __future__ import annotations

import json
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .errors import DuplicateDocId, ExcludedSymbol, UnbalancedFormulaDelimiter

PLACEHOLDER_PREFIX = "FORMULA_"

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


@dataclass(frozen=True)
class Identifier:
    """A normalized single-symbol identifier, e.g. x, sigma or x_1."""

    base: str
    subscript: Optional[str] = None
    display: str = ""

    @property
    def key(self) -> str:
        if self.subscript:
            return f"{self.base}_{self.subscript}"
        return self.base


@dataclass
class StopLists:
    """Case-insensitive stop lists for false identifiers and definitions."""

    symbol_stop: frozenset[str] = frozenset()
    definition_stop: frozenset[str] = frozenset()

    def is_stopped_symbol(self, s: str) -> bool:
        return s.lower() in self.symbol_stop


def load_stop_list(path: str | Path) -> frozenset[str]:
    """Read a stop list file: UTF-8, one entry per line, ``#`` comments."""
    entries = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            entries.add(line.lower())
    return frozenset(entries)


def default_stop_lists() -> StopLists:
    data = Path(__file__).parent / "data"
    return StopLists(
        symbol_stop=load_stop_list(data / "symbol_stop.txt"),
        definition_stop=load_stop_list(data / "definition_stop.txt"),
    )


@dataclass
class Document:
    """One identifier-bearing text unit of the corpus."""

    doc_id: str
    title: str
    text: str
    category: str
    formulas: tuple[str, ...]
    body: str  # text with each formula replaced by a placeholder token


def parse_document(raw: dict) -> Document:
    """Parse one corpus record, locating ``$...$`` formula spans.

    Each formula is replaced in the body text by ``FORMULA_<i>`` so the
    tokenizer can treat it as a single token.
    """
    if "doc_id" not in raw or "text" not in raw:
        raise ValueError("corpus record needs doc_id and text fields")
    text = raw["text"]
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
        title=str(raw.get("title", "")),
        text=text,
        category=str(raw.get("category", "")),
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


def normalize_identifier(symbol: str, stops: StopLists | None = None) -> Identifier:
    """Normalize one symbol from a formula into an :class:`Identifier`.

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
    if len(folded) == 1:
        ch = folded[0]
        if ch in _GREEK_CHAR_TO_NAME:
            base = _GREEK_CHAR_TO_NAME[ch]
        elif ch.isalpha():
            base = ch
        else:
            raise ExcludedSymbol(f"{symbol!r} is not a letter symbol")
    else:
        if not folded.isalpha():
            raise ExcludedSymbol(f"{symbol!r} is not a letter symbol")
        base = folded
    if stops is not None and stops.is_stopped_symbol(base):
        raise ExcludedSymbol(f"{symbol!r} normalizes to a stop-listed base")
    return Identifier(base=base, subscript=None, display=symbol)


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
        m = re.match(r"\\[A-Za-z]+", s[pos:])
        if m:
            return m.group(0), pos + m.end()
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


def scan_formula(
    formula: str, stops: StopLists | None = None
) -> tuple[list[Identifier], int]:
    """Extract identifiers from a formula; also count skipped fragments.

    Returns ``(identifiers, skipped)`` where ``skipped`` counts unknown
    commands, stop-listed letter runs and excluded symbols.
    """
    if stops is None:
        stops = StopLists()
    s = _strip_wrappers(formula)
    ids: list[Identifier] = []
    skipped = 0
    pos = 0
    n = len(s)

    def attach_script(base: str, start: int, p: int) -> int:
        """Parse optional _ / ^ after an identifier at position p."""
        subscript = None
        while p < n and s[p] in "_^":
            mark = s[p]
            group, p = _read_group(s, p + 1)
            if mark == "_" and subscript is None:
                subscript = _subscript_text(group)
        display = s[start:p].strip()
        ids.append(Identifier(base=base, subscript=subscript, display=display))
        return p

    while pos < n:
        ch = s[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "\\":
            m = re.match(r"\\([A-Za-z]+)", s[pos:])
            if not m:
                pos += 2
                continue
            cmd = m.group(1)
            after = pos + m.end()
            if cmd in GREEK_COMMANDS:
                base = _GREEK_VARIANTS.get(cmd, cmd)
                if stops.is_stopped_symbol(base):
                    skipped += 1
                    pos = after
                else:
                    pos = attach_script(base, pos, after)
            else:
                skipped += 1  # operator or unknown command
                pos = after
            continue
        if ch.isascii() and ch.isalpha():
            m = re.match(r"[A-Za-z]+", s[pos:])
            run = m.group(0)
            after = pos + len(run)
            if len(run) > 1 and stops.is_stopped_symbol(run):
                skipped += 1
                pos = after
                continue
            for i, letter in enumerate(run):
                if stops.is_stopped_symbol(letter):
                    skipped += 1
                    continue
                if i == len(run) - 1:
                    pos = attach_script(letter, pos + i, after)
                else:
                    ids.append(Identifier(base=letter, display=letter))
            else:
                pos = max(pos, after)
            continue
        if ch == "^":
            _, pos = _read_group(s, pos + 1)
            continue
        if ch == "_":
            # stray subscript with no preceding identifier
            _, pos = _read_group(s, pos + 1)
            skipped += 1
            continue
        if ch in _ASCII_OPERATORS or ch.isdigit():
            pos += 1
            continue
        # a bare non-ASCII symbol (unicode identifier or noise)
        try:
            ident = normalize_identifier(ch, stops)
        except ExcludedSymbol:
            skipped += 1
            pos += 1
            continue
        pos = attach_script(ident.base, pos, pos + 1)
    return ids, skipped


def extract_identifiers(formula: str, stops: StopLists | None = None) -> list[Identifier]:
    """Return the identifiers of one formula, superscripts ignored."""
    return scan_formula(formula, stops)[0]


@dataclass
class Corpus:
    """Parsed documents plus their per-formula identifier lists."""

    documents: list[Document] = field(default_factory=list)
    formula_identifiers: dict[str, list[list[Identifier]]] = field(default_factory=dict)
    skipped_fragments: int = 0

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def identifier_counts(self, doc_id: str) -> Counter:
        """Occurrence counts of identifier keys in one document."""
        counts: Counter = Counter()
        for formula_ids in self.formula_identifiers.get(doc_id, []):
            counts.update(ident.key for ident in formula_ids)
        return counts


def build_corpus(records: Iterable[dict], stops: StopLists | None = None) -> Corpus:
    """Parse records into a corpus, extracting formula identifiers.

    Each distinct formula is scanned once per call: corpora repeat the
    same short formulas, and ``scan_formula`` depends only on the formula
    and ``stops``.  Every occurrence still gets its own list (the frozen
    identifiers in it are shared) and adds its skipped fragments.  The
    memo lives for this call only, since another call may use other
    stop lists.
    """
    if stops is None:
        stops = default_stop_lists()
    corpus = Corpus()
    seen: set[str] = set()
    scanned: dict[str, tuple[list[Identifier], int]] = {}
    for raw in records:
        doc = parse_document(raw)
        if doc.doc_id in seen:
            raise DuplicateDocId(doc.doc_id)
        seen.add(doc.doc_id)
        per_formula = []
        for formula in doc.formulas:
            if formula not in scanned:
                scanned[formula] = scan_formula(formula, stops)
            ids, skipped = scanned[formula]
            per_formula.append(list(ids))
            corpus.skipped_fragments += skipped
        corpus.documents.append(doc)
        corpus.formula_identifiers[doc.doc_id] = per_formula
    return corpus


def load_corpus(path: str | Path, stops: StopLists | None = None) -> Corpus:
    """Load a JSONL corpus file."""

    def records():
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    yield json.loads(line)

    return build_corpus(records(), stops)


def drop_sparse_documents(corpus: Corpus, min_occurrences: int = 2) -> Corpus:
    """Drop documents with fewer identifier occurrences than the floor.

    Documents that keep only one identifier occurrence after cleaning
    carry no clustering signal and are discarded.
    """
    kept = Corpus(skipped_fragments=corpus.skipped_fragments)
    for doc in corpus.documents:
        total = sum(corpus.identifier_counts(doc.doc_id).values())
        if total >= min_occurrences:
            kept.documents.append(doc)
            kept.formula_identifiers[doc.doc_id] = corpus.formula_identifiers[doc.doc_id]
    return kept


@dataclass
class StatsReport:
    """Dataset statistics: global and per-document identifier counts."""

    n_documents: int
    n_distinct_identifiers: int
    n_occurrences: int
    identifier_counts: list[tuple[str, int]]
    per_document: list[dict]
    definitions_per_document: list[tuple[str, int]]
    skipped_fragments: int

    def to_dict(self) -> dict:
        return {
            "n_documents": self.n_documents,
            "n_distinct_identifiers": self.n_distinct_identifiers,
            "n_occurrences": self.n_occurrences,
            "identifier_counts": [list(t) for t in self.identifier_counts],
            "per_document": self.per_document,
            "definitions_per_document": [list(t) for t in self.definitions_per_document],
            "skipped_fragments": self.skipped_fragments,
        }


def corpus_stats(corpus: Corpus, relations=None) -> StatsReport:
    """Compute frequency statistics, sorted descending by count."""
    global_counts: Counter = Counter()
    per_document = []
    for doc in corpus.documents:
        counts = corpus.identifier_counts(doc.doc_id)
        global_counts.update(counts)
        per_document.append(
            {
                "doc_id": doc.doc_id,
                "total": sum(counts.values()),
                "distinct": len(counts),
            }
        )
    per_document.sort(key=lambda row: (-row["total"], row["doc_id"]))
    defs_per_doc: Counter = Counter()
    if relations:
        for rel in relations:
            if rel.doc_id is not None:
                defs_per_doc[rel.doc_id] += 1
    return StatsReport(
        n_documents=len(corpus.documents),
        n_distinct_identifiers=len(global_counts),
        n_occurrences=sum(global_counts.values()),
        identifier_counts=sorted(global_counts.items(), key=lambda kv: (-kv[1], kv[0])),
        per_document=per_document,
        definitions_per_document=sorted(
            defs_per_doc.items(), key=lambda kv: (-kv[1], kv[0])
        ),
        skipped_fragments=corpus.skipped_fragments,
    )
