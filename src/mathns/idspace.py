"""The identifier vector space: vocabulary, weighting, sparse matrix.

Documents become sparse vectors over identifier dimensions.  Extracted
definitions can enter the space in three ways: not at all, as separate
stemmed-token dimensions (weak association), or fused onto the
identifier as compound dimensions (strong association).  The matrix is
a numpy CSR, ``_CSR``, that adds in the order scipy's kernels do.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .corpus import Corpus
from .errors import EmptyVocabulary, WeightDomainError
from .extraction import Relation
from .stemming import definition_tokens

IDENTIFIERS_ONLY = "identifiers"
WEAK = "weak"
STRONG = "strong"
MODES = (IDENTIFIERS_ONLY, WEAK, STRONG)

BINARY = "binary"
TF = "tf"
SUBLINEAR_TF = "sublinear_tf"
TFIDF = "tfidf"
WEIGHTINGS = (BINARY, TF, SUBLINEAR_TF, TFIDF)


def tfidf_weight(tf: int, df: int, n: int) -> float:
    """Sublinear TF times inverse document frequency.

    weight = (1 + ln tf) * ln(n / df); zero for a term present in every
    document, growing with tf and shrinking with df.
    """
    if tf <= 0 or df <= 0:
        raise WeightDomainError(f"tf={tf}, df={df} outside the weighting domain")
    return (1.0 + math.log(tf)) * math.log(n / df)


def term_weight(tf: int, df: int, n: int, weighting: str) -> float:
    if tf <= 0:
        raise WeightDomainError(f"tf={tf} outside the weighting domain")
    if weighting == BINARY:
        return 1.0
    if weighting == TF:
        return float(tf)
    if weighting == SUBLINEAR_TF:
        return 1.0 + math.log(tf)
    if weighting == TFIDF:
        return tfidf_weight(tf, df, n)
    raise ValueError(f"unknown weighting {weighting!r}")


@dataclass
class Vocabulary:
    """Ordered dimension keys with their document frequencies."""

    dims: tuple[str, ...]
    mode: str
    df: np.ndarray  # document frequency per dimension
    n_docs: int

    def __post_init__(self):
        self.index = {dim: j for j, dim in enumerate(self.dims)}

    def __len__(self) -> int:
        return len(self.dims)

    def __contains__(self, dim: str) -> bool:
        return dim in self.index


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(s, s + c)`` for every (s, c) in turn, concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(ends[-1] if len(ends) else 0)


def _sums(bins: np.ndarray, terms: np.ndarray, n: int) -> np.ndarray:
    """Sum of the ``terms`` of each of ``n`` bins, each added from 0.0 in
    order, as bincount's loop does (a float array even with no terms)."""
    return np.bincount(bins, terms, minlength=n).astype(float, copy=False)


def _indptr(majors: np.ndarray, n: int) -> np.ndarray:
    """Pointers of ``n`` compressed lines, from the line of each entry."""
    return np.concatenate(([0], np.cumsum(np.bincount(majors, minlength=n)))).astype(np.int32)


class _CSR:
    """Compressed sparse rows with just the operations the package uses.

    ``T`` is the transpose over the same arrays, compressed by column
    (``by_row`` False), as scipy's ``csr.T`` is a CSC.  Products with a
    dense matrix add ``a * x`` into each output entry from 0.0 in storage
    order, as scipy's ``csr_matvecs``/``csc_matvecs`` do.  Index arrays
    are int32, as scipy's are below 2**31 entries.  Row sums assume the
    sorted, unique columns per row that every constructor here gives.
    """

    __array_ufunc__ = None  # numpy defers ``dense @ matrix`` to __rmatmul__

    def __init__(self, data, indices, indptr, shape, by_row: bool = True):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = tuple(shape)
        self.by_row = by_row

    @classmethod
    def from_coo(cls, rows, cols, data, shape) -> "_CSR":
        """Rows sorted by column, from triplets with no repeated (row, col)."""
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        order = np.lexsort((cols, rows))
        indices = cols[order].astype(np.int32)
        return cls(np.asarray(data)[order], indices, _indptr(rows, shape[0]), shape)

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "_CSR":
        return _CSR(self.data, self.indices, self.indptr, self.shape[::-1], not self.by_row)

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, column) of every stored entry, in storage order."""
        major = np.repeat(np.arange(len(self.indptr) - 1), np.diff(self.indptr))
        return (major, self.indices) if self.by_row else (self.indices, major)

    def recompress(self) -> "_CSR":
        """The same matrix compressed along the other axis, each line's
        entries in storage order (scipy's ``tocsc``/``tocsr``)."""
        order = np.argsort(self.indices, kind="stable")
        major = np.repeat(np.arange(len(self.indptr) - 1, dtype=np.int32), np.diff(self.indptr))
        indptr = _indptr(self.indices, self.shape[self.by_row])  # lines of the other axis
        return _CSR(self.data[order], major[order], indptr, self.shape, not self.by_row)

    def __getitem__(self, rows) -> "_CSR":
        """The rows at integer positions ``rows``, in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        counts = np.diff(self.indptr)[rows]
        pos = _ranges(self.indptr[rows], counts)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int32)
        return _CSR(self.data[pos], self.indices[pos], indptr, (len(rows), self.shape[1]))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.dtype)
        np.add.at(out, self.coords(), self.data)
        return out

    def without_zeros(self) -> "_CSR":
        rows, cols = self.coords()
        keep = self.data != 0
        return _CSR.from_coo(rows[keep], cols[keep], self.data[keep], self.shape)

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        rows, cols = self.coords()
        other = np.asarray(other)
        out = np.empty((self.shape[0], other.shape[1]))
        for c, column in enumerate(np.ascontiguousarray(other.T)):  # contiguous gathers
            out[:, c] = _sums(rows, column[cols] * self.data, self.shape[0])
        return out

    def __rmatmul__(self, other: np.ndarray) -> np.ndarray:
        return (self.T @ np.asarray(other).T).T

    def sq_sums(self, axis: int | None = None):
        """``multiply(self).sum(axis)``: the nonzero squares added in storage
        order, or for axis 1 of a CSR by reduceat over each nonempty row."""
        sq = self.data * self.data
        keep = sq != 0
        if axis is None:
            return np.sum(sq[keep])
        indptr = _indptr(self.coords()[0][keep], self.shape[0])
        nonempty = np.flatnonzero(np.diff(indptr))
        out = np.zeros(self.shape[0])
        out[nonempty] = np.add.reduceat(sq[keep], indptr[nonempty])
        return out

    def mean(self, axis: int) -> np.ndarray:
        """Column means of a CSR: ``data * (1/m)`` added per column in row
        order, as scipy's ``ones @ (X * (1/m))`` does."""
        if axis != 0 or not self.by_row:
            raise NotImplementedError("only the column means of a CSR")
        return _sums(self.indices, self.data * (1.0 / self.shape[0]), self.shape[1])


def _unwrap(X):
    """The matrix of a ``DocMatrix``; a scipy matrix as a ``_CSR`` over its
    arrays (a CSC as the transpose of its CSR); any other input as it is."""
    X = getattr(X, "matrix", X)
    if not hasattr(X, "tocsr"):
        return X
    if X.format == "csc":
        return _unwrap(X.T).T
    X = X.tocsr()
    return _CSR(X.data, X.indices, X.indptr, X.shape)


def _as_csr(X) -> _CSR:
    """What ``_unwrap`` accepts, or a dense array (its nonzeros), as a float CSR."""
    X = _unwrap(X)
    if not isinstance(X, _CSR):
        X = np.asarray(X)
        rows, cols = np.nonzero(X)
        X = _CSR.from_coo(rows, cols, X[rows, cols], X.shape)
    X = X if X.by_row else X.recompress()
    return _CSR(X.data.astype(float, copy=False), X.indices, X.indptr, X.shape)


def _relations_by_doc(relations: Iterable[Relation]) -> dict[str, list[Relation]]:
    grouped: dict[str, list[Relation]] = {}
    for rel in relations:
        if rel.doc_id is None:
            raise ValueError("relations must carry doc_id for vectorization")
        grouped.setdefault(rel.doc_id, []).append(rel)
    return grouped


def doc_features(
    corpus: Corpus,
    doc_id: str,
    doc_relations: Sequence[Relation],
    mode: str,
) -> Counter:
    """Feature counts of one document under an association mode."""
    features: Counter = Counter()
    if mode in (IDENTIFIERS_ONLY, WEAK):
        features.update(corpus.identifier_counts(doc_id))
    if mode == WEAK:
        for rel in doc_relations:
            features.update(definition_tokens(rel.definition))
    elif mode == STRONG:
        for rel in doc_relations:
            key = rel.identifier.key
            features.update(
                f"{key}_{tok}" for tok in definition_tokens(rel.definition)
            )
    elif mode != IDENTIFIERS_ONLY:
        raise ValueError(f"unknown association mode {mode!r}")
    return features


def build_vocabulary(
    relations: Iterable[Relation],
    corpus: Corpus,
    mode: str = IDENTIFIERS_ONLY,
    min_df: int = 2,
) -> Vocabulary:
    """Collect dimensions over the corpus, dropping df < min_df."""
    grouped = _relations_by_doc(relations)
    df: Counter = Counter()
    for doc in corpus.documents:
        features = doc_features(corpus, doc.doc_id, grouped.get(doc.doc_id, []), mode)
        df.update(features.keys())
    dims = tuple(sorted(dim for dim, count in df.items() if count >= min_df))
    if not dims:
        raise EmptyVocabulary(f"no dimension reaches min_df={min_df}")
    return Vocabulary(
        dims=dims,
        mode=mode,
        df=np.array([df[d] for d in dims], dtype=np.int64),
        n_docs=len(corpus.documents),
    )


@dataclass
class DocMatrix:
    """Sparse document-by-dimension matrix, rows in corpus order."""

    doc_ids: tuple[str, ...]
    vocab: Vocabulary
    matrix: _CSR
    row_norm: bool
    empty_docs: tuple[str, ...] = ()

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def drop_empty(self) -> "DocMatrix":
        """Remove all-zero rows; empty documents cannot be clustered."""
        if not self.empty_docs:
            return self
        empty = set(self.empty_docs)
        keep = [i for i, d in enumerate(self.doc_ids) if d not in empty]
        return DocMatrix(
            doc_ids=tuple(self.doc_ids[i] for i in keep),
            vocab=self.vocab,
            matrix=self.matrix[keep],
            row_norm=self.row_norm,
            empty_docs=(),
        )

    def export_matrix_market(self, path: str | Path) -> None:
        """Write a matrix-market coordinate file for debugging."""
        rows, cols = self.matrix.coords()
        order = np.lexsort((cols, rows))
        lines = ["%%MatrixMarket matrix coordinate real general"]
        lines.append(f"{self.shape[0]} {self.shape[1]} {self.matrix.nnz}")
        for k in order:
            lines.append(f"{rows[k] + 1} {cols[k] + 1} {float(self.matrix.data[k])!r}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def vectorize(
    corpus: Corpus,
    relations: Iterable[Relation],
    vocab: Vocabulary,
    weighting: str = TFIDF,
    normalize: bool = True,
) -> DocMatrix:
    """Weight the corpus into a sparse matrix over the vocabulary.

    Rows are L2-normalized when requested; documents whose row ends up
    empty are flagged so clustering can exclude them.
    """
    if weighting not in WEIGHTINGS:
        raise ValueError(f"unknown weighting {weighting!r}")
    grouped = _relations_by_doc(relations)
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    doc_ids = tuple(doc.doc_id for doc in corpus.documents)
    for i, doc in enumerate(corpus.documents):
        features = doc_features(corpus, doc.doc_id, grouped.get(doc.doc_id, []), vocab.mode)
        for dim, count in features.items():
            j = vocab.index.get(dim)
            if j is not None:
                rows.append(i)
                cols.append(j)
                data.append(term_weight(count, int(vocab.df[j]), vocab.n_docs, weighting))
    # canonical CSR: each row sorted by column, so row sums add in column order
    shape = (len(doc_ids), len(vocab))
    matrix = _CSR.from_coo(rows, cols, np.array(data, dtype=float), shape).without_zeros()
    row_nnz = np.diff(matrix.indptr)
    if normalize:
        norms = np.sqrt(matrix.sq_sums(axis=1))
        scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
        matrix.data *= np.repeat(scale, row_nnz)
    return DocMatrix(
        doc_ids=doc_ids,
        vocab=vocab,
        matrix=matrix,
        row_norm=normalize,
        empty_docs=tuple(d for d, nnz in zip(doc_ids, row_nnz) if nnz == 0),
    )
