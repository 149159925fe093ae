"""The identifier vector space: vocabulary, weighting, sparse matrix.

Documents become sparse vectors over identifier dimensions.  Extracted
definitions can enter the space in three ways: not at all, as separate
stemmed-token dimensions (weak association), or fused onto the
identifier as compound dimensions (strong association).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

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
    matrix: sp.csr_matrix
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
        coo = self.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        lines = ["%%MatrixMarket matrix coordinate real general"]
        lines.append(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}")
        for k in order:
            lines.append(f"{coo.row[k] + 1} {coo.col[k] + 1} {float(coo.data[k])!r}")
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
    matrix = sp.csr_matrix(
        (np.array(data, dtype=float), (rows, cols)), shape=(len(doc_ids), len(vocab))
    )
    matrix.eliminate_zeros()
    row_nnz = np.diff(matrix.indptr)
    if normalize:
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1))).ravel()
        scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
        matrix.data *= np.repeat(scale, row_nnz)
    return DocMatrix(
        doc_ids=doc_ids,
        vocab=vocab,
        matrix=matrix,
        row_norm=normalize,
        empty_docs=tuple(d for d, nnz in zip(doc_ids, row_nnz) if nnz == 0),
    )
