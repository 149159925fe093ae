"""Vocabulary construction, weighting and the sparse document matrix."""

import functools
import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mathns.corpus import build_corpus
from mathns.errors import EmptyVocabulary, WeightDomainError
from mathns.extraction import Relation
from mathns.idspace import (
    BINARY,
    IDENTIFIERS_ONLY,
    MODES,
    STRONG,
    TF,
    TFIDF,
    WEAK,
    WEIGHTINGS,
    DocMatrix,
    Vocabulary,
    _CSR,
    _as_csr,
    _relations_by_doc,
    _unwrap,
    doc_features,
    term_weight,
    tfidf_weight,
    vectorize,
)
from mathns.simindex import INNER, SimilarityIndex
from mathns.stemming import definition_tokens

from conftest import as_scipy


def rel(doc, ident, definition, score=1.0):
    return Relation(
        identifier=ident,
        definition=definition,
        score=score,
        method="pattern",
        doc_id=doc,
    )


@pytest.fixture()
def emc_corpus():
    corpus = build_corpus(
        [
            {"doc_id": "d1", "text": "$E$ $m$ $c$"},
            {"doc_id": "d2", "text": "$m$ $c$"},
            {"doc_id": "d3", "text": "$E$"},
        ]
    )
    relations = [
        rel("d1", "E", "energy"),
        rel("d1", "m", "mass"),
        rel("d1", "c", "speed of light"),
        rel("d2", "m", "mass"),
        rel("d2", "c", "speed of light"),
        rel("d3", "E", "energy"),
    ]
    return corpus, relations


class TestBuildVocabulary:
    def test_weak_mode_dims(self, emc_corpus):
        corpus, relations = emc_corpus
        vocab = vectorize(corpus, relations, WEAK, min_df=2).vocab
        assert set(vocab.dims) == {"E", "m", "c", "energy", "mass", "speed", "light"}

    def test_strong_mode_dims(self, emc_corpus):
        corpus, relations = emc_corpus
        vocab = vectorize(corpus, relations, STRONG, min_df=2).vocab
        assert set(vocab.dims) == {"E_energy", "m_mass", "c_speed", "c_light"}

    def test_min_df_drops_rare_dim(self, emc_corpus):
        corpus, relations = emc_corpus
        relations = relations + [rel("d3", "E", "expectation")]
        vocab = vectorize(corpus, relations, WEAK, min_df=2).vocab
        assert "expectation" not in vocab.dims

    def test_empty_vocabulary_raises(self, emc_corpus):
        corpus, relations = emc_corpus
        with pytest.raises(EmptyVocabulary):
            vectorize(corpus, relations, WEAK, min_df=10)


class TestTfidfWeight:
    def test_ubiquitous_term_zero(self):
        assert tfidf_weight(1, 5, 5) == 0.0

    def test_ln_e_case(self):
        n = math.e
        assert tfidf_weight(1, 1, n) == pytest.approx(1.0)

    def test_spot_value(self):
        # (1 + ln 10) * ln 10, derived independently with math.log
        assert tfidf_weight(10, 10, 100) == pytest.approx(7.604483203472445, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(WeightDomainError):
            tfidf_weight(0, 1, 2)
        with pytest.raises(WeightDomainError):
            tfidf_weight(1, 0, 2)

    @given(st.integers(1, 500), st.integers(1, 99))
    def test_monotone_in_tf(self, tf, df):
        n = 100
        assert tfidf_weight(tf + 1, df, n) >= tfidf_weight(tf, df, n)

    @given(st.integers(1, 500), st.integers(1, 98))
    def test_antitone_in_df(self, tf, df):
        n = 100
        assert tfidf_weight(tf, df + 1, n) <= tfidf_weight(tf, df, n)

    def test_variants(self):
        assert term_weight(7, 3, 10, BINARY) == 1.0
        assert term_weight(7, 3, 10, TF) == 7.0
        assert term_weight(7, 3, 10, "sublinear_tf") == pytest.approx(1 + math.log(7))


class TestVectorize:
    def test_identifiers_only_matrix(self, emc_corpus):
        corpus, relations = emc_corpus
        dm = vectorize(corpus, relations, IDENTIFIERS_ONLY, 2, BINARY, normalize=False)
        dense = np.asarray(as_scipy(dm.matrix).todense())
        cols = {dim: dense[:, j].tolist() for j, dim in enumerate(dm.vocab.dims)}
        assert cols["E"] == [1, 0, 1]
        assert cols["m"] == [1, 1, 0]
        assert cols["c"] == [1, 1, 0]

    def test_single_doc_normalized(self):
        corpus = build_corpus([{"doc_id": "d", "text": "$x$ $x$"}])
        dm = vectorize(corpus, [rel("d", "x", "thing")], IDENTIFIERS_ONLY, 1, TF, normalize=True)
        assert as_scipy(dm.matrix)[0, 0] == pytest.approx(1.0)

    def test_dense_oracle_counts(self):
        docs = [
            {"doc_id": "a", "text": "$x$ $x$ $y$"},
            {"doc_id": "b", "text": "$y$ $z$"},
            {"doc_id": "c", "text": "$x$ $z$ $z$"},
        ]
        corpus = build_corpus(docs)
        relations = [rel(d["doc_id"], "x", "dummy") for d in docs]
        dm = vectorize(corpus, relations, IDENTIFIERS_ONLY, 1, TF, normalize=False)
        dense = np.asarray(as_scipy(dm.matrix).todense())
        # brute-force count table built directly from the raw text
        expected = np.zeros_like(dense)
        for i, d in enumerate(docs):
            for j, dim in enumerate(dm.vocab.dims):
                expected[i, j] = d["text"].count(f"${dim}$")
        np.testing.assert_array_equal(dense, expected)

    def test_normalized_rows_unit_length(self, emc_corpus):
        corpus, relations = emc_corpus
        dm = vectorize(corpus, relations, WEAK, 1, TFIDF, normalize=True)
        dense = np.asarray(as_scipy(dm.matrix).todense())
        for row in dense:
            norm = np.linalg.norm(row)
            if norm > 0:
                assert norm == pytest.approx(1.0, abs=1e-9)

    def test_cosine_equals_inner_for_normalized(self, emc_corpus):
        corpus, relations = emc_corpus
        dm = vectorize(corpus, relations, WEAK, 1, TF, normalize=True)
        dense = np.asarray(as_scipy(dm.matrix).todense())
        for i in range(3):
            for j in range(3):
                ni, nj = np.linalg.norm(dense[i]), np.linalg.norm(dense[j])
                if ni == 0 or nj == 0:
                    continue
                cos = dense[i] @ dense[j] / (ni * nj)
                assert cos == pytest.approx(dense[i] @ dense[j], abs=1e-9)

    def test_empty_rows_flagged_and_dropped(self):
        corpus = build_corpus(
            [
                {"doc_id": "a", "text": "$x$ $x$"},
                {"doc_id": "b", "text": "$q$ only"},
                {"doc_id": "c", "text": "$x$ again"},
            ]
        )
        relations = [rel("a", "x", "value0"), rel("b", "q", "value1")]
        # q occurs in one doc only: with min_df=2 doc b has no dims left
        dm = vectorize(corpus, relations, IDENTIFIERS_ONLY, 2, TF, normalize=True)
        assert dm.empty_docs == ("b",)
        assert dm.drop_empty().doc_ids == ("a", "c")

    def test_nonzeros_match_doc_dims(self, emc_corpus):
        corpus, relations = emc_corpus
        dm = vectorize(corpus, relations, IDENTIFIERS_ONLY, 1, BINARY, normalize=False)
        row = as_scipy(dm.matrix).getrow(1)  # d2 = {m, c}
        present = {dm.vocab.dims[j] for j in row.indices}
        assert present == {"m", "c"}

    def test_matrix_market_roundtrip(self, emc_corpus, tmp_path):
        corpus, relations = emc_corpus
        dm = vectorize(corpus, relations, WEAK, 1, TFIDF, normalize=True)
        dm.save(tmp_path)
        lines = (tmp_path / "matrix.mtx").read_text().splitlines()
        m, n, nnz = (int(x) for x in lines[1].split())
        assert (m, n) == dm.shape
        assert nnz == dm.matrix.nnz
        back = DocMatrix.load(tmp_path)
        assert back.matrix.data.tobytes() == dm.matrix.data.tobytes()
        assert (back.doc_ids, back.weighting, back.row_norm) == (dm.doc_ids, TFIDF, True)

    @pytest.mark.parametrize("mode", [WEAK, STRONG])
    def test_each_definition_is_tokenized_once(self, emc_corpus, monkeypatch, mode):
        corpus, relations = emc_corpus
        calls = Counter()

        def counted(definition):
            calls[definition] += 1
            return definition_tokens(definition)

        monkeypatch.setattr("mathns.idspace.definition_tokens", counted)
        vectorize(corpus, relations, mode, 1, TFIDF)
        assert calls == Counter({"energy": 1, "mass": 1, "speed of light": 1})


def old_build_vocabulary(relations, corpus, mode, min_df):
    """Reference: the vocabulary step that ``vectorize`` now makes itself,
    from its own grouping and its own walk over the documents."""
    grouped = _relations_by_doc(relations)
    tokens = functools.cache(definition_tokens)
    df: Counter = Counter()
    for doc in corpus.documents:
        df.update(doc_features(doc, grouped.get(doc.doc_id, []), mode, tokens).keys())
    dims = tuple(sorted(dim for dim, count in df.items() if count >= min_df))
    if not dims:
        raise EmptyVocabulary(f"no dimension reaches min_df={min_df}")
    return Vocabulary(dims, mode, np.array([df[d] for d in dims], dtype=np.int64),
                      len(corpus.documents))


def old_vectorize(corpus, relations, vocab, weighting=TFIDF, normalize=True):
    """Reference: the hand-built CSR arrays and ``diags`` product that
    ``vectorize`` replaced."""
    grouped = _relations_by_doc(relations)
    indptr = [0]
    indices, data, empty = [], [], []
    doc_ids = tuple(doc.doc_id for doc in corpus.documents)
    for doc in corpus.documents:
        features = doc_features(doc, grouped.get(doc.doc_id, []), vocab.mode)
        cols = sorted(
            (vocab.index[dim], count) for dim, count in features.items() if dim in vocab
        )
        row_start = len(data)
        for j, count in cols:
            value = term_weight(count, int(vocab.df[j]), vocab.n_docs, weighting)
            if value != 0.0:
                indices.append(j)
                data.append(value)
        if len(data) == row_start:
            empty.append(doc.doc_id)
        indptr.append(len(indices))
    matrix = sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int32), np.array(indptr, dtype=np.int32)),
        shape=(len(doc_ids), len(vocab)),
    )
    if normalize:
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1))).ravel()
        scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
        matrix = sp.csr_matrix(sp.diags(scale) @ matrix)
    return DocMatrix(doc_ids, vocab, matrix, normalize, weighting, tuple(empty))


SYMBOLS = ["x", "y", "E", "m", r"\sigma", "x_1"]
DEFINITIONS = ["energy", "mass", "speed of light", "the mean value", "masses of energy"]


@st.composite
def corpora(draw):
    """Up to seven documents, some without formulas, and their relations."""
    records, relations = [], []
    for i in range(draw(st.integers(1, 7))):
        symbols = draw(st.lists(st.sampled_from(SYMBOLS), max_size=8))
        records.append({"doc_id": f"d{i}", "text": " ".join(f"${s}$" for s in symbols)})
        for symbol in draw(st.lists(st.sampled_from(SYMBOLS), max_size=3)):
            definition = draw(st.sampled_from(DEFINITIONS))
            relations.append(rel(f"d{i}", symbol.lstrip("\\"), definition))
    return build_corpus(records), relations


class TestVectorizeMatchesOldArrays:
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    @pytest.mark.parametrize("mode", MODES)
    @settings(max_examples=15)
    @given(corpora(), st.integers(1, 2))
    def test_same_bits_as_old_vectorize(self, mode, weighting, normalize, drawn, min_df):
        corpus, relations = drawn
        try:
            vocab = old_build_vocabulary(relations, corpus, mode, min_df)
        except EmptyVocabulary:
            with pytest.raises(EmptyVocabulary):
                vectorize(corpus, relations, mode, min_df, weighting, normalize)
            assume(False)
        got = vectorize(corpus, relations, mode, min_df, weighting, normalize)
        assert got.vocab.dims == vocab.dims and got.vocab.df.tolist() == vocab.df.tolist()
        assert (got.vocab.mode, got.vocab.n_docs) == (vocab.mode, vocab.n_docs)
        want = old_vectorize(corpus, relations, got.vocab, weighting, normalize)
        want.matrix.sort_indices()
        assert as_scipy(got.matrix).has_canonical_format
        assert got.matrix.shape == want.matrix.shape
        np.testing.assert_array_equal(got.matrix.indptr, want.matrix.indptr)
        np.testing.assert_array_equal(got.matrix.indices, want.matrix.indices)
        assert got.matrix.data.tobytes() == want.matrix.data.tobytes()
        assert (got.doc_ids, got.empty_docs) == (want.doc_ids, want.empty_docs)

    def test_storage_order_is_canonical_where_the_old_product_was_not(self, emc_corpus):
        corpus, relations = emc_corpus
        got = vectorize(corpus, relations, WEAK, 1, TFIDF, normalize=True)
        want = old_vectorize(corpus, relations, got.vocab, TFIDF, normalize=True)
        assert as_scipy(got.matrix).has_canonical_format and not want.matrix.has_sorted_indices
        want.matrix.sort_indices()
        assert got.matrix.data.tobytes() == want.matrix.data.tobytes()

    def test_zero_weights_are_not_stored(self):
        # x is in every document, so its idf ln(2/2) and every weight of it are 0
        corpus = build_corpus([{"doc_id": "a", "text": "$x$ $y$"}, {"doc_id": "b", "text": "$x$"}])
        dm = vectorize(corpus, [], IDENTIFIERS_ONLY, 1, TFIDF, normalize=False)
        assert dm.matrix.nnz == 1 and as_scipy(dm.matrix)[0, dm.vocab.index["y"]] > 0
        assert dm.empty_docs == ("b",)


# ---------------------------------------------------------------------------
# The numpy CSR against scipy, the oracle: every operation must give the
# same bytes, since the pipeline's artifacts depend on every sum's order.


def _magnitudes(rng, shape) -> np.ndarray:
    """Mixed-sign values from 1e-8 to 1e8."""
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8, 8, shape)


@st.composite
def csr_cases(draw):
    """A scipy CSR with empty rows and signed explicit zeros, the ``_CSR``
    over copies of its arrays, and a seeded generator for dense operands."""
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stored = rng.random((m, n)) < draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
    stored[rng.random(m) < 0.25] = False
    values = _magnitudes(rng, (m, n))
    zeros = rng.random((m, n)) < draw(st.sampled_from([0.0, 0.3]))
    values[zeros] = np.copysign(0.0, values[zeros])  # explicit 0.0 and -0.0
    rows, cols = np.nonzero(stored)
    indptr = np.concatenate(([0], np.cumsum(stored.sum(axis=1)))).astype(np.int32)
    want = sp.csr_matrix((values[rows, cols], cols.astype(np.int32), indptr), shape=(m, n))
    got = _CSR(want.data.copy(), want.indices.copy(), want.indptr.copy(), (m, n))
    return got, want, rng


def _same(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _same_arrays(got: _CSR, want) -> None:
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    _same(got.data, want.data)


class TestCsrMatchesScipy:
    @settings(max_examples=200)
    @given(csr_cases(), st.integers(1, 6))
    def test_products(self, case, v):
        got, want, rng = case
        m, n = want.shape
        right, left = _magnitudes(rng, (n, v)), _magnitudes(rng, (v, m))
        right[rng.random((n, v)) < 0.2] = 0.0
        _same(got @ right, want @ right)
        _same(got.T @ left.T, want.T @ left.T)
        _same(left @ got, left @ want)
        _same(right.T @ got.T, right.T @ want.T)

    @settings(max_examples=200)
    @given(csr_cases())
    def test_sums(self, case):
        got, want, _ = case
        # nmf's total: the stored values in storage order, either way round
        _same(np.sum(got.data), want.sum())
        _same(np.sum(got.T.data), want.T.sum())
        _same(got.sq_sums(), want.multiply(want).sum())
        _same(got.T.sq_sums(), want.T.multiply(want.T).sum())
        _same(got.sq_sums(axis=1), np.asarray(want.multiply(want).sum(axis=1)).ravel())

    @settings(max_examples=200)
    @given(csr_cases(), st.data())
    def test_rows_and_means(self, case, data):
        got, want, _ = case
        m = want.shape[0]
        rows = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2 * m))
        _same_arrays(got[rows], want[rows])
        _same(got[rows].mean(axis=0), np.asarray(want[rows].mean(axis=0)).ravel())
        _same(got[rows].toarray(), want[rows].toarray())

    @settings(max_examples=200)
    @given(csr_cases())
    def test_conversions(self, case):
        got, want, _ = case
        _same(got.toarray(), want.toarray())
        _same(got.T.toarray(), want.T.toarray())
        csc = got.recompress()
        assert not csc.by_row
        _same_arrays(csc, want.tocsc())
        _same_arrays(got.T.recompress(), want.T.tocsr())
        _same_arrays(csc.recompress(), want)
        trimmed = want.copy()
        trimmed.eliminate_zeros()
        _same_arrays(got.without_zeros(), trimmed)
        dense = want.toarray()
        _same_arrays(_as_csr(dense), sp.csr_matrix(dense))
        rows, cols = np.nonzero(dense)
        shuffled = np.random.default_rng(0).permutation(len(rows))
        rows, cols, values = rows[shuffled], cols[shuffled], dense[rows, cols][shuffled]
        want = sp.csr_matrix((values, (rows, cols)), shape=dense.shape)
        _same_arrays(_CSR.from_coo(rows, cols, values, dense.shape), want)

    @settings(max_examples=200)
    @given(csr_cases(), st.data())
    def test_kernel_block(self, case, data):
        """``SimilarityIndex._block``: the dots of ``csr[s:e] @ csc.T`` and
        the stored-pattern product that marks sharers."""
        got, want, _ = case
        m = want.shape[0]
        s = data.draw(st.integers(0, m - 1))
        e = data.draw(st.integers(s + 1, m))
        index = SimilarityIndex(got, INNER)
        dots, shares = index._block(s, e, sharers=True)
        _same(dots, (want[s:e] @ want.tocsc().T).toarray())
        pattern = want.copy()
        pattern.data[:] = 1.0
        _same(shares, (pattern[s:e] @ pattern.T.tocsr()).toarray() > 0)
        _same(index.norms_sq, np.asarray(want.multiply(want).sum(axis=1)).ravel())

    def test_scipy_csc_input_keeps_its_storage(self):
        X = sp.random(7, 5, density=0.5, random_state=3, format="csr")
        got = _unwrap(X.T.tocsc())
        assert not got.by_row and got.shape == (5, 7)
        Q = np.random.default_rng(1).standard_normal((7, 3))
        _same(got @ Q, X.T.tocsc() @ Q)
