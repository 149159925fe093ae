"""Latent semantic analysis on the toy corpus: SVD and NMF.

Reduces the document matrix to a low-rank embedding, clusters in the
reduced space, and shows the NMF-direct clustering rule where the
factor matrix itself is the assignment.
"""

from pathlib import Path

import numpy as np

from mathns import (
    default_stop_lists,
    drop_sparse_documents,
    extract_relations,
    kmeans,
    load_corpus,
    lsa_embed,
    nmf,
    nmf_assign,
    prepare_corpus,
    purity_report,
    randomized_svd,
    vectorize,
)

DATA = Path(__file__).parent / "data"


def main():
    stops = default_stop_lists()
    corpus = drop_sparse_documents(load_corpus(DATA / "toy_corpus.jsonl", stops))
    relations = []
    for prepared in prepare_corpus(corpus):
        relations.extend(
            extract_relations(prepared, "ranker", definition_stop=stops.definition_stop)
        )
    dm = vectorize(corpus, relations, "weak", min_df=2, weighting="tfidf").drop_empty()
    labels = {d.doc_id: d.category for d in corpus.documents}

    factors = randomized_svd(dm.matrix.T, 5, seed=7)
    print("top singular values:", np.round(factors.S, 3))

    embedding = lsa_embed(dm, 5, seed=7)
    print(f"LSA embedding shape: {embedding.shape}")
    km = kmeans(embedding, 5, seed=7, n_restarts=5)
    report = purity_report(km, dm.doc_ids, labels)
    print(
        f"K-Means on the LSA space: {report.n_pure} namespace-defining clusters, "
        f"overall purity {report.overall:.3f}"
    )

    nm = nmf(dm.matrix.T, 5, seed=7)
    print(
        f"\nNMF: objective {nm.objective_trace[0]:.3f} -> {nm.objective_trace[-1]:.3f} "
        f"over {len(nm.objective_trace) - 1} iterations"
    )
    direct = nmf_assign(nm)
    report_nmf = purity_report(direct, dm.doc_ids, labels)
    print(
        f"NMF-direct assignment: {report_nmf.n_pure} namespace-defining clusters, "
        f"overall purity {report_nmf.overall:.3f}"
    )


if __name__ == "__main__":
    main()
