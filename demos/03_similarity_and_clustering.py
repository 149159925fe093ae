"""Cluster the bundled toy corpus and compare against the baseline.

Vectorizes the 30-document corpus (5 known topics), queries the
similarity index, runs SNN-DBSCAN and K-Means, and scores both with
cluster purity next to the shuffled random baseline.
"""

from pathlib import Path

from mathns import (
    SimilarityIndex,
    build_snn_graph,
    default_stop_lists,
    drop_sparse_documents,
    extract_relations,
    kmeans,
    load_corpus,
    prepare_corpus,
    purity_report,
    random_baseline,
    snn_dbscan,
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

    print(f"corpus: {len(corpus)} documents, {len(dm.vocab)} dimensions")

    probe = 0
    neighbors = SimilarityIndex(dm, "cosine").query(probe, 4)
    print(f"\nnearest neighbors of {dm.doc_ids[probe]} ({labels[dm.doc_ids[probe]]}):")
    for idx, score in neighbors.neighbors:
        print(f"  {score:.3f}  {dm.doc_ids[idx]}  ({labels[dm.doc_ids[idx]]})")

    graph = build_snn_graph(dm, K=5, measure="cosine")
    print(f"\nSNN graph: {graph.nnz} nonzeros, diagonal = K = 5")

    snn = snn_dbscan(dm, K=5, eps=3, minpts=3)
    report = purity_report(snn, dm.doc_ids, labels)
    print(
        f"\nSNN-DBSCAN: {snn.n_clusters} clusters, "
        f"{report.n_pure} namespace-defining, overall purity {report.overall:.3f}, "
        f"noise {report.noise_fraction:.2f}"
    )

    km = kmeans(dm, 5, seed=7, n_restarts=5)
    report_km = purity_report(km, dm.doc_ids, labels)
    print(
        f"K-Means (K=5): {report_km.n_pure} namespace-defining, "
        f"overall purity {report_km.overall:.3f}, inertia {km.inertia:.3f}"
    )

    categories = [labels[d] for d in dm.doc_ids]
    baseline = random_baseline(len(dm.doc_ids), categories, trials=200, seed=7)
    print(
        f"\nrandom baseline over {baseline.trials} trials: "
        f"min {baseline.minimum}, mean {baseline.mean:.2f}, max {baseline.maximum}"
    )


if __name__ == "__main__":
    main()
