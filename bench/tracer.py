"""Run the mathns CLI with a span around each call into a layer.

Usage: python3 bench/tracer.py --spans OUT.json --run-id ID -- <mathns CLI args>

Nothing under ``src/`` is edited: each public function is replaced, for
the life of this process, at the name its caller looks it up by (for
example ``mathns.pipeline.prepare_corpus`` or
``mathns.cluster.build_snn_graph``).  Counters are computed from the
wrapped calls' arguments and return values.  Spans and counters are
written to ``--spans`` when the CLI returns.  A target that no longer
exists is skipped and named on stderr, so its metrics read 0.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

from spans import SpanRecorder


def _docs_parsed(rec, args, kwargs, corpus):
    rec.count("corpus.docs_parsed", len(corpus.documents))


def _sentences(rec, args, kwargs, sentences):
    rec.count("textproc.sentences", len(sentences))
    rec.count("textproc.tokens", sum(len(s) for s in sentences))


def _relations_kept(rec, args, kwargs, relations):
    rec.count("extraction.relations_kept", len(relations))
    rec.count("extraction.docs_extracted")


def _candidates(rec, args, kwargs, scored):
    rec.count("extraction.candidates_scored", len(scored))


def _dims(rec, args, kwargs, vocab):
    rec.counters["idspace.dims"] = len(vocab.dims)


def _nnz(rec, args, kwargs, dm):
    rec.counters["idspace.nnz"] = dm.matrix.nnz


def _queries(rec, args, kwargs, lists):
    indptr = args[0].csc.indptr.astype("int64")
    df = indptr[1:] - indptr[:-1]
    rec.count("simindex.queries", len(lists))
    rec.count("simindex.candidate_pairs", int((df * df).sum()))


def _snn_nnz(rec, args, kwargs, graph):
    rec.count("simindex.snn_nnz", graph.nnz)


def _noise(rec, args, kwargs, assignment):
    labels = assignment.labels
    rec.count("cluster.points", labels.size)
    rec.count("cluster.noise_points", int((labels < 0).sum()))


def _linkage_bytes(rec, args, kwargs, merges):
    n, d = args[0].shape
    rec.counters["cluster.linkage_bytes"] = max(rec.counters["cluster.linkage_bytes"], n * n * d * 8)


def _relations_scanned(rec, args, kwargs, namespace):
    members = set(args[0])
    relations = args[1]
    rec.count("namespaces.relations_scanned", len(relations))
    rec.count("namespaces.relations_useful", sum(1 for r in relations if r.doc_id in members))


# (module, attribute, span name, counter callback).  The module is the
# one the caller looks the name up in, which is not always the defining one.
TARGETS = (
    ("mathns.pipeline", "load_corpus", "corpus.load_corpus", _docs_parsed),
    ("mathns.pipeline", "corpus_stats", "corpus.corpus_stats", None),
    ("mathns.textproc", "tokenize_sentences", "textproc.tokenize_sentences", _sentences),
    ("mathns.textproc", "pos_tag", "textproc.pos_tag", None),
    ("mathns.textproc", "annotate_math", "textproc.annotate_math", None),
    ("mathns.textproc", "chunk_phrases", "textproc.chunk_phrases", None),
    ("mathns.pipeline", "prepare_corpus", "extraction.prepare_corpus", None),
    ("mathns.pipeline", "extract_relations", "extraction.extract_relations", _relations_kept),
    ("mathns.extraction", "rank_candidates", "extraction.rank_candidates", _candidates),
    ("mathns.idspace", "build_vocabulary", "idspace.build_vocabulary", _dims),
    ("mathns.idspace", "vectorize", "idspace.vectorize", _nnz),
    ("mathns.simindex.SimilarityIndex", "all_neighbors", "simindex.all_neighbors", _queries),
    ("mathns.cluster", "build_snn_graph", "simindex.build_snn_graph", _snn_nnz),
    ("mathns.decompose", "lsa_embed", "decompose.lsa_embed", None),
    ("mathns.cluster", "kmeans", "cluster.kmeans", _noise),
    ("mathns.cluster", "snn_dbscan", "cluster.snn_dbscan", None),
    ("mathns.cluster", "agglomerative", "cluster.agglomerative", _noise),
    ("mathns.cluster", "linkage_merges", "cluster.linkage_merges", _linkage_bytes),
    ("mathns.evaluate", "purity_report", "evaluate.purity_report", None),
    ("mathns.evaluate", "random_baseline", "evaluate.random_baseline", None),
    ("mathns.evaluate", "namespace_defining", "evaluate.namespace_defining", None),
    ("mathns.pipeline", "build_namespace", "namespaces.build_namespace", _relations_scanned),
    ("mathns.namespaces", "merge_fuzzy", "namespaces.merge_fuzzy", None),
    ("mathns.pipeline", "map_to_hierarchy", "namespaces.map_to_hierarchy", None),
)


def _resolve(path: str):
    """Import ``a.b.C`` as module ``a.b`` and attribute ``C`` when needed."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


def _traced_dbscan(rec: SpanRecorder, dbscan):
    """dbscan whose region-query callable is itself traced and counted."""

    def count_query(rec, args, kwargs, result):
        rec.count("cluster.region_queries")

    def run(region_query, n, eps, minpts):
        query = rec.wrap("cluster.region_query", region_query, count_query)
        return dbscan(query, n, eps, minpts)

    return rec.wrap("cluster.dbscan", run, _noise)


def install(rec: SpanRecorder) -> list[str]:
    """Patch every target in place; return the names that were missing."""
    missing = []
    for module, attr, name, on_return in TARGETS:
        owner = _resolve(module)
        if not hasattr(owner, attr):
            missing.append(f"{module}.{attr}")
            continue
        setattr(owner, attr, rec.wrap(name, getattr(owner, attr), on_return))
    cluster = importlib.import_module("mathns.cluster")
    if hasattr(cluster, "dbscan"):
        cluster.dbscan = _traced_dbscan(rec, cluster.dbscan)
    else:
        missing.append("mathns.cluster.dbscan")
    pipeline = importlib.import_module("mathns.pipeline")
    stages = getattr(pipeline, "_STAGE_FUNCS", {})
    for stage in getattr(pipeline, "STAGES", ()):
        if stage in stages:
            stages[stage] = rec.wrap(f"pipeline.{stage}", stages[stage])
        else:
            missing.append(f"mathns.pipeline._STAGE_FUNCS[{stage!r}]")
    return missing


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description="Run the mathns CLI with per-layer spans.")
    parser.add_argument("--spans", required=True, help="where to write spans and counters")
    parser.add_argument("--run-id", required=True)
    args = parser.parse_args(argv[:split])
    rec = SpanRecorder(args.run_id)
    start = time.perf_counter()
    cli = importlib.import_module("mathns.cli")
    rec.record("cli.import", start, time.perf_counter())
    for name in install(rec):
        print(f"tracer: target not found, not traced: {name}", file=sys.stderr)
    try:
        return rec.wrap("cli.main", cli.main)(argv[split + 1 :])
    finally:
        rec.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
