"""End-to-end pipeline: config loading, stages, artifacts.

Stages run in a fixed order (stats, extract, vectorize, cluster,
evaluate, namespaces); each consumes the corpus plus prior-stage
artifacts only, so a run can resume from any stage using cached files.
With a fixed seed, repeated runs produce byte-identical artifacts.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import cluster as clustering
from . import decompose, evaluate, idspace, simindex
from .corpus import Corpus, Identifier, StopLists, corpus_stats, default_stop_lists
from .corpus import drop_sparse_documents, load_corpus, load_stop_list
from .errors import ConfigError, StageError
from .extraction import NEAREST_NOUN, PATTERN, RANKER, RankerParams, Relation
from .extraction import extract_relations, prepare_corpus
from .namespaces import HierarchyScheme, build_namespace, map_to_hierarchy
from .textproc import Lexicon

STAGES = ("stats", "extract", "vectorize", "cluster", "evaluate", "namespaces")


_REQUIRED = object()  # an option with no default
_GRID_AXES = ("K", "k")  # a list runs one grid combo per value

# Every option of a config section and its default, per value of the
# key that selects the section's option set.  A key outside the
# selected set is an error, and a number is coerced to its default's type.
_SECTIONS = {
    # section: (selector, its default, {selector value: {option: default}})
    "extraction": ("method", RANKER, {
        RANKER: {f.name: f.default for f in fields(RankerParams)},
        PATTERN: {},
        NEAREST_NOUN: {},
    }),
    "reduction": ("kind", "none", {
        "none": {},
        "svd": {"k": _REQUIRED},
        "nmf": {"k": _REQUIRED, "max_iters": 200, "tol": 1e-4},
    }),
    "clustering": ("algorithm", "kmeans", {
        "kmeans": {"K": 5, "max_iter": 300, "n_restarts": 1},
        "minibatch_kmeans": {"K": 5, "batch_size": 1024, "iters": 100},
        "agglomerative": {"K": 5, "linkage": clustering.WARD, "max_points": 1000},
        "snn_dbscan": {"neighbors": 10, "measure": simindex.COSINE, "eps": 3, "minpts": 3},
        "dbscan": {"measure": simindex.COSINE, "eps": 0.5, "minpts": 3},
        "nmf_direct": {},
    }),
    "baseline": (None, None, {None: {"cluster_size": 3, "trials": 200}}),
}
# options whose value must be at least 1; a grid axis needs one value or more, each at least 1
_COUNTS = {"K", "k", "neighbors", "cluster_size", "trials"}
# options whose value must be one of a fixed set
_CHOICES = {"measure": simindex.MEASURES, "linkage": clustering.LINKAGES}
# path keys of the JSON file and the fields they set
_PATH_KEYS = {"corpus": "corpus_path", "symbol_stop": "symbol_stop",
              "definition_stop": "definition_stop", "lexicon": "lexicon_path",
              "suffix_rules": "suffix_rules_path", "labels": "labels_path",
              "hierarchy": "hierarchy_path"}


def _number(section: str, key: str, value, kind: type):
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}: {key!r} must be a number: {exc}") from exc


def _check_path(key: str, value):
    if not isinstance(value, str):
        raise ConfigError(f"config: path {key!r} must be a string, got {value!r}")
    return value


def _check_section(section: str, given) -> dict:
    """``given`` with every option of its selected set filled in."""
    if not isinstance(given, dict):
        raise ConfigError(f"{section}: expected an object, got {given!r}")
    selector, default_choice, option_sets = _SECTIONS[section]
    choice = given.get(selector, default_choice)
    try:
        options = option_sets[choice]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise ConfigError(f"{section}: unknown {selector} {choice!r}") from None
    unread = sorted(given.keys() - options.keys() - {selector})
    if unread:
        key = unread[0]
        if any(key in other for other in option_sets.values()):
            raise ConfigError(f"{section}: {selector} {choice!r} does not read {key!r}")
        raise ConfigError(f"{section}: unknown key {key!r}")
    filled = {} if selector is None else {selector: choice}
    for key, default in options.items():
        value = given.get(key, default)
        if default is _REQUIRED and given.get(key) is None:
            raise ConfigError(f"{section}: {selector} {choice!r} needs {key!r}")
        if isinstance(default, (int, float)) and key not in _GRID_AXES:
            value = _number(section, key, value, type(default))
        if key in _CHOICES and value not in _CHOICES[key]:
            raise ConfigError(f"{section}: unknown {key} {value!r}")
        if key in _COUNTS:
            if value == []:
                raise ConfigError(f"{section}: grid axis {key!r} has no values")
            for v in value if isinstance(value, list) else [value]:
                if not (isinstance(v, (int, float)) and v >= 1):
                    raise ConfigError(f"{section}: {key!r} must be at least 1, got {v!r}")
        filled[key] = value
    return filled


@dataclass
class PipelineConfig:
    """Every top-level option and its default.  Construction checks each
    section against ``_SECTIONS`` and fills in its defaults."""

    corpus_path: Path
    seed: int
    output_dir: Path
    symbol_stop: Optional[Path] = None
    definition_stop: Optional[Path] = None
    lexicon_path: Optional[Path] = None
    suffix_rules_path: Optional[Path] = None
    labels_path: Optional[Path] = None
    hierarchy_path: Optional[Path] = None
    extraction: dict = field(default_factory=dict)
    association: str = idspace.WEAK
    weighting: str = idspace.TFIDF
    min_df: int = 2
    min_identifier_occurrences: int = 2
    reduction: dict = field(default_factory=dict)
    clustering: dict = field(default_factory=dict)
    purity_threshold: float = 0.8
    min_cluster_size: int = 3
    fuzzy_threshold: float = 0.85
    hierarchy_min_cos: float = 0.2
    hierarchy_min_matches: int = 2
    baseline: Optional[dict] = None  # empty or absent: no random baseline
    ranker_params: Optional[RankerParams] = field(init=False, default=None)

    def __post_init__(self):
        for f in fields(self):
            if f.type in ("int", "float"):
                kind = int if f.type == "int" else float
                setattr(self, f.name, _number("config", f.name, getattr(self, f.name), kind))
        if self.association not in idspace.MODES:
            raise ConfigError(f"config: unknown association mode {self.association!r}")
        if self.weighting not in idspace.WEIGHTINGS:
            raise ConfigError(f"config: unknown weighting {self.weighting!r}")
        self.extraction = _check_section("extraction", self.extraction)
        self.reduction = _check_section("reduction", self.reduction)
        self.clustering = _check_section("clustering", self.clustering)
        self.baseline = _check_section("baseline", self.baseline) if self.baseline else None
        if self.clustering["algorithm"] == "nmf_direct" and self.reduction["kind"] != "nmf":
            raise ConfigError("clustering: algorithm 'nmf_direct' needs reduction kind 'nmf'")
        if self.extraction["method"] == RANKER:
            weights = {k: v for k, v in self.extraction.items() if k != "method"}
            try:
                self.ranker_params = RankerParams(**weights)
            except ValueError as exc:
                raise ConfigError(f"extraction: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path, seed: int | None = None, out: str | Path | None = None):
        """Read a JSON config; relative paths resolve against the file."""
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} is not a JSON object")
        base = path.parent
        out_name = _check_path("output_dir", raw.get("output_dir", "out"))
        paths = {}
        for key, name in _PATH_KEYS.items():
            if (value := raw.get(key)) is not None:
                _check_path(key, value)
                p = (base / value).resolve() if not Path(value).is_absolute() else Path(value)
                if not p.exists():
                    raise ConfigError(f"{key} path does not exist: {p}")
                paths[name] = p
        if "corpus_path" not in paths:
            raise ConfigError("config field 'corpus' is required")
        if seed is None:
            if raw.get("seed") is None:
                raise ConfigError("config field 'seed' is required for reproducibility")
            seed = raw["seed"]
        out_dir = Path(out) if out is not None else base / out_name
        options = {k: v for k, v in raw.items() if k not in {*_PATH_KEYS, "seed", "output_dir"}}
        settable = {f.name for f in fields(cls) if f.init} - set(_PATH_KEYS.values())
        unknown = sorted(options.keys() - settable)
        if unknown:
            raise ConfigError(f"config: unknown key {unknown[0]!r}")
        return cls(**paths, seed=seed, output_dir=out_dir, **options)

    def stop_lists(self) -> StopLists:
        stops = default_stop_lists()
        if self.symbol_stop is not None:
            stops.symbol_stop = load_stop_list(self.symbol_stop)
        if self.definition_stop is not None:
            stops.definition_stop = load_stop_list(self.definition_stop)
        return stops

    def lexicon(self) -> Lexicon:
        if self.lexicon_path is not None or self.suffix_rules_path is not None:
            data = Path(__file__).parent / "data"
            return Lexicon.load(
                self.lexicon_path or data / "lexicon.tsv",
                self.suffix_rules_path or data / "suffix_rules.tsv",
            )
        return Lexicon.default()


def _dump_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _load_corpus(config: PipelineConfig) -> Corpus:
    corpus = load_corpus(config.corpus_path, config.stop_lists())
    return drop_sparse_documents(corpus, config.min_identifier_occurrences)


def _labels(config: PipelineConfig, corpus: Corpus) -> dict[str, str]:
    if config.labels_path is not None:
        return evaluate.load_labels(config.labels_path)
    return {doc.doc_id: doc.category for doc in corpus.documents}


def _extract_all(config: PipelineConfig, corpus: Corpus) -> list[Relation]:
    lexicon = config.lexicon()
    stops = config.stop_lists()
    method = config.extraction["method"]
    relations: list[Relation] = []
    for doc in prepare_corpus(corpus, lexicon):
        relations.extend(extract_relations(doc, method, config.ranker_params, stops.definition_stop))
    return relations


def stage_stats(config: PipelineConfig) -> None:
    corpus = _load_corpus(config)
    relations = _extract_all(config, corpus)
    report = corpus_stats(corpus, relations)
    _dump_json(config.output_dir / "stats.json", report.to_dict())


def stage_extract(config: PipelineConfig) -> None:
    corpus = _load_corpus(config)
    relations = _extract_all(config, corpus)
    lines = []
    for rel in sorted(
        relations, key=lambda r: (r.doc_id, r.identifier.key, r.definition)
    ):
        lines.append(
            json.dumps(
                {
                    "doc_id": rel.doc_id,
                    "identifier": rel.identifier.base,
                    "subscript": rel.identifier.subscript,
                    "definition": rel.definition,
                    "score": rel.score,
                    "method": rel.method,
                },
                sort_keys=True,
            )
        )
    (config.output_dir / "relations.jsonl").write_text(
        "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
    )


def _read_relations(config: PipelineConfig) -> list[Relation]:
    path = config.output_dir / "relations.jsonl"
    relations = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        ident = Identifier(
            base=rec["identifier"], subscript=rec.get("subscript"), display=rec["identifier"]
        )
        relations.append(
            Relation(
                identifier=ident,
                definition=rec["definition"],
                score=rec["score"],
                method=rec["method"],
                doc_id=rec["doc_id"],
            )
        )
    return relations


def stage_vectorize(config: PipelineConfig) -> None:
    corpus = _load_corpus(config)
    relations = _read_relations(config)
    vocab = idspace.build_vocabulary(
        relations, corpus, config.association, config.min_df
    )
    dm = idspace.vectorize(corpus, relations, vocab, config.weighting, normalize=True)
    dm.export_matrix_market(config.output_dir / "matrix.mtx")
    _dump_json(
        config.output_dir / "matrix_meta.json",
        {
            "doc_ids": list(dm.doc_ids),
            "dims": list(vocab.dims),
            "df": [int(x) for x in vocab.df],
            "n_docs": vocab.n_docs,
            "mode": vocab.mode,
            "weighting": config.weighting,
            "row_norm": dm.row_norm,
            "empty_docs": list(dm.empty_docs),
        },
    )


def _read_matrix(config: PipelineConfig) -> idspace.DocMatrix:
    meta = json.loads((config.output_dir / "matrix_meta.json").read_text(encoding="utf-8"))
    lines = (config.output_dir / "matrix.mtx").read_text(encoding="utf-8").splitlines()
    m, n, nnz = (int(x) for x in lines[1].split())
    rows, cols, vals = [], [], []
    for line in lines[2 : 2 + nnz]:
        i, j, v = line.split()
        rows.append(int(i) - 1)
        cols.append(int(j) - 1)
        vals.append(float(v))
    matrix = idspace._CSR.from_coo(rows, cols, np.array(vals), (m, n))
    vocab = idspace.Vocabulary(
        dims=tuple(meta["dims"]),
        mode=meta["mode"],
        df=np.array(meta["df"], dtype=np.int64),
        n_docs=meta["n_docs"],
    )
    return idspace.DocMatrix(
        doc_ids=tuple(meta["doc_ids"]),
        vocab=vocab,
        matrix=matrix,
        row_norm=meta["row_norm"],
        empty_docs=tuple(meta["empty_docs"]),
    )


def _grid(config: PipelineConfig) -> list[dict]:
    """Expand list-valued K / k into a list of parameter combos; an
    algorithm or kind that reads no K or k gives it the one value None."""

    def axis(opts: dict, key: str) -> list:
        values = opts[key] if key in opts else None
        return values if isinstance(values, list) else [values]

    combos = []
    for K, k in itertools.product(axis(config.clustering, "K"), axis(config.reduction, "k")):
        name = "_".join(f"{key}{v}" for key, v in (("K", K), ("k", k)) if v is not None)
        combos.append({"K": K, "k": k, "id": name or "run"})
    return combos


def _embed(config: PipelineConfig, dm: idspace.DocMatrix, rank: Optional[int]):
    opts = config.reduction
    if opts["kind"] == "none":
        return dm.matrix, None
    if opts["kind"] == "svd":
        return decompose.lsa_embed(dm.matrix, rank, seed=config.seed), None
    factors = decompose.nmf(
        dm.matrix.T, rank, max_iters=opts["max_iters"], tol=opts["tol"], seed=config.seed
    )
    return factors.V, factors


def _run_clustering(config: PipelineConfig, X, factors, K: Optional[int]):
    opts = config.clustering
    algorithm = opts["algorithm"]
    if algorithm == "kmeans":
        return clustering.kmeans(
            X, int(K), seed=config.seed, max_iter=opts["max_iter"], n_restarts=opts["n_restarts"]
        )
    if algorithm == "minibatch_kmeans":
        return clustering.minibatch_kmeans(
            X,
            int(K),
            batch_size=min(opts["batch_size"], X.shape[0]),
            iters=opts["iters"],
            seed=config.seed,
        )
    if algorithm == "agglomerative":
        return clustering.agglomerative(X, opts["linkage"], int(K), max_points=opts["max_points"])
    if algorithm == "snn_dbscan":
        return clustering.snn_dbscan(
            X, K=opts["neighbors"], measure=opts["measure"], eps=opts["eps"], minpts=opts["minpts"]
        )
    if algorithm == "dbscan":
        # Jaccard counts nonzero entries here, as simindex.jaccard does.
        index = simindex.SimilarityIndex(idspace._as_csr(X).without_zeros(), opts["measure"])
        return clustering.dbscan(index.within, index.n_docs, opts["eps"], opts["minpts"])
    return decompose.nmf_assign(factors)  # nmf_direct


def _write_assignment(path: Path, doc_ids, labels) -> None:
    lines = [f"{doc_id}\t{int(label)}" for doc_id, label in zip(doc_ids, labels)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def stage_cluster(config: PipelineConfig) -> None:
    dm = _read_matrix(config).drop_empty()
    combos = _grid(config)
    manifest = []
    for combo in combos:
        X, factors = _embed(config, dm, combo["k"])
        assignment = _run_clustering(config, X, factors, combo["K"])
        fname = f"assignment_{combo['id']}.tsv"
        _write_assignment(config.output_dir / fname, dm.doc_ids, assignment.labels)
        manifest.append(
            {
                "id": combo["id"],
                "K": combo["K"],
                "k": combo["k"],
                "file": fname,
                "inertia": assignment.inertia,
                "n_clusters": assignment.n_clusters,
            }
        )
    _dump_json(config.output_dir / "grid.json", {"combos": manifest})


def _read_assignment(path: Path) -> tuple[list[str], clustering.ClusterAssignment]:
    rows = evaluate.load_labels(path)  # an assignment file has the labels format
    labels = np.array([int(label) for label in rows.values()], dtype=int)
    return list(rows), clustering.ClusterAssignment(labels=labels, K=int(labels.max()) + 1)


def stage_evaluate(config: PipelineConfig) -> None:
    corpus = _load_corpus(config)
    labels = _labels(config, corpus)
    grid = json.loads((config.output_dir / "grid.json").read_text(encoding="utf-8"))
    rows = []
    best = None
    for combo in grid["combos"]:
        doc_ids, assignment = _read_assignment(config.output_dir / combo["file"])
        report = evaluate.purity_report(
            assignment,
            doc_ids,
            labels,
            config.purity_threshold,
            config.min_cluster_size,
        )
        row = {"combo": combo["id"], "K": combo["K"], "k": combo["k"]}
        row.update(report.to_dict())
        rows.append(row)
        key = (report.n_pure, report.overall)
        if best is None or key > best[0]:
            best = (key, combo["id"], combo["file"])
    result = {"rows": rows, "selected": best[1]}
    if config.baseline:
        categories = [evaluate.category_of(d, labels) for d in doc_ids]
        summary = evaluate.random_baseline(
            len(doc_ids),
            categories,
            cluster_size=config.baseline["cluster_size"],
            trials=config.baseline["trials"],
            seed=config.seed,
            purity_threshold=config.purity_threshold,
            min_size=config.min_cluster_size,
        )
        result["baseline"] = summary.to_dict()
    _dump_json(config.output_dir / "purity.json", result)
    selected = (config.output_dir / best[2]).read_text(encoding="utf-8")
    (config.output_dir / "assignment.tsv").write_text(selected, encoding="utf-8")


def stage_namespaces(config: PipelineConfig) -> None:
    corpus = _load_corpus(config)
    labels = _labels(config, corpus)
    titles = {doc.doc_id: doc.title for doc in corpus.documents}
    relations = _read_relations(config)
    doc_ids, assignment = _read_assignment(config.output_dir / "assignment.tsv")
    chosen = evaluate.namespace_defining(
        assignment, doc_ids, labels, config.purity_threshold, config.min_cluster_size
    )
    doc_ids_arr = np.array(doc_ids)
    docs_with_relations = {r.doc_id for r in relations}
    namespaces = []
    skipped = []
    for cluster_id in chosen:
        members = [str(d) for d in doc_ids_arr[assignment.labels == cluster_id]]
        if docs_with_relations.isdisjoint(members):
            skipped.append(cluster_id)
            continue
        namespaces.append(
            build_namespace(
                members,
                relations,
                labels,
                config.fuzzy_threshold,
                cluster_id=cluster_id,
            )
        )
    _dump_json(
        config.output_dir / "namespaces.json",
        {
            "namespaces": [ns.to_dict() for ns in namespaces],
            "skipped_clusters": skipped,
        },
    )
    mapping = []
    if config.hierarchy_path is not None:
        scheme = HierarchyScheme.load(config.hierarchy_path)
        for ns in namespaces:
            hit = map_to_hierarchy(
                ns,
                scheme,
                labels,
                titles,
                min_cos=config.hierarchy_min_cos,
                min_matches=config.hierarchy_min_matches,
            )
            mapping.append(
                {
                    "namespace": ns.name,
                    "cluster_id": ns.cluster_id,
                    "top": hit.top,
                    "second": hit.second,
                    "cosine": hit.cosine,
                    "matched_keywords": hit.matched_keywords,
                }
            )
    _dump_json(
        config.output_dir / "hierarchy_map.json",
        {"scheme": str(config.hierarchy_path) if config.hierarchy_path else None,
         "assignments": mapping},
    )


_STAGE_FUNCS = {
    "stats": stage_stats,
    "extract": stage_extract,
    "vectorize": stage_vectorize,
    "cluster": stage_cluster,
    "evaluate": stage_evaluate,
    "namespaces": stage_namespaces,
}


def run_stage(config: PipelineConfig, stage: str) -> None:
    """Run a single stage, tagging any failure with the stage name."""
    if stage not in _STAGE_FUNCS:
        raise ConfigError(f"unknown stage {stage!r}")
    config.output_dir.mkdir(parents=True, exist_ok=True)
    try:
        _STAGE_FUNCS[stage](config)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, str(exc)) from exc


def run_pipeline(config: PipelineConfig, from_stage: str | None = None) -> None:
    """Run all stages in order, optionally resuming from one of them."""
    start = STAGES.index(from_stage) if from_stage else 0
    for stage in STAGES[start:]:
        run_stage(config, stage)
