"""Pipeline config: every option's default, and the keys a config may not carry."""

import json
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from mathns.cli import main
from mathns.errors import ConfigError
from mathns.namespaces import HierarchyScheme
from mathns.pipeline import (
    PipelineConfig,
    _assignments,
    _extract_all,
    _load_corpus,
    run_pipeline,
    run_stage,
)

from conftest import TOY_CONFIG, TOY_CORPUS, TOY_HIERARCHY

# The defaults the README documents, restated here on purpose: a test
# that omits an option compares against these literal values.
CLUSTERING_DEFAULTS = {
    "kmeans": {"K": 5, "max_iter": 300, "n_restarts": 1},
    "minibatch_kmeans": {"K": 5, "batch_size": 1024, "iters": 100},
    "agglomerative": {"K": 5, "linkage": "ward", "max_points": 1000},
    "snn_dbscan": {"neighbors": 10, "measure": "cosine", "eps": 3, "minpts": 3},
    "dbscan": {"measure": "cosine", "eps": 0.5, "minpts": 3},
    "nmf_direct": {},
}
REDUCTION_DEFAULTS = {
    "none": {},
    "svd": {},
    "nmf": {"max_iters": 200, "tol": 1e-4},
}
RANKER_DEFAULTS = {
    "alpha": 1.0, "beta": 1.0, "gamma": 0.1,
    "sigma_d": 5.0, "sigma_s": 2.0, "retain_threshold": 0.4,
}
BASELINE_DEFAULTS = {"cluster_size": 3, "trials": 200}


class _Matrix:
    """The one attribute of a ``DocMatrix`` that ``_assignments`` reads."""

    def __init__(self, matrix):
        self.matrix = matrix


def _doc_matrix(n: int = 40, d: int = 15, seed: int = 3) -> _Matrix:
    X = sp.random(n, d, density=0.3, random_state=seed, format="csr")
    norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
    norms[norms == 0] = 1.0
    return _Matrix(sp.diags(1.0 / norms) @ X)


def _config(**sections) -> PipelineConfig:
    return PipelineConfig(
        corpus_path=TOY_CORPUS, seed=5, output_dir=Path("unused"), **sections
    )


def _labels_per_combo(config: PipelineConfig) -> list:
    return [(combo["id"], a.labels.tolist()) for combo, a in _assignments(config, _doc_matrix())]


def _omissions():
    """(id, reduction, clustering, reduction or clustering with one option omitted)."""
    cases = []
    for algorithm, defaults in CLUSTERING_DEFAULTS.items():
        if algorithm == "nmf_direct":
            continue
        full = {"algorithm": algorithm, **defaults}
        # K is set explicitly here: it is the grid axis, pinned on its own below
        for key in sorted(defaults.keys() - {"K"}):
            short = {k: v for k, v in full.items() if k != key}
            cases.append((f"{algorithm}-{key}", {"kind": "none"}, full, "clustering", short))
    svd = {"kind": "svd", "k": [3, 4]}
    kmeans = {"algorithm": "kmeans", **CLUSTERING_DEFAULTS["kmeans"]}
    cases.append(("svd-kmeans-max_iter", svd, kmeans, "clustering",
                  {"algorithm": "kmeans", "K": 5, "n_restarts": 1}))
    nmf = {"kind": "nmf", "k": 3, **REDUCTION_DEFAULTS["nmf"]}
    for key in sorted(REDUCTION_DEFAULTS["nmf"]):
        short = {k: v for k, v in nmf.items() if k != key}
        cases.append((f"nmf-{key}", nmf, {"algorithm": "nmf_direct"}, "reduction", short))
    cases.append(("kmeans-algorithm", {"kind": "none"}, kmeans, "clustering",
                  {k: v for k, v in kmeans.items() if k != "algorithm"}))
    return cases


class TestDefaults:
    @pytest.mark.parametrize(
        "reduction,clustering,section,short",
        [case[1:] for case in _omissions()],
        ids=[case[0] for case in _omissions()],
    )
    def test_omitted_option_gives_documented_default(
        self, reduction, clustering, section, short
    ):
        full = _config(reduction=dict(reduction), clustering=dict(clustering))
        omitted = _config(
            reduction=dict(short if section == "reduction" else reduction),
            clustering=dict(short if section == "clustering" else clustering),
        )
        assert _labels_per_combo(omitted) == _labels_per_combo(full)

    def test_omitted_sections_are_kmeans_on_the_raw_matrix(self):
        full = _config(
            reduction={"kind": "none"},
            clustering={"algorithm": "kmeans", **CLUSTERING_DEFAULTS["kmeans"]},
        )
        got = _labels_per_combo(_config())
        assert got == _labels_per_combo(full)
        assert [combo_id for combo_id, _ in got] == ["K5"]

    @pytest.mark.parametrize("algorithm", ["kmeans", "minibatch_kmeans", "agglomerative"])
    def test_omitted_K_is_five(self, algorithm):
        full = _config(clustering={"algorithm": algorithm, "K": 5})
        omitted = _config(clustering={"algorithm": algorithm})
        assert _labels_per_combo(omitted) == _labels_per_combo(full)

    def test_sections_hold_every_documented_default(self):
        config = _config(
            reduction={"kind": "nmf", "k": 2},
            clustering={"algorithm": "nmf_direct"},
            baseline={"trials": 9},
        )
        assert config.reduction == {"kind": "nmf", "k": 2, **REDUCTION_DEFAULTS["nmf"]}
        assert config.clustering == {"algorithm": "nmf_direct"}
        assert config.extraction == {"method": "ranker", **RANKER_DEFAULTS}
        assert config.baseline == {**BASELINE_DEFAULTS, "trials": 9}
        for algorithm, defaults in CLUSTERING_DEFAULTS.items():
            if algorithm == "nmf_direct":
                continue
            got = _config(clustering={"algorithm": algorithm}).clustering
            assert got == {"algorithm": algorithm, **defaults}

    def test_omitted_extraction_options_give_the_same_relations(self):
        explicit = _config(extraction={"method": "ranker", **RANKER_DEFAULTS})
        corpus = _load_corpus(explicit)
        assert list(_extract_all(_config(), corpus)) == list(_extract_all(explicit, corpus))

    def test_omitted_baseline_options_give_the_same_purity(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(PipelineConfig.load(TOY_CONFIG, out=out))
        before = (out / "purity.json").read_bytes()
        raw = json.loads(TOY_CONFIG.read_text())
        assert raw["baseline"] == BASELINE_DEFAULTS
        for baseline in ({}, {"trials": 200}, {"cluster_size": 3}):
            shrunk = _toy_config(tmp_path, baseline=baseline)
            run_stage(PipelineConfig.load(shrunk, out=out), "evaluate")
            if baseline:
                assert (out / "purity.json").read_bytes() == before
            else:
                # an empty baseline section runs no baseline, as before
                assert "baseline" not in json.loads((out / "purity.json").read_text())


def _toy_config(tmp_path: Path, **patch) -> Path:
    """The toy config with absolute input paths and ``patch`` applied."""
    raw = json.loads(TOY_CONFIG.read_text())
    raw["corpus"] = str(TOY_CORPUS)
    raw["hierarchy"] = str(TOY_HIERARCHY)
    raw.update(patch)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


# (id, section or top-level key, value, text the error must contain besides its name)
BAD_SECTIONS = [
    ("misspelt-neighbors", "clustering",
     {"algorithm": "snn_dbscan", "neighbours": 7}, "'neighbours'"),
    ("removed-snn_union", "clustering",
     {"algorithm": "snn_dbscan", "neighbors": 5, "snn_union": True}, "'snn_union'"),
    ("K-under-snn_dbscan", "clustering", {"algorithm": "snn_dbscan", "K": 5}, "'K'"),
    ("K-under-dbscan", "clustering", {"algorithm": "dbscan", "K": [2, 3]}, "'K'"),
    ("linkage-under-kmeans", "clustering", {"algorithm": "kmeans", "linkage": "ward"}, "'linkage'"),
    ("unknown-algorithm", "clustering", {"algorithm": "spectral"}, "'spectral'"),
    ("misspelt-snn-measure", "clustering",
     {"algorithm": "snn_dbscan", "measure": "cosin"}, "measure 'cosin'"),
    ("misspelt-dbscan-measure", "clustering",
     {"algorithm": "dbscan", "measure": "Jaccard"}, "measure 'Jaccard'"),
    ("misspelt-linkage", "clustering",
     {"algorithm": "agglomerative", "linkage": "wards"}, "linkage 'wards'"),
    ("nmf_direct-without-nmf", "clustering", {"algorithm": "nmf_direct"}, "'nmf_direct'"),
    ("not-a-number", "clustering", {"algorithm": "kmeans", "max_iter": "many"}, "'max_iter'"),
    ("not-an-object", "clustering", "kmeans", "object"),
    ("svd-without-k", "reduction", {"kind": "svd"}, "'k'"),
    ("nmf-without-k", "reduction", {"kind": "nmf", "tol": 1e-3}, "'k'"),
    ("svd-null-k", "reduction", {"kind": "svd", "k": None}, "'k'"),
    ("k-under-none", "reduction", {"kind": "none", "k": 5}, "'k'"),
    ("nmf-key-under-svd", "reduction", {"kind": "svd", "k": 3, "max_iters": 50}, "'max_iters'"),
    ("unknown-reduction-key", "reduction", {"kind": "svd", "rank": 3}, "'rank'"),
    ("unknown-kind", "reduction", {"kind": "pca", "k": 3}, "'pca'"),
    ("unknown-method", "extraction", {"method": "regex"}, "'regex'"),
    ("weight-under-pattern", "extraction", {"method": "pattern", "alpha": 1.0}, "'alpha'"),
    ("unknown-extraction-key", "extraction", {"sigma": 3.0}, "'sigma'"),
    ("bad-ranker-weight", "extraction", {"alpha": -1.0}, "non-negative"),
    # json reads NaN and Infinity; a NaN weight used to run with no relations
    ("nan-ranker-weight", "extraction", {"alpha": float("nan")}, "alpha must be finite, got nan"),
    ("inf-ranker-width", "extraction", {"sigma_s": float("inf")}, "sigma_s must be finite, got inf"),
    ("nan-ranker-width", "extraction", {"sigma_d": float("nan")}, "sigma_d must be finite, got nan"),
    ("inf-ranker-threshold", "extraction", {"retain_threshold": float("-inf")},
     "retain_threshold must be finite, got -inf"),
    # 2*sigma**2 overflowed (OverflowError) or rounded to 0 (ZeroDivisionError) in extraction
    ("huge-ranker-width", "extraction", {"sigma_d": 1e200},
     "sigma_d must have 2*sigma_d**2 finite and nonzero, got 1e+200"),
    ("tiny-ranker-width", "extraction", {"sigma_s": 1e-170},
     "sigma_s must have 2*sigma_s**2 finite and nonzero, got 1e-170"),
    ("unknown-baseline-key", "baseline", {"trails": 10}, "'trails'"),
    # counts below 1: each failed only in the cluster or evaluate stage, and
    # agglomerative with K 0 ran to the end with one cluster
    ("agglomerative-K-0", "clustering", {"algorithm": "agglomerative", "K": 0},
     "'K' must be at least 1, got 0"),
    ("kmeans-K-0", "clustering", {"algorithm": "kmeans", "K": 0}, "'K' must be at least 1, got 0"),
    ("K-grid-with-0", "clustering", {"K": [3, 0]}, "'K' must be at least 1, got 0"),
    ("K-grid-empty", "clustering", {"K": []}, "grid axis 'K' has no values"),
    ("k-grid-empty", "reduction", {"kind": "svd", "k": []}, "grid axis 'k' has no values"),
    ("K-fraction", "clustering", {"K": 0.5}, "'K' must be at least 1, got 0.5"),
    ("K-not-a-number", "clustering", {"K": "five"}, "'K' must be at least 1, got 'five'"),
    ("svd-k-0", "reduction", {"kind": "svd", "k": 0}, "'k' must be at least 1, got 0"),
    ("nmf-k-grid-negative", "reduction", {"kind": "nmf", "k": [2, -1]},
     "'k' must be at least 1, got -1"),
    ("neighbors-0", "clustering", {"algorithm": "snn_dbscan", "neighbors": 0},
     "'neighbors' must be at least 1, got 0"),
    # each of these failed only in the cluster stage, after three stages had written
    ("snn-eps-equal-to-neighbors", "clustering",
     {"algorithm": "snn_dbscan", "neighbors": 5, "eps": 5},
     "snn_dbscan needs eps below neighbors, got eps 5 and neighbors 5"),
    ("snn-eps-above-default-neighbors", "clustering", {"algorithm": "snn_dbscan", "eps": 12},
     "got eps 12 and neighbors 10"),
    ("kmeans-n_restarts-0", "clustering", {"algorithm": "kmeans", "n_restarts": 0},
     "'n_restarts' must be at least 1, got 0"),
    ("kmeans-max_iter-0", "clustering", {"algorithm": "kmeans", "max_iter": 0},
     "'max_iter' must be at least 1, got 0"),
    ("minibatch-batch_size-negative", "clustering",
     {"algorithm": "minibatch_kmeans", "batch_size": -3},
     "'batch_size' must be at least 1, got -3"),
    ("agglomerative-max_points-0", "clustering", {"algorithm": "agglomerative", "max_points": 0},
     "'max_points' must be at least 1, got 0"),
    # each of these ran to exit 0: a NaN purity threshold gave no namespace,
    # and a NaN fuzzy threshold merged no definition
    ("purity-threshold-negative", "purity_threshold", -1, "must be in [0, 1], got -1.0"),
    ("purity-threshold-nan", "purity_threshold", float("nan"), "must be in [0, 1], got nan"),
    ("fuzzy-threshold-above-1", "fuzzy_threshold", 2.0, "must be in [0, 1], got 2.0"),
    ("fuzzy-threshold-nan", "fuzzy_threshold", float("nan"), "must be in [0, 1], got nan"),
    ("fuzzy-threshold-infinite", "fuzzy_threshold", float("-inf"), "must be in [0, 1], got -inf"),
    ("cluster_size-0", "baseline", {"cluster_size": 0}, "'cluster_size' must be at least 1, got 0"),
    ("trials-0", "baseline", {"trials": 0}, "'trials' must be at least 1, got 0"),
    # these ran to exit 0 as well: a cosine cut above 1 mapped every namespace to OTHERS,
    # and with NaN the cut never applied
    ("hierarchy-min-cos-above-1", "hierarchy_min_cos", 2.0, "must be in [0, 1], got 2.0"),
    ("hierarchy-min-cos-nan", "hierarchy_min_cos", float("nan"), "must be in [0, 1], got nan"),
    ("hierarchy-min-matches-negative", "hierarchy_min_matches", -3, "must be at least 0, got -3"),
    # weights summing to inf made every ranker score nan: exit 0, no relations
    ("ranker-weights-overflow", "extraction", {"alpha": 1e308, "beta": 1e308},
     "alpha + beta + gamma must be finite, got inf"),
    # a subnormal weight sum underflowed the bounded ranker's margin: no relations
    ("ranker-weights-subnormal", "extraction", {"alpha": 5e-324, "beta": 0.0, "gamma": 0.0},
     "alpha + beta + gamma must be a normal float, got 5e-324"),
    # an integer option truncated a fraction and read a bool as 0 or 1: K 2.5 ran
    # K 2 as assignment_K2.5.tsv, and K true ran K 1 as assignment_KTrue.tsv
    ("K-fractional", "clustering", {"K": 2.5}, "'K' must be an integer, got 2.5"),
    ("K-bool", "clustering", {"K": True}, "'K' must be an integer, got True"),
    ("K-grid-fractional", "clustering", {"K": [2, 2.5]}, "'K' must be an integer, got 2.5"),
    ("svd-k-fractional", "reduction", {"kind": "svd", "k": 2.5}, "'k' must be an integer, got 2.5"),
    ("snn-eps-fractional", "clustering", {"algorithm": "snn_dbscan", "eps": 2.5},
     "'eps' must be an integer, got 2.5"),
    ("kmeans-max_iter-fraction-below-1", "clustering", {"algorithm": "kmeans", "max_iter": 0.5},
     "'max_iter' must be at least 1, got 0.5"),
    ("kmeans-max_iter-fractional", "clustering", {"algorithm": "kmeans", "max_iter": 1.5},
     "'max_iter' must be an integer, got 1.5"),
    ("minpts-string", "clustering", {"algorithm": "dbscan", "minpts": "3"},
     "'minpts' must be an integer, got '3'"),
    ("trials-fractional", "baseline", {"trials": 2.5}, "'trials' must be an integer, got 2.5"),
    ("min_df-fractional", "min_df", 2.5, "'min_df' must be an integer, got 2.5"),
    ("min_df-bool", "min_df", True, "'min_df' must be an integer, got True"),
    # int(inf) raised OverflowError, at load for min_df and in the cluster stage for K
    ("min_df-infinite", "min_df", float("inf"), "'min_df' must be an integer, got inf"),
    ("K-infinite", "clustering", {"K": float("inf")}, "'K' must be an integer, got inf"),
    # a float option read true as 1.0 and "0.5" as 0.5
    ("ranker-weight-bool", "extraction", {"alpha": True}, "'alpha' must be a number, got True"),
    ("ranker-weight-string", "extraction", {"beta": "1.0"}, "'beta' must be a number, got '1.0'"),
    # float() raised OverflowError for an integer above the float range
    ("ranker-weight-huge-int", "extraction", {"gamma": 10**400}, "'gamma' must be a number, got 1000"),
    ("dbscan-eps-bool", "clustering", {"algorithm": "dbscan", "eps": False},
     "'eps' must be a number, got False"),
    ("purity-threshold-bool", "purity_threshold", True,
     "'purity_threshold' must be a number, got True"),
]


class TestConfigErrors:
    @pytest.mark.parametrize(
        "section,value,needle", [c[1:] for c in BAD_SECTIONS], ids=[c[0] for c in BAD_SECTIONS]
    )
    def test_load_rejects(self, tmp_path, section, value, needle):
        with pytest.raises(ConfigError) as info:
            PipelineConfig.load(_toy_config(tmp_path, **{section: value}))
        assert f"{section}:" in str(info.value) and needle in str(info.value)

    @pytest.mark.parametrize(
        "section,value,needle", [c[1:] for c in BAD_SECTIONS], ids=[c[0] for c in BAD_SECTIONS]
    )
    def test_construction_rejects(self, section, value, needle):
        with pytest.raises(ConfigError) as info:
            _config(**{section: value})
        assert f"{section}:" in str(info.value) and needle in str(info.value)

    @pytest.mark.parametrize(
        "section,value,needle", [c[1:] for c in BAD_SECTIONS], ids=[c[0] for c in BAD_SECTIONS]
    )
    def test_cli_exits_1_before_writing(self, tmp_path, capsys, section, value, needle):
        out = tmp_path / "out"
        cfg = _toy_config(tmp_path, **{section: value})
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["neighbours", "snn_union", "purity", "stemmer", "corpus_path"])
    def test_unknown_top_level_key(self, tmp_path, capsys, key):
        cfg = _toy_config(tmp_path, **{key: 7})
        with pytest.raises(ConfigError, match=f"'{key}'"):
            PipelineConfig.load(cfg)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value", [("corpus", 5), ("hierarchy", ["h.json"]), ("labels", True),
                      ("output_dir", 3), ("output_dir", None)]
    )
    def test_path_must_be_a_string(self, tmp_path, capsys, key, value):
        cfg = _toy_config(tmp_path, **{key: value})
        with pytest.raises(ConfigError, match=f"path '{key}' must be a string"):
            PipelineConfig.load(cfg)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config: path '{key}'")
        assert not out.exists()

    def test_negative_seed(self, tmp_path, capsys):
        # --seed -1 ran four stages, then stopped in evaluate
        cfg = _toy_config(tmp_path)
        for config_seed, cli_seed in ((-1, None), (1, -1)):
            with pytest.raises(ConfigError, match="seed: must be at least 0, got -1"):
                PipelineConfig.load(_toy_config(tmp_path, seed=config_seed), seed=cli_seed)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed: must be at least 0, got -1\n"
        assert not out.exists()
        assert PipelineConfig.load(cfg, seed=0).seed == 0

    @pytest.mark.parametrize("key,value", [("min_df", "two"), ("purity_threshold", [0.8])])
    def test_top_level_number_is_checked(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=f"'{key}'"):
            PipelineConfig.load(_toy_config(tmp_path, **{key: value}))

    def test_valid_configs_still_load(self, tmp_path):
        """The toy config and one of each algorithm, kind and method."""
        PipelineConfig.load(TOY_CONFIG)
        for algorithm in CLUSTERING_DEFAULTS:
            reduction = {"kind": "nmf", "k": 3} if algorithm == "nmf_direct" else {"kind": "none"}
            _config(clustering={"algorithm": algorithm}, reduction=reduction)
        for method in ("ranker", "pattern", "nearest_noun"):
            _config(extraction={"method": method})
        _config(reduction={"kind": "svd", "k": [2, 3]}, clustering={"K": [4, 5]})
        _config(reduction={"kind": "svd", "k": 1}, clustering={"K": [1, 2]},
                baseline={"cluster_size": 1, "trials": 1})
        _config(clustering={"algorithm": "snn_dbscan", "neighbors": 1, "eps": 0})
        _config(purity_threshold=0, fuzzy_threshold=1)
        _config(purity_threshold=1, fuzzy_threshold=0.0)
        _config(hierarchy_min_cos=0, hierarchy_min_matches=0)
        _config(hierarchy_min_cos=1.0)
        _config(clustering={"algorithm": "kmeans", "max_iter": 1, "n_restarts": 1})
        _config(clustering={"algorithm": "minibatch_kmeans", "batch_size": 1})
        _config(clustering={"algorithm": "agglomerative", "max_points": 1})
        integral = _config(clustering={"K": [3.0, 4], "max_iter": 3.0}, min_df=3.0,
                           reduction={"kind": "svd", "k": 3.0}, baseline={"trials": 3.0})
        assert integral.clustering["K"] == [3, 4] and integral.reduction["k"] == 3
        assert all(type(v) is int for v in (*integral.clustering["K"], integral.reduction["k"],
                                            integral.clustering["max_iter"], integral.min_df,
                                            integral.baseline["trials"]))


# (id, config key, file bytes, the file's bad line and what the error says of it)
BAD_DATA_FILES = [
    ("lexicon-line-without-tab", "lexicon", b"the\tDT\n# a comment\nmatrix NN\n",
     3, "expected two fields split by one tab"),
    ("suffix-rule-with-two-tabs", "suffix_rules", b"ness\tNN\ning\tVB\tNN\n",
     2, "expected two fields split by one tab"),
    ("lexicon-not-utf-8", "lexicon", b"the\tDT\nr\xe9sum\xe9\tNN\n", 2, "not UTF-8"),
    ("symbol-stop-not-utf-8", "symbol_stop", b"d\n# \xe9\n", 2, "not UTF-8"),
    ("definition-stop-not-utf-8", "definition_stop", b"\xff\nvalue\n", 1, "not UTF-8"),
    # a space-separated line used to become doc id "d2 physics" with no category
    ("labels-line-without-tab", "labels", b"d1\tphysics\n\nd2 physics\n",
     3, "expected two fields split by one tab"),
    ("labels-line-with-two-tabs", "labels", b"d1\tphysics\tmechanics\n",
     1, "expected two fields split by one tab"),
    ("labels-not-utf-8", "labels", b"d1\tphysics\nd2\tm\xe9canique\n", 2, "not UTF-8"),
]


# (id, hierarchy file bytes, what the error says of it); each of these, where
# the toy run has namespaces, stopped only in the namespaces stage
BAD_HIERARCHIES = [
    ("category-without-second", b'[{"top": "Statistics"}]',
     "category 1: 'second' must be a string"),
    ("not-json", b"{not json", "Expecting property name"),
    ("empty-list", b"[]", "expected a non-empty JSON list of categories"),
    ("an-object", b'{"top": "A", "second": "B"}', "expected a non-empty JSON list of categories"),
    ("category-not-an-object", b'[["A", "B"]]', "category 1 is not an object"),
    ("top-not-a-string", b'[{"top": 3, "second": "B"}]', "category 1: 'top' must be a string"),
    # a string of keywords was read one character at a time
    ("keywords-a-string", b'[{"top": "A", "second": "B", "keywords": "force"}]',
     "category 1: 'keywords' must be a list of strings"),
    ("keyword-not-a-string", b'[{"top": "A", "second": "B"}, {"top": "C", "second": "D", '
     b'"keywords": ["heat", null]}]', "category 2: 'keywords' must be a list of strings"),
    ("not-utf-8", b'[{"top": "A", "second": "m\xe9canique"}]', "can't decode byte 0xe9"),
]


class TestDataFilesAtLoad:
    """Stop lists and the lexicon are read once, when the config loads; a bad
    file names itself and its line, and the run stops before any output."""

    @pytest.mark.parametrize(
        "key,data,line,needle", [c[1:] for c in BAD_DATA_FILES], ids=[c[0] for c in BAD_DATA_FILES]
    )
    def test_bad_file_fails_at_load(self, tmp_path, capsys, key, data, line, needle):
        bad = tmp_path / f"{key}.txt"
        bad.write_bytes(data)
        cfg = _toy_config(tmp_path, **{key: str(bad)})
        with pytest.raises(ConfigError) as info:
            PipelineConfig.load(cfg)
        assert f"{bad}, line {line}: {needle}" in str(info.value)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config:") and f"{bad}, line {line}" in err
        assert not out.exists()

    def test_files_are_read_into_the_config(self, tmp_path):
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("zeta\tJJ\n", encoding="utf-8")
        stop = tmp_path / "stop.txt"
        stop.write_text("Foo  # comment\n\nbar\n", encoding="utf-8")
        config = _config(lexicon_path=lexicon, definition_stop=stop)
        assert config.lexicon.tag_word("zeta") == "JJ"
        assert dict(config.lexicon.words) == {"zeta": "JJ"}
        assert config.stops.definition_stop == frozenset({"foo", "bar"})
        default = _config()
        assert config.stops.symbol_stop == default.stops.symbol_stop != frozenset()
        assert config.lexicon.suffix_rules == default.lexicon.suffix_rules != ()
        assert default.labels is None

    @pytest.mark.parametrize(
        "data,needle", [c[1:] for c in BAD_HIERARCHIES], ids=[c[0] for c in BAD_HIERARCHIES]
    )
    def test_bad_hierarchy_fails_at_load(self, tmp_path, capsys, data, needle):
        bad = tmp_path / "hierarchy.json"
        bad.write_bytes(data)
        cfg = _toy_config(tmp_path, hierarchy=str(bad))
        with pytest.raises(ConfigError) as info:
            PipelineConfig.load(cfg)
        assert str(info.value).startswith(f"config: {bad}: ") and needle in str(info.value)
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: {bad}: ") and needle in err
        assert not out.exists()

    def test_hierarchy_is_read_into_the_config(self, tmp_path):
        hierarchy = tmp_path / "hierarchy.json"
        hierarchy.write_bytes(TOY_HIERARCHY.read_bytes())
        config = _config(hierarchy_path=hierarchy)
        hierarchy.unlink()  # no stage reads the file again
        assert config.hierarchy == HierarchyScheme.load(TOY_HIERARCHY)
        assert len(config.hierarchy.categories) > 1
        assert _config().hierarchy is None

    def test_labels_are_read_into_the_config(self, tmp_path):
        labels = tmp_path / "labels.tsv"
        labels.write_text("d1\tphysics \n\nd 2\t\n", encoding="utf-8")
        config = _config(labels_path=labels)
        labels.unlink()  # no stage reads the file again
        assert config.labels == {"d1": "physics", "d 2": ""}
