"""Pipeline stages, artifacts, CLI behavior."""

import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from mathns.cli import main
from mathns.errors import ConfigError
from mathns.evaluate import load_labels, write_labels
from mathns.pipeline import STAGES, PipelineConfig, _read_assignment, run_pipeline

from conftest import REPO

ARTIFACTS = (
    "stats.json",
    "relations.jsonl",
    "matrix.mtx",
    "matrix_meta.json",
    "grid.json",
    "assignment.tsv",
    "purity.json",
    "namespaces.json",
    "hierarchy_map.json",
)


@pytest.fixture()
def toy_run(tmp_path, toy_config_path):
    out = tmp_path / "out"
    config = PipelineConfig.load(toy_config_path, out=out)
    run_pipeline(config)
    return out


class TestConfig:
    def test_missing_corpus_path(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"corpus": "nope.jsonl", "seed": 1}))
        with pytest.raises(ConfigError):
            PipelineConfig.load(cfg)

    def test_seed_mandatory(self, tmp_path, toy_corpus_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"corpus": str(toy_corpus_path)}))
        with pytest.raises(ConfigError):
            PipelineConfig.load(cfg)

    def test_seed_override(self, toy_config_path):
        config = PipelineConfig.load(toy_config_path, seed=123)
        assert config.seed == 123


class TestPipelineArtifacts:
    def test_all_artifacts_written(self, toy_run):
        for name in ARTIFACTS:
            assert (toy_run / name).exists(), name

    def test_purity_selected_row(self, toy_run):
        purity = json.loads((toy_run / "purity.json").read_text())
        assert purity["selected"] in {row["combo"] for row in purity["rows"]}
        assert purity["rows"][0]["n_pure"] >= 4

    def test_namespaces_match_clusters(self, toy_run):
        ns = json.loads((toy_run / "namespaces.json").read_text())
        assert len(ns["namespaces"]) >= 4
        for item in ns["namespaces"]:
            keys = [e["identifier"] for e in item["entries"]]
            assert len(keys) == len(set(keys))

    def test_hierarchy_map_entries(self, toy_run):
        hm = json.loads((toy_run / "hierarchy_map.json").read_text())
        ns = json.loads((toy_run / "namespaces.json").read_text())
        assert len(hm["assignments"]) == len(ns["namespaces"])

    def test_artifacts_do_not_depend_on_where_the_inputs_are(self, toy_run, tmp_path):
        """Regression: ``hierarchy_map.json``'s scheme held the hierarchy
        file's absolute path, so a copy of the inputs gave other bytes."""
        data = tmp_path / "elsewhere"
        shutil.copytree(REPO / "demos" / "data", data, ignore=shutil.ignore_patterns("out"))
        out = tmp_path / "elsewhere-out"
        run_pipeline(PipelineConfig.load(data / "toy_config.json", out=out))
        names = sorted(p.name for p in toy_run.iterdir())
        assert names == sorted(p.name for p in out.iterdir())
        for name in names:
            assert (out / name).read_bytes() == (toy_run / name).read_bytes(), name
        hm = json.loads((out / "hierarchy_map.json").read_text())
        assert hm["scheme"] == "toy_hierarchy.json"

    def test_corpus_order_changes_no_relation_or_stats_byte(self, toy_run, tmp_path):
        # the extract stage walks the documents in doc_id order, whatever the file's
        data = tmp_path / "reversed"
        shutil.copytree(REPO / "demos" / "data", data, ignore=shutil.ignore_patterns("out"))
        corpus = data / "toy_corpus.jsonl"
        lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        corpus.write_text("".join(lines[::-1]), encoding="utf-8")
        config = PipelineConfig.load(data / "toy_config.json", out=tmp_path / "reversed-out")
        run_pipeline(config)
        for name in ("relations.jsonl", "stats.json"):
            assert (config.output_dir / name).read_bytes() == (toy_run / name).read_bytes(), name

    def test_a_doc_id_ending_in_nul_keeps_its_relations(self, toy_run, tmp_path):
        """Regression: the namespaces stage took a cluster's members from a
        numpy string array, which drops trailing NULs, so the namespace of
        "doc01\\x00" lost that document's relations."""
        data = tmp_path / "nul"
        shutil.copytree(REPO / "demos" / "data", data, ignore=shutil.ignore_patterns("out"))
        corpus = data / "toy_corpus.jsonl"
        records = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
        records[0]["doc_id"] += "\x00"
        corpus.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        config = PipelineConfig.load(data / "toy_config.json", out=tmp_path / "nul-out")
        run_pipeline(config)
        before, after = (json.loads((out / "namespaces.json").read_text())["namespaces"]
                         for out in (toy_run, config.output_dir))
        assert [ns["entries"] for ns in after] == [ns["entries"] for ns in before]
        assert [d for ns in after for d in ns["docs"] if d.startswith(records[0]["doc_id"][:-1])] \
            == [records[0]["doc_id"]]

    def test_relations_jsonl_schema(self, toy_run):
        for line in (toy_run / "relations.jsonl").read_text().splitlines()[:5]:
            rec = json.loads(line)
            assert set(rec) == {
                "doc_id", "identifier", "subscript", "definition", "score", "method",
            }

    def test_identifier_and_subscript_fields_split_a_key_once(self, toy_run):
        # the writers split each identifier key at its one "_", if any
        lines = (toy_run / "relations.jsonl").read_text().splitlines()
        namespaces = json.loads((toy_run / "namespaces.json").read_text())["namespaces"]
        records = [json.loads(line) for line in lines]
        records += [entry for item in namespaces for entry in item["entries"]]
        assert len(records) > len(lines) > 0
        for rec in records:
            assert rec["identifier"] and "_" not in rec["identifier"]
            assert rec["subscript"] is None or (rec["subscript"] and "_" not in rec["subscript"])

    def test_definitions_per_document_count_the_relations_file(self, toy_run):
        stats = json.loads((toy_run / "stats.json").read_text())
        lines = (toy_run / "relations.jsonl").read_text().splitlines()
        counts = Counter(json.loads(line)["doc_id"] for line in lines)
        by_count = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        assert stats["definitions_per_document"] == [list(kv) for kv in by_count]
        assert len(by_count) > 1

    def test_resume_from_cluster_stage(self, toy_run, toy_config_path):
        before = (toy_run / "namespaces.json").read_bytes()
        config = PipelineConfig.load(toy_config_path, out=toy_run)
        run_pipeline(config, from_stage="cluster")
        assert (toy_run / "namespaces.json").read_bytes() == before

    def test_a_cluster_without_relations_is_skipped(self, toy_run, toy_config_path):
        before = json.loads((toy_run / "namespaces.json").read_text())
        first = before["namespaces"][0]
        path = toy_run / "relations.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(x for x in lines if json.loads(x)["doc_id"] not in first["docs"]))
        run_pipeline(PipelineConfig.load(toy_config_path, out=toy_run), from_stage="namespaces")
        after = json.loads((toy_run / "namespaces.json").read_text())
        assert after["skipped_clusters"] == [first["cluster_id"]]
        assert after["namespaces"] == before["namespaces"][1:]


    def test_assignment_is_read_back_through_the_labels_reader(self, tmp_path):
        path = tmp_path / "assignment.tsv"
        write_labels(path, ["d2", "d10", "d1"], np.array([1, 0, 1]))
        doc_ids, assignment = _read_assignment(path)
        assert doc_ids == ["d2", "d10", "d1"] == list(load_labels(path))
        assert assignment.labels.tolist() == [1, 0, 1] and assignment.K == 2
        write_labels(tmp_path / "again.tsv", doc_ids, assignment.labels.tolist())
        assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()


class TestSubscriptedIdentifiers:
    def test_subscripts_reach_the_artifacts_and_survive_a_resume(self, tmp_path, toy_config_path):
        """The toy and bench corpora hold no subscripted relation; in this copy
        of the toy corpus every one-identifier formula, such as ``$\\sigma$``,
        carries the subscript d, so its key reaches the writers as sigma_d."""
        raw = json.loads(toy_config_path.read_text())
        lines = (toy_config_path.parent / raw["corpus"]).read_text().splitlines()
        records = [json.loads(line) for line in lines]
        for record in records:
            record["text"] = re.sub(r"\$(\\?[A-Za-z]+)\$", r"$\1_d$", record["text"])
        corpus = tmp_path / "subscripted.jsonl"
        corpus.write_text("".join(json.dumps(record) + "\n" for record in records))
        raw.update(corpus=str(corpus), hierarchy=str(toy_config_path.parent / raw["hierarchy"]))
        cfg = tmp_path / "subscripted.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        config = PipelineConfig.load(cfg, out=out)
        run_pipeline(config)
        lines = (out / "relations.jsonl").read_text().splitlines()
        relations = [json.loads(line) for line in lines]
        namespaces = json.loads((out / "namespaces.json").read_text())["namespaces"]
        entries = [entry for item in namespaces for entry in item["entries"]]
        assert relations and entries
        assert {rec["subscript"] for rec in relations + entries} == {"d"}
        assert "sigma" in {rel["identifier"] for rel in relations}
        # vectorize reads the keys back from relations.jsonl
        full_run = {path.name: path.read_bytes() for path in out.iterdir()}
        for path in out.iterdir():
            if path.name not in ("stats.json", "relations.jsonl"):
                path.unlink()
        run_pipeline(config, from_stage="vectorize")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == full_run


class TestGridMode:
    def test_one_purity_row_per_k(self, tmp_path, toy_config_path):
        raw = json.loads(toy_config_path.read_text())
        raw["clustering"] = {"algorithm": "kmeans", "K": [4, 5, 6], "n_restarts": 2}
        raw["corpus"] = str(toy_config_path.parent / raw["corpus"])
        raw["hierarchy"] = str(toy_config_path.parent / raw["hierarchy"])
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        config = PipelineConfig.load(cfg, out=out)
        run_pipeline(config)
        purity = json.loads((out / "purity.json").read_text())
        assert len(purity["rows"]) == 3
        assert [row["K"] for row in purity["rows"]] == [4, 5, 6]


class TestBaselineCategories:
    def test_unlabeled_documents_are_their_own_categories(self, tmp_path, toy_config_path):
        """A labels file that omits documents: each omitted one is a category
        of its own for the random baseline, as it is for the purity report."""
        labels = tmp_path / "labels.tsv"
        labels.write_text("doc01\tClassical mechanics\ndoc02\tClassical mechanics\n")
        raw = json.loads(toy_config_path.read_text())
        raw["corpus"] = str(toy_config_path.parent / raw["corpus"])
        raw["hierarchy"] = str(toy_config_path.parent / raw["hierarchy"])
        raw["labels"] = str(labels)
        cfg = tmp_path / "labels.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        run_pipeline(PipelineConfig.load(cfg, out=out))
        purity = json.loads((out / "purity.json").read_text())
        # a pure cluster of 3 needs 3 documents of one category; only 2 share one
        assert [row["n_pure"] for row in purity["rows"]] == [0]
        assert purity["baseline"]["max"] == 0


# each reduction and clustering path of the pipeline, over the toy config
NO_SCIPY_RUNS = {
    "toy": {},
    "kmeans": {"reduction": {"kind": "none"}, "clustering": {"algorithm": "kmeans", "K": 4}},
    "minibatch": {
        "reduction": {"kind": "none"},
        "clustering": {"algorithm": "minibatch_kmeans", "K": 4},
    },
    "svd-agglomerative": {
        "reduction": {"kind": "svd", "k": 5},
        "clustering": {"algorithm": "agglomerative", "K": 4},
    },
    "nmf-direct": {"reduction": {"kind": "nmf", "k": 4}, "clustering": {"algorithm": "nmf_direct"}},
    "dbscan": {
        "reduction": {"kind": "none"},
        "clustering": {"algorithm": "dbscan", "measure": "jaccard", "eps": 0.3, "minpts": 3},
    },
}


class TestCli:
    def test_import_loads_no_optional_scipy_modules(self):
        code = "import sys, mathns.cli; print([m for m in sys.modules if m.startswith('scipy')])"
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("name", NO_SCIPY_RUNS)
    def test_pipeline_runs_without_scipy(self, name, tmp_path, toy_config_path):
        raw = json.loads(toy_config_path.read_text())
        raw["corpus"] = str(toy_config_path.parent / raw["corpus"])
        raw["hierarchy"] = str(toy_config_path.parent / raw["hierarchy"])
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**raw, **NO_SCIPY_RUNS[name]}))
        out = tmp_path / "out"
        # a None entry makes every ``import scipy...`` raise ImportError
        code = "import sys; sys.modules['scipy'] = None; import mathns.cli as m; sys.exit(m.main())"
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run(
            [sys.executable, "-c", code, "pipeline", "--config", str(cfg), "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        assert [a for a in ARTIFACTS if not (out / a).is_file()] == []

    def test_missing_corpus_exits_nonzero(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"corpus": "missing.jsonl", "seed": 3}))
        assert main(["pipeline", "--config", str(cfg)]) == 1
        assert "error" in capsys.readouterr().err

    def test_single_stage_subcommand(self, tmp_path, toy_config_path):
        out = tmp_path / "out"
        code = main(
            ["stats", "--config", str(toy_config_path), "--out", str(out)]
        )
        assert code == 0
        assert (out / "stats.json").exists()

    def test_stage_resume_flag(self, tmp_path, toy_config_path):
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(toy_config_path), "--out", str(out)]) == 0
        (out / "namespaces.json").unlink()
        code = main(
            [
                "pipeline", "--config", str(toy_config_path),
                "--out", str(out), "--stage", "namespaces",
            ]
        )
        assert code == 0
        assert (out / "namespaces.json").exists()

    def test_stage_error_is_tagged(self, tmp_path, toy_config_path, capsys):
        out = tmp_path / "out"
        # evaluate without prior cluster artifacts must fail with the stage tag
        code = main(
            ["evaluate", "--config", str(toy_config_path), "--out", str(out)]
        )
        assert code == 1
        assert "[evaluate]" in capsys.readouterr().err

    def test_failed_stage_removes_only_the_directory_it_created(self, tmp_path, toy_config_path):
        out, kept = tmp_path / "out", tmp_path / "kept"
        kept.mkdir()
        for target in (out, kept):
            code = main(["evaluate", "--config", str(toy_config_path), "--out", str(target)])
            assert code == 1
        assert not out.exists()
        assert kept.is_dir()


class TestStageList:
    def test_expected_order(self):
        assert STAGES == (
            "stats", "extract", "vectorize", "cluster", "evaluate", "namespaces",
        )
