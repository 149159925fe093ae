import json
import os
import subprocess
import sys

import pytest

import run
import spans

BENCHMARK = run.ROOT / "BENCHMARK.json"


def test_benchmark_json_matches_the_runner():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in run.WORKLOADS.values()
    ]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_gate_reports_each_failure_kind(tmp_path):
    ok = run.Invocation(1.0, 10.0, 0)
    assert run.gate(run.Invocation(1.0, 10.0, 3), tmp_path, None)[0] == "exit status 3"
    assert run.gate(ok, tmp_path, None)[0].startswith("missing artifacts: stats.json")
    for name in run.required_artifacts(tmp_path):
        (tmp_path / name).write_text("x")
    (tmp_path / "grid.json").write_text(json.dumps({"combos": [{"file": "assignment_K5.tsv"}]}))
    assert run.gate(ok, tmp_path, None)[0] == "missing artifacts: assignment_K5.tsv"
    (tmp_path / "assignment_K5.tsv").write_text("d1\t0\n")
    failure, reference = run.gate(ok, tmp_path, None)
    assert failure is None
    assert run.gate(ok, tmp_path, reference)[0] is None
    (tmp_path / "namespaces.json").write_text("y")
    assert run.gate(ok, tmp_path, reference)[0] == (
        "artifact bytes differ from the first run: namespaces.json"
    )


def test_setup_repeats_spread_over_the_gaps(monkeypatch, tmp_path):
    corpus = {"text": "doc\n"}

    def fake_setup_once(took):
        def setup_once(w, seed, dest, env):
            dest.mkdir(parents=True, exist_ok=True)
            (dest / "corpus.jsonl").write_text(corpus["text"])
            return took

        return setup_once

    w = run.WORKLOADS["ingest-long"]
    # quick set-ups fill every gap; slow ones stop at SETUP_REPEATS
    for took, counts in ((0.05, [5, 9, 13]), (5.0, [2, 3, 3])):
        monkeypatch.setattr(run, "setup_once", fake_setup_once(took))
        set_up = run.SetUp(w, 1, tmp_path / str(took), {})
        seen = []
        for _ in counts:
            set_up.gap()
            seen.append(len(set_up.times))
        assert seen == counts
    corpus["text"] = "other\n"
    set_up.times.clear()
    with pytest.raises(run.BenchError, match="not deterministic"):
        set_up.gap()


def test_refuses_a_checkout_without_the_program(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(run.BenchError):
        run.check_checkout()


def test_tracer_covers_every_target_on_the_toy_pipeline(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    toy = run.ROOT / "demos" / "data" / "toy_config.json"
    spans_path = tmp_path / "spans.json"
    cmd = [sys.executable, str(run.TRACER), "--spans", str(spans_path), "--run-id", "toy", "--"]
    cmd += ["pipeline", "--config", str(toy), "--out", str(tmp_path / "out")]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "not traced" not in proc.stderr
    recorded, counters = spans.load(spans_path)
    names = {s.name for s in recorded}
    assert {f"pipeline.{stage}" for stage in run.STAGES} <= names
    assert {"cli.import", "cli.main", "cluster.region_query", "simindex.all_neighbors"} <= names
    m = run.layer_metrics(spans_path, 10.0, 30, 1)
    assert m["corpus.load_corpus.calls"] == 5
    assert m["corpus.parse_useful_ratio"] == pytest.approx(30 / 150)
    assert m["extraction.useful_ratio"] == pytest.approx(30 / 60)
    assert m["simindex.queries"] == 30
    assert m["namespaces.build_namespace.calls"] == 5
    assert 0 < m["namespaces.relation_useful_ratio"] < 1
