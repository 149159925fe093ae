"""mathns benchmark: seeded synthetic corpora through the mathns CLI.

Usage (from the repository root):

    python3 bench/run.py --workload ingest-long --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Set-up generates the workload's corpus from ``--seed`` (and, for
``grid-resume``, runs the cached prefix stages).  Each measured run is
then one ``python -m mathns.cli`` invocation in a fresh process, run one
after another (a closed loop with one client) for about ``--seconds``.
The first of them is an untimed warm-up.  Set-up is repeated in the
gaps between runs, and its median is reported as ``setup_s``.  Every
run is checked: exit status 0, every stage artifact present, and
artifact bytes identical to the warm-up's at the same seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced runs with runs under ``bench/tracer.py`` and prints the
per-layer metrics from the traced runs' spans.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import corpusgen
import quality
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HIERARCHY = ROOT / "demos" / "data" / "toy_hierarchy.json"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"

# set-up repeats at least SETUP_REPEATS times; one of a few milliseconds
# repeats for SETUP_GAP_S in every gap between loop iterations, so that
# it still gets a steady median
SETUP_REPEATS = 3
SETUP_GAP_S = 0.2
# every run makes at least this many timed loop iterations after the
# warm-up, and starts another only while the mean iteration still fits in
# --seconds
MIN_ITERATIONS = 2
# a hung CLI run is killed in time for the benchmark to exit within 180 s
RUN_TIMEOUT_S = 120
STAGES = ("stats", "extract", "vectorize", "cluster", "evaluate", "namespaces")
# what the six stages write, besides one assignment file per grid combo
ARTIFACTS = (
    "stats.json",
    "relations.jsonl",
    "matrix.mtx",
    "matrix_meta.json",
    "grid.json",
    "purity.json",
    "assignment.tsv",
    "namespaces.json",
    "hierarchy_map.json",
)

BASE_CONFIG = {
    "corpus": "corpus.jsonl",
    "hierarchy": "hierarchy.json",
    "extraction": {
        "method": "ranker",
        "alpha": 1.0,
        "beta": 1.0,
        "gamma": 0.1,
        "sigma_d": 5.0,
        "sigma_s": 2.0,
        "retain_threshold": 0.4,
    },
    "association": "weak",
    "weighting": "tfidf",
    "min_df": 2,
    "purity_threshold": 0.8,
    "min_cluster_size": 3,
    "fuzzy_threshold": 0.85,
    "baseline": {"trials": 200, "cluster_size": 3},
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    sentences: int
    filler: int
    cross: float
    config: dict
    # stages run at set-up; each measured run resumes after them
    prefix: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ingest-long",
            "long prose-heavy documents through the full pipeline with kmeans: parsing, "
            "textproc, extraction and fuzzy merging do the work and kNN never runs",
            n=70,
            sentences=40,
            filler=40,
            cross=0.15,
            # ten restarts: with one, whether kmeans finds all five topics is a
            # per-seed draw (3 to 5 pure clusters over 13 seeds), not a
            # property of the pipeline
            config={
                "reduction": {"kind": "none"},
                "clustering": {"algorithm": "kmeans", "K": 5, "n_restarts": 10},
            },
        ),
        Workload(
            "snn-short",
            "many short documents through the full pipeline with snn_dbscan: the "
            "quadratic kNN, SNN graph and DBSCAN steps dominate",
            n=600,
            sentences=8,
            filler=0,
            cross=0.15,
            config={
                "reduction": {"kind": "none"},
                "clustering": {
                    "algorithm": "snn_dbscan",
                    "neighbors": 10,
                    "eps": 3,
                    "minpts": 3,
                    "measure": "cosine",
                },
            },
        ),
        Workload(
            "grid-resume",
            "resume at the cluster stage from cached artifacts with an svd x ward "
            "agglomerative grid of 6 combos: linkage and artifact reading, no extraction",
            n=400,
            sentences=12,
            filler=0,
            cross=0.15,
            config={
                "reduction": {"kind": "svd", "k": [10, 20]},
                "clustering": {"algorithm": "agglomerative", "linkage": "ward", "K": [5, 8, 12]},
            },
            prefix=("stats", "extract", "vectorize"),
        ),
    )
}

# name, unit, better
END_TO_END = (
    ("run_s", "s", "lower"),
    ("docs_per_s", "docs/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
    ("n_pure", "count", "higher"),
    ("purity", "ratio", "higher"),
    ("def_accuracy", "ratio", "higher"),
    ("score_saturation", "ratio", "lower"),
)

SELF_TIMED = (
    "corpus.load_corpus",
    "corpus.corpus_stats",
    "textproc.tokenize_sentences",
    "textproc.pos_tag",
    "textproc.annotate_math",
    "textproc.chunk_phrases",
    "extraction.prepare_corpus",
    "extraction.extract_relations",
    "extraction.rank_candidates",
    "idspace.build_vocabulary",
    "idspace.vectorize",
    "simindex.all_neighbors",
    "simindex.build_snn_graph",
    "decompose.lsa_embed",
    "cluster.kmeans",
    "cluster.snn_dbscan",
    "cluster.dbscan",
    "cluster.agglomerative",
    "cluster.linkage_merges",
    "cluster.region_query",
    "evaluate.purity_report",
    "evaluate.random_baseline",
    "evaluate.namespace_defining",
    "namespaces.build_namespace",
    "namespaces.merge_fuzzy",
    "namespaces.map_to_hierarchy",
    "cli.main",
)
CALL_COUNTED = (
    "corpus.load_corpus",
    "extraction.prepare_corpus",
    "extraction.rank_candidates",
    "decompose.lsa_embed",
    "evaluate.purity_report",
    "namespaces.build_namespace",
)
# counters the tracer keeps that are reported as they are
COUNTED = (
    "textproc.sentences",
    "textproc.tokens",
    "extraction.candidates_scored",
    "extraction.relations_kept",
    "idspace.dims",
    "idspace.nnz",
    "simindex.queries",
    "simindex.snn_nnz",
    "simindex.candidate_pairs",
    "cluster.region_queries",
    "cluster.linkage_bytes",
    "namespaces.relations_scanned",
)
# name, unit, better
PER_LAYER = (
    *((f"{name}.calls", "count", "lower") for name in CALL_COUNTED),
    *((f"{name}.self_s", "s", "lower") for name in SELF_TIMED),
    ("corpus.parse_useful_ratio", "ratio", "higher"),
    ("textproc.sentences", "count", "lower"),
    ("textproc.tokens", "count", "lower"),
    ("extraction.candidates_scored", "count", "lower"),
    ("extraction.relations_kept", "count", "higher"),
    ("extraction.kept_ratio", "ratio", "higher"),
    ("extraction.useful_ratio", "ratio", "higher"),
    ("idspace.dims", "count", "lower"),
    ("idspace.nnz", "count", "lower"),
    ("simindex.queries", "count", "lower"),
    ("simindex.snn_nnz", "count", "lower"),
    ("simindex.candidate_pairs", "count", "lower"),
    ("cluster.region_queries", "count", "lower"),
    ("cluster.linkage_bytes", "B", "lower"),
    ("cluster.noise_fraction", "ratio", "lower"),
    ("namespaces.relations_scanned", "count", "lower"),
    ("namespaces.relation_useful_ratio", "ratio", "higher"),
    *((f"pipeline.{stage}.s", "s", "lower") for stage in STAGES),
    *((f"pipeline.{stage}.self_s", "s", "lower") for stage in STAGES),
    ("pipeline.artifact_bytes", "B", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.accounted_ratio", "ratio", "higher"),
)


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    returncode: int


@dataclass
class Run:
    invocation: Invocation
    traced: bool
    warmup: bool = False
    failure: Optional[str] = None
    layer: dict = field(default_factory=dict)


def check_checkout() -> None:
    for path in (SRC / "mathns" / "cli.py", corpusgen.TOY_GENERATOR, HIERARCHY):
        if not path.is_file():
            raise BenchError(f"missing {path}: run from a full mathns checkout")


def thread_cap() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def invoke(cmd: list[str], cwd: Path, env: dict, log: Path) -> Invocation:
    """Run one child process to completion; wall time and peak RSS."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, usage.ru_maxrss / 1024.0, proc.returncode)


def cli_cmd(args: list[str], config: Path, out: Path) -> list[str]:
    """The ``python -m mathns.cli`` command line of one CLI run."""
    return [sys.executable, "-m", "mathns.cli", *args, "--config", str(config), "--out", str(out)]


def digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def required_artifacts(out_dir: Path) -> list[str]:
    names = list(ARTIFACTS)
    grid = out_dir / "grid.json"
    if grid.is_file():
        names += [c["file"] for c in json.loads(grid.read_text(encoding="utf-8"))["combos"]]
    return names


def gate(inv: Invocation, out_dir: Path, reference: Optional[dict]) -> tuple[Optional[str], dict]:
    """Failure reason (None if the run passed) and the run's artifact digests."""
    if inv.returncode != 0:
        return f"exit status {inv.returncode}", {}
    missing = [n for n in required_artifacts(out_dir) if not (out_dir / n).is_file()]
    if missing:
        return f"missing artifacts: {', '.join(missing)}", {}
    found = digests(out_dir)
    if reference is not None and found != reference:
        differ = sorted(n for n in set(found) | set(reference) if found.get(n) != reference.get(n))
        return f"artifact bytes differ from the first run: {', '.join(differ)}", found
    return None, found


def setup_once(w: Workload, seed: int, dest: Path, env: dict) -> float:
    """Generate inputs (and cached prefix artifacts) in ``dest``; seconds taken."""
    start = time.perf_counter()
    docs, truth = corpusgen.make_corpus(seed, w.n, w.sentences, w.filler, w.cross)
    corpusgen.write_corpus(dest, docs, truth)
    shutil.copyfile(HIERARCHY, dest / "hierarchy.json")
    config = {**BASE_CONFIG, **w.config, "seed": seed, "output_dir": "out"}
    (dest / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    for stage in w.prefix:
        cmd = cli_cmd([stage], dest / "config.json", dest / "out")
        inv = invoke(cmd, dest, env, dest / f"setup-{stage}.log")
        if inv.returncode != 0:
            log = (dest / f"setup-{stage}.log").read_text(encoding="utf-8", errors="replace")
            raise BenchError(f"set-up stage {stage} failed ({inv.returncode}): {log[-2000:]}")
    return time.perf_counter() - start


class SetUp:
    """The workload's set-up, repeated over the whole run.

    The first repeat makes the inputs that the CLI runs read.  The others
    go to a throwaway directory in the gaps between loop iterations, so
    the median set-up time samples the same stretch of host speed as the
    timed runs do.  Every repeat must give byte-identical inputs."""

    def __init__(self, w: Workload, seed: int, work: Path, env: dict):
        self.w, self.seed, self.work, self.env = w, seed, work, env
        self.times: list[float] = []
        self.reference: Optional[dict] = None
        self.inputs = work / "inputs"
        self._repeat(self.inputs)

    def _repeat(self, dest: Path) -> None:
        self.times.append(setup_once(self.w, self.seed, dest, self.env))
        found = {"corpus.jsonl": hashlib.sha256((dest / "corpus.jsonl").read_bytes()).hexdigest()}
        if self.w.prefix:
            found.update(digests(dest / "out"))
        if self.reference is not None and found != self.reference:
            raise BenchError(f"set-up is not deterministic for seed {self.seed}")
        self.reference = found

    def gap(self) -> None:
        """Repeat for about SETUP_GAP_S, at least once, until there are
        SETUP_REPEATS repeats, and in every gap while a repeat takes
        less than SETUP_GAP_S on average."""
        spent = 0.0
        while spent < SETUP_GAP_S and (
            len(self.times) < SETUP_REPEATS or statistics.mean(self.times) < SETUP_GAP_S
        ):
            dest = self.work / "setup-repeat"
            self._repeat(dest)
            shutil.rmtree(dest)
            spent += self.times[-1]


def layer_metrics(
    spans_path: Path, wall_s: float, n_docs: int, artifact_bytes: int
) -> dict[str, float]:
    """Per-layer metrics of one traced run, from its spans and counters."""
    recorded, counters = spans.load(spans_path)
    summary = spans.summarize(recorded)

    def of(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def c(name: str) -> float:
        return counters.get(name, 0)

    m = {f"{name}.calls": of(name, "calls") for name in CALL_COUNTED}
    m.update({f"{name}.self_s": of(name, "self_s") for name in SELF_TIMED})
    m.update({name: c(name) for name in COUNTED})
    for stage in STAGES:
        m[f"pipeline.{stage}.s"] = of(f"pipeline.{stage}", "s")
        m[f"pipeline.{stage}.self_s"] = of(f"pipeline.{stage}", "self_s")
    m.update(
        {
            "corpus.parse_useful_ratio": ratio(n_docs, c("corpus.docs_parsed")),
            "extraction.kept_ratio": ratio(
                c("extraction.relations_kept"), c("extraction.candidates_scored")
            ),
            "extraction.useful_ratio": ratio(n_docs, c("extraction.docs_extracted")),
            "cluster.noise_fraction": ratio(c("cluster.noise_points"), c("cluster.points")),
            "namespaces.relation_useful_ratio": ratio(
                c("namespaces.relations_useful"), c("namespaces.relations_scanned")
            ),
            "pipeline.artifact_bytes": artifact_bytes,
            "cli.import_s": of("cli.import", "s"),
            # self times of all spans sum to the time the root spans cover
            "trace.accounted_ratio": ratio(sum(row["self_s"] for row in summary.values()), wall_s),
        }
    )
    return m


def measure(
    w: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    work: Path,
    inputs: Path,
    env: dict,
    between: Callable[[], None],
) -> tuple[list[Run], Optional[quality.Quality]]:
    """Closed loop of CLI runs for about ``seconds``, after one untraced
    warm-up run; with ``trace``, untraced and traced runs alternate.
    ``between`` runs after every loop iteration.  Stops at the first
    failed run."""
    runs: list[Run] = []
    reference: Optional[dict] = None
    scored: Optional[quality.Quality] = None
    stage_cmd = ["pipeline"] + (["--stage", STAGES[len(w.prefix)]] if w.prefix else [])
    start = time.perf_counter()
    timed = 0
    while True:
        warmup = not runs
        for traced in (False, True) if trace and not warmup else (False,):
            run_dir = work / f"run-{len(runs)}"
            out = run_dir / "out"
            if w.prefix:
                shutil.copytree(inputs / "out", out)
            else:
                run_dir.mkdir()
            cmd = cli_cmd(stage_cmd, inputs / "config.json", out)
            spans_path = run_dir / "spans.json"
            if traced:
                rid = f"{w.name}-s{seed}-{len(runs)}"
                cmd[1:3] = [str(TRACER), "--spans", str(spans_path), "--run-id", rid, "--"]
            inv = invoke(cmd, run_dir, env, run_dir / "stderr.log")
            failure, found = gate(inv, out, reference)
            run = Run(inv, traced, warmup, failure)
            if failure is None:
                if reference is None:
                    reference = found
                    scored = quality.score_dir(out, inputs / "truth.json")
                if traced:
                    size = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
                    run.layer = layer_metrics(spans_path, inv.wall_s, w.n, size)
            else:
                log = (run_dir / "stderr.log").read_text(encoding="utf-8", errors="replace")
                print(f"run {len(runs)} failed: {failure}\n{log[-2000:]}", file=sys.stderr)
            runs.append(run)
            shutil.rmtree(run_dir)
            if failure is not None:
                return runs, scored
        between()
        now = time.perf_counter()
        if warmup:
            # the warm-up counts towards --seconds, but not towards the mean
            # iteration: it also compiles bytecode and fills the page cache
            timed_start = now
            continue
        timed += 1
        if timed >= MIN_ITERATIONS and now - start + (now - timed_start) / timed > seconds:
            return runs, scored


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    threads = thread_cap()
    env = child_env(threads)
    work = WORK / f"{w.name}-s{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        set_up = SetUp(w, seed, work, env)
        between = (lambda: None) if trace else set_up.gap
        runs, scored = measure(w, seed, seconds, trace, work, set_up.inputs, env, between)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            WORK.rmdir()
    failed = sum(r.failure is not None for r in runs)
    timed = [r for r in runs if not r.warmup]
    plain = [r.invocation for r in timed if not r.traced and r.failure is None]
    traced = [r for r in timed if r.traced and r.failure is None]
    report = [
        f"workload {w.name}: seed {seed}, {w.n} docs, closed loop with 1 client, "
        f"BLAS/OpenMP threads capped at {threads}",
        f"  fail_rate {failed}/{len(runs)} runs = {failed / len(runs):.6g}",
    ]
    values: dict[str, float] = {}
    if trace:
        table = PER_LAYER
        report.append(f"  traced runs {len(traced)}, untraced runs {len(plain)}, 1 warm-up run")
        if traced:
            values = {k: statistics.median(r.layer[k] for r in traced) for k in traced[0].layer}
        # untraced and traced runs alternate; pairing them cancels slow drift
        pairs = [
            (a, b)
            for a, b in zip(timed[0::2], timed[1::2])
            if a.failure is None and b.failure is None
        ]
        if pairs:
            values["trace.overhead_s"] = statistics.median(
                b.invocation.wall_s - a.invocation.wall_s for a, b in pairs
            )
    else:
        table = END_TO_END
        if plain:
            walls = [i.wall_s for i in plain]
            values["run_s"] = statistics.median(walls)
            values["docs_per_s"] = w.n / values["run_s"]
            values["peak_rss_mb"] = statistics.median(i.rss_mb for i in plain)
            q1, q3 = quartiles(walls)
            report.append(
                f"  run_s samples {len(walls)} after 1 warm-up run, quartiles {q1:.4f} .. "
                f"{q3:.4f} s; sorted " + " ".join(f"{x:.3f}" for x in sorted(walls))
            )
        values["setup_s"] = statistics.median(set_up.times)
        s1, s3 = quartiles(set_up.times)
        report.append(f"  setup_s samples {len(set_up.times)}, quartiles {s1:.4f} .. {s3:.4f} s")
        if scored is not None:
            values["n_pure"] = scored.n_pure
            values["purity"] = scored.purity
            values["def_accuracy"] = scored.def_accuracy.value
            values["score_saturation"] = scored.score_saturation.value
            report.append(
                f"  def_accuracy {scored.def_accuracy}, score_saturation "
                f"{scored.score_saturation}, namespaces {scored.n_namespaces}"
            )
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit, _ in table}
    report += [f"  {name:<40} {m['value']:>16.6g} {m['unit']}" for name, m in metrics.items()]
    print("\n".join(report))
    correct = (
        failed == 0
        and bool(traced if trace else plain)
        and scored is not None
        and scored.n_namespaces > 0
        and scored.def_accuracy.den > 0
    )
    return {"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the mathns benchmark.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        check_checkout()
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {
            name: run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
            for name in names
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
