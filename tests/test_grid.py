"""The cluster stage's grid: one embedding per k, one merge history per
embedding, and no assignment file unless every combo ran.

``old_stage_cluster`` is the per-combo loop the stage replaced: every
combo embeds again, runs its algorithm from scratch (agglomerative with
its own merge history and union-find cut, numbered by first appearance)
and writes as it goes.  The stage must write the same bytes."""

import json
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mathns import cluster as clustering
from mathns import decompose, evaluate, idspace
from mathns.cli import main
from mathns.errors import KTooLarge, StageError, TooManyDocuments
from mathns.pipeline import (
    PipelineConfig,
    _dump_json,
    _embed,
    _grid,
    _run_clustering,
    run_stage,
    stage_cluster,
)

from conftest import TOY_CONFIG, TOY_CORPUS, TOY_HIERARCHY


def old_agglomerative(X, linkage, K, max_points):
    n = X.shape[0]
    if n > max_points:
        raise TooManyDocuments(f"n={n} exceeds the cap of {max_points}")
    if K > n:
        raise KTooLarge(f"K={K} > n={n}")
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j, _ in clustering.linkage_merges(X, linkage)[: n - K]:
        parent[find(j)] = find(i)
    roots: dict[int, int] = {}  # each root numbered at its first appearance
    labels = [roots.setdefault(find(p), len(roots)) for p in range(n)]
    return clustering.ClusterAssignment(labels=labels, K=K)


def old_stage_cluster(config: PipelineConfig) -> None:
    dm = idspace.DocMatrix.load(config.output_dir).drop_empty()
    opts = config.clustering
    manifest = []
    for combo in _grid(config):
        X, factors = _embed(config, dm, combo["k"])
        if opts["algorithm"] == "agglomerative":
            X = idspace._unwrap(X)
            assignment = old_agglomerative(
                X, opts["linkage"], int(combo["K"]), clustering.MAX_LINKAGE_POINTS
            )
        else:
            assignment = _run_clustering(config, X, factors, combo["K"])
        fname = f"assignment_{combo['id']}.tsv"
        evaluate.write_labels(config.output_dir / fname, dm.doc_ids, assignment.labels.tolist())
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


def _tied_matrix(out: Path) -> None:
    """Twelve documents over six dimensions, each of four row patterns three
    times, so many pairs lie at exactly the same distance."""
    patterns = np.array(
        [[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1], [1, 0, 1, 0, 0, 0]], float
    )
    dense = np.repeat(patterns, 3, axis=0)
    dense /= np.linalg.norm(dense, axis=1, keepdims=True)
    rows, cols = np.nonzero(dense)
    matrix = idspace._CSR.from_coo(rows, cols, dense[rows, cols], dense.shape)
    vocab = idspace.Vocabulary(
        tuple(f"x{j}" for j in range(6)), idspace.WEAK, (dense > 0).sum(axis=0), 12
    )
    doc_ids = tuple(f"t{i:02d}" for i in range(12))
    idspace.DocMatrix(doc_ids, vocab, matrix, True, idspace.TFIDF).save(out)


@pytest.fixture(scope="module")
def matrices(tmp_path_factory) -> dict[str, Path]:
    """Output directories that hold a vectorize stage's two files."""
    toy = tmp_path_factory.mktemp("toy")
    config = PipelineConfig.load(TOY_CONFIG, out=toy)
    for stage in ("extract", "vectorize"):
        run_stage(config, stage)
    tied = tmp_path_factory.mktemp("tied")
    _tied_matrix(tied)
    return {"toy": toy, "tied": tied}


def _config(out: Path, reduction: dict, clustering_: dict) -> PipelineConfig:
    return PipelineConfig(
        corpus_path=TOY_CORPUS, seed=5, output_dir=out,
        reduction=dict(reduction), clustering=dict(clustering_),
    )


def _files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


SVD = {"kind": "svd", "k": [3, 5]}
NMF = {"kind": "nmf", "k": [2, 3]}
# (id, reduction, clustering)
GRIDS = [
    ("kmeans-none", {"kind": "none"}, {"algorithm": "kmeans", "K": [2, 3, 5]}),
    ("kmeans-svd", SVD, {"algorithm": "kmeans", "K": [2, 4]}),
    *[
        (f"{linkage}-svd", SVD, {"algorithm": "agglomerative", "linkage": linkage, "K": [2, 4, 6]})
        for linkage in clustering.LINKAGES
    ],
    ("ward-none", {"kind": "none"}, {"algorithm": "agglomerative", "K": [1, 3, 12]}),
    ("kmeans-nmf", NMF, {"algorithm": "kmeans", "K": [2, 4]}),
    ("nmf_direct", NMF, {"algorithm": "nmf_direct"}),
    ("snn_dbscan-svd", SVD, {"algorithm": "snn_dbscan", "neighbors": 4, "eps": 2, "minpts": 2}),
    ("dbscan-svd", SVD, {"algorithm": "dbscan", "eps": 0.5, "minpts": 2}),
]


class TestSameBytesAsThePerComboLoop:
    @pytest.mark.parametrize("matrix", ["toy", "tied"])
    @pytest.mark.parametrize(
        "reduction,clustering_", [g[1:] for g in GRIDS], ids=[g[0] for g in GRIDS]
    )
    def test_grid(self, matrices, tmp_path, matrix, reduction, clustering_):
        old, new = tmp_path / "old", tmp_path / "new"
        shutil.copytree(matrices[matrix], old)
        shutil.copytree(matrices[matrix], new)
        old_stage_cluster(_config(old, reduction, clustering_))
        stage_cluster(_config(new, reduction, clustering_))
        written = _files(new)
        assert written == _files(old)
        combos = json.loads(written["grid.json"])["combos"]
        assert len(combos) == len(_grid(_config(new, reduction, clustering_)))
        assert {c["file"] for c in combos} <= written.keys()


class TestSharedWork:
    @pytest.fixture()
    def calls(self, monkeypatch) -> Counter:
        counts = Counter()

        def counted(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for owner, name in ((decompose, "lsa_embed"), (decompose, "nmf"),
                            (clustering, "linkage_merges")):
            counted(owner, name)
        return counts

    def test_one_embedding_per_k_and_one_merge_history_per_embedding(
        self, matrices, tmp_path, calls
    ):
        shutil.copytree(matrices["toy"], tmp_path / "out")
        config = _config(tmp_path / "out", SVD, {"algorithm": "agglomerative", "K": [2, 4, 6]})
        stage_cluster(config)
        assert calls == {"lsa_embed": 2, "linkage_merges": 2}
        assert len(list((tmp_path / "out").glob("assignment_*.tsv"))) == 6

    def test_one_merge_history_for_the_raw_matrix(self, matrices, tmp_path, calls):
        shutil.copytree(matrices["toy"], tmp_path / "out")
        config = _config(tmp_path / "out", {"kind": "none"},
                         {"algorithm": "agglomerative", "linkage": "single", "K": [2, 3, 4]})
        stage_cluster(config)
        assert calls == {"linkage_merges": 1}

    def test_one_factorization_per_k(self, matrices, tmp_path, calls):
        shutil.copytree(matrices["toy"], tmp_path / "out")
        stage_cluster(_config(tmp_path / "out", NMF, {"algorithm": "kmeans", "K": [2, 3, 4]}))
        assert calls == {"nmf": 2}


# (id, reduction, clustering, the cluster stage's error)
FAILING_GRIDS = [
    ("agglomerative-K-500", {"kind": "svd", "k": 3},
     {"algorithm": "agglomerative", "K": [2, 500]}, "K=500 > n=30"),
    ("kmeans-K-500", {"kind": "none"}, {"algorithm": "kmeans", "K": [2, 500]}, "K=500 > n=30"),
    ("svd-k-500", {"kind": "svd", "k": [3, 500]},
     {"algorithm": "agglomerative", "K": 2}, "k=500 outside [1, "),
]


class TestNoPartialGrid:
    @pytest.mark.parametrize(
        "reduction,clustering_,message",
        [g[1:] for g in FAILING_GRIDS], ids=[g[0] for g in FAILING_GRIDS],
    )
    def test_failing_combo_writes_no_assignment(
        self, matrices, tmp_path, reduction, clustering_, message
    ):
        out = tmp_path / "out"
        shutil.copytree(matrices["toy"], out)
        with pytest.raises(StageError, match=message.replace("[", r"\[")):
            run_stage(_config(out, reduction, clustering_), "cluster")
        assert not list(out.glob("assignment_*.tsv"))
        assert not (out / "grid.json").exists()

    def test_cli_exits_1_with_no_assignment(self, tmp_path, capsys):
        raw = json.loads(TOY_CONFIG.read_text())
        raw.update(corpus=str(TOY_CORPUS), hierarchy=str(TOY_HIERARCHY),
                   reduction={"kind": "svd", "k": 3},
                   clustering={"algorithm": "agglomerative", "K": [2, 500]})
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 1
        assert "error: [cluster] K=500 > n=30" in capsys.readouterr().err
        assert (out / "matrix.mtx").exists()
        assert not list(out.glob("assignment_*.tsv"))
