import json

import pytest

import quality

TRUTH = {
    "Linear algebra": {"A": "matrix", "x": "eigenvector"},
    "Classical mechanics": {"a": "acceleration", "F": "force"},
}
PURITY = {
    "selected": "K2",
    "rows": [
        {"combo": "K1", "n_pure": 1, "overall": 0.5},
        {"combo": "K2", "n_pure": 2, "overall": 0.9},
    ],
}
NAMESPACES = {
    "namespaces": [
        {
            "name": "Linear algebra",
            "entries": [
                {"identifier": "A", "subscript": None, "definition": "illustrates", "score": 1.0},
                {"identifier": "x", "subscript": None, "definition": "eigenvector", "score": 0.95},
                # a cross-topic identifier: not in-topic, not scored
                {"identifier": "F", "subscript": None, "definition": "force", "score": 0.9995},
                # a subscripted key is a different identifier
                {"identifier": "x", "subscript": "1", "definition": "eigenvector", "score": 0.5},
            ],
        },
        {
            "name": "Classical mechanics",
            "entries": [
                {"identifier": "a", "subscript": None, "definition": "acceleration", "score": 0.999},
            ],
        },
    ]
}


def test_score_hand_made_outputs():
    q = quality.score(PURITY, NAMESPACES, TRUTH)
    assert q.n_pure == 2
    assert q.purity == 0.9
    assert str(q.def_accuracy) == "2/3"
    assert q.def_accuracy.value == pytest.approx(2 / 3)
    # 0.999 itself is not above the threshold
    assert str(q.score_saturation) == "2/5"
    assert q.n_namespaces == 2


def test_empty_base_reads_zero():
    q = quality.score(PURITY, {"namespaces": []}, TRUTH)
    assert str(q.def_accuracy) == "0/0" and q.def_accuracy.value == 0.0


def test_score_dir_reads_artifacts(tmp_path):
    (tmp_path / "purity.json").write_text(json.dumps(PURITY))
    (tmp_path / "namespaces.json").write_text(json.dumps(NAMESPACES))
    (tmp_path / "truth.json").write_text(json.dumps(TRUTH))
    q = quality.score_dir(tmp_path, tmp_path / "truth.json")
    assert q == quality.score(PURITY, NAMESPACES, TRUTH)
