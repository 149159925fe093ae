import json

import corpusgen


def test_same_seed_same_corpus_and_truth():
    a = corpusgen.make_corpus(3, n=20, sentences=6, filler=3, cross=0.15)
    b = corpusgen.make_corpus(3, n=20, sentences=6, filler=3, cross=0.15)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_different_seeds_differ():
    a, _ = corpusgen.make_corpus(3, n=20, sentences=6, filler=3, cross=0.15)
    b, _ = corpusgen.make_corpus(4, n=20, sentences=6, filler=3, cross=0.15)
    assert [d["text"] for d in a] != [d["text"] for d in b]


def test_shape_follows_parameters():
    docs, truth = corpusgen.make_corpus(1, n=25, sentences=7, filler=2, cross=0.0)
    assert len(docs) == 25
    assert len({d["doc_id"] for d in docs}) == 25
    topics = [d["category"] for d in docs]
    assert {topics.count(t) for t in truth} == {5}
    for doc in docs:
        assert doc["text"].count("the symbol $") == 7
        # with no cross-topic rate every defined symbol is the topic's own
        defs = set(truth[doc["category"]].values())
        for part in doc["text"].split(" is the ")[1:]:
            assert part.split(".")[0] in defs


def test_truth_keeps_article_identifiers():
    _, truth = corpusgen.make_corpus(1, n=5, sentences=1, filler=0, cross=0.0)
    assert truth["Linear algebra"]["A"] == "matrix"
    assert truth["Classical mechanics"]["a"] == "acceleration"


def test_filler_uses_articles():
    docs, _ = corpusgen.make_corpus(2, n=10, sentences=1, filler=8, cross=0.0)
    words = " ".join(d["text"] for d in docs).split()
    assert "A" in words and "a" in words


def test_write_corpus_round_trips(tmp_path):
    docs, truth = corpusgen.make_corpus(5, n=10, sentences=2, filler=1, cross=0.5)
    corpus_path, truth_path = corpusgen.write_corpus(tmp_path, docs, truth)
    lines = corpus_path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line) for line in lines] == docs
    assert json.loads(truth_path.read_text(encoding="utf-8")) == truth
