"""Build the identifier vector space in its three association modes.

Reconstructs the classic three-document example (documents holding
{E, m, c}, {m, c} and {E} with definitions energy / mass / speed of
light) and prints the resulting matrices under binary weighting, then
shows what TF-IDF weighting does to a slightly larger corpus.
"""

import numpy as np

from mathns import Identifier, Relation, build_corpus, build_vocabulary, vectorize
from mathns.idspace import BINARY, IDENTIFIERS_ONLY, STRONG, TFIDF, WEAK


def rel(doc, ident, definition):
    return Relation(Identifier(base=ident, display=ident), definition, 1.0, "pattern", doc)


def show(corpus, relations, mode):
    vocab = build_vocabulary(relations, corpus, mode, min_df=2)
    dm = vectorize(corpus, relations, vocab, BINARY, normalize=False)
    print(f"\nmode = {mode}: dimensions {list(vocab.dims)}")
    dense = dm.matrix.toarray().astype(int)
    for doc_id, row in zip(dm.doc_ids, dense):
        print(f"  {doc_id}: {row}")


def main():
    corpus = build_corpus(
        [
            {"doc_id": "d1", "text": "$E$ $m$ $c$"},
            {"doc_id": "d2", "text": "$m$ $c$"},
            {"doc_id": "d3", "text": "$E$"},
        ]
    )
    relations = [
        rel("d1", "E", "energy"),
        rel("d1", "m", "mass"),
        rel("d1", "c", "speed of light"),
        rel("d2", "m", "mass"),
        rel("d2", "c", "speed of light"),
        rel("d3", "E", "energy"),
    ]
    for mode in (IDENTIFIERS_ONLY, WEAK, STRONG):
        show(corpus, relations, mode)

    # TF-IDF demotes ubiquitous identifiers: x occurs everywhere below
    corpus2 = build_corpus(
        [
            {"doc_id": "a", "text": "$x$ $x$ $y$"},
            {"doc_id": "b", "text": "$x$ $y$"},
            {"doc_id": "c", "text": "$x$ $z$ $z$"},
            {"doc_id": "d", "text": "$x$ $z$"},
        ]
    )
    relations2 = [rel(d, "x", "value") for d in "abcd"]
    vocab = build_vocabulary(relations2, corpus2, IDENTIFIERS_ONLY, min_df=2)
    dm = vectorize(corpus2, relations2, vocab, TFIDF, normalize=False)
    print(f"\nTF-IDF weights over dims {list(vocab.dims)} (x is everywhere, weight 0):")
    print(np.round(dm.matrix.toarray(), 3))


if __name__ == "__main__":
    main()
