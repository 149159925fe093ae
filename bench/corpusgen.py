"""Seeded synthetic corpus generator for the benchmark.

Documents are built from the five-topic vocabulary of
``demos/make_toy_corpus.py`` (imported read-only), so every identifier
has a known definition per topic.  Besides the corpus it returns the
ground-truth ``topic -> {identifier: definition}`` map the quality
scorer checks namespaces against.

Filler prose deliberately uses the articles "A" and "a": both are also
identifiers of the vocabulary, so the pipeline's article-as-identifier
defect stays visible in the definition accuracy.

Usage: python3 bench/corpusgen.py --seed 1 --n 600 --sentences 40
       --filler 20 --cross 0.15 --out DIR
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import random
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
TOY_GENERATOR = REPO / "demos" / "make_toy_corpus.py"

_FILLER = (
    "A short example illustrates the {noun} of the argument.",
    "We now give a brief argument for the {adj} {noun}.",
    "A careful reader may check each {noun} by hand.",
    "This section reviews a {adj} {noun} from the literature.",
    "Such a {noun} is often {adj} in practice.",
    "The {noun} here is {adj} and the {noun2} is {adj2}.",
)
_FILLER_NOUNS = (
    "proof", "theorem", "equation", "step", "bound", "limit", "model",
    "process", "sequence", "series", "point", "line", "factor", "ratio",
)
_FILLER_ADJS = ("general", "special", "real", "finite", "linear", "fixed", "central", "total")


def load_toy_module(path: Path = TOY_GENERATOR):
    """Import the toy-corpus script by path, without running its main."""
    if not path.is_file():
        raise FileNotFoundError(f"toy corpus generator not found: {path}")
    spec = importlib.util.spec_from_file_location("make_toy_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ground_truth(topics: dict) -> dict[str, dict[str, str]]:
    """Topic name -> {identifier key: definition}."""
    return {
        name: {sym: definition for sym, definition, _ in spec["identifiers"]}
        for name, spec in topics.items()
    }


def make_corpus(
    seed: int, n: int, sentences: int, filler: int, cross: float, toy=None
) -> tuple[list[dict], dict[str, dict[str, str]]]:
    """Build ``n`` documents and the ground truth.

    Each document has one topic (balanced over the five, shuffled),
    ``sentences`` formula sentences and ``filler`` prose sentences at
    random positions.  ``round(cross * sentences)`` formula sentences
    define a random identifier of another topic; the others cycle
    through the topic's own identifiers from a random offset.  Fixing
    these counts per document keeps the corpus shape the same across
    seeds, so the seed varies the details and not how separable the
    topics are.
    """
    if toy is None:
        toy = load_toy_module()
    rng = random.Random(seed)
    names = list(toy.TOPICS)
    order = [i % len(names) for i in range(n)]
    rng.shuffle(order)
    docs = []
    for idx, t in enumerate(order):
        name = names[t]
        spec = toy.TOPICS[name]
        title = spec["titles"][rng.randrange(len(spec["titles"]))]
        idents = spec["identifiers"]
        n_cross = round(cross * sentences)
        kinds = ["x"] * n_cross + ["f"] * (sentences - n_cross) + ["p"] * filler
        rng.shuffle(kinds)
        parts = [toy.OPENER.format(title_lower=title.lower())]
        for kind in kinds:
            if kind == "p":
                nouns = rng.sample(_FILLER_NOUNS, 2)
                adjs = rng.sample(_FILLER_ADJS, 2)
                parts.append(
                    rng.choice(_FILLER).format(
                        noun=nouns[0], noun2=nouns[1], adj=adjs[0], adj2=adjs[1]
                    )
                )
                continue
            if kind == "f":
                sym, definition, tex = rng.choice(idents)
            else:
                other = names[(t + 1 + rng.randrange(len(names) - 1)) % len(names)]
                sym, definition, tex = rng.choice(toy.TOPICS[other]["identifiers"])
            sym_tex = "\\" + sym if len(sym) > 1 else sym
            parts.append(toy.SENTENCE.format(tex=tex, sym=sym_tex, definition=definition))
        docs.append(
            {
                "doc_id": f"d{idx:06d}",
                "title": title,
                "category": name,
                "text": " ".join(parts),
            }
        )
    return docs, ground_truth(toy.TOPICS)


def write_corpus(out_dir: Path, docs: list[dict], truth: dict) -> tuple[Path, Path]:
    """Write ``corpus.jsonl`` and ``truth.json`` into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_path = out_dir / "corpus.jsonl"
    truth_path = out_dir / "truth.json"
    corpus_path.write_text(
        "".join(json.dumps(doc, sort_keys=True) + "\n" for doc in docs), encoding="utf-8"
    )
    truth_path.write_text(json.dumps(truth, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return corpus_path, truth_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True, help="number of documents")
    parser.add_argument("--sentences", type=int, required=True, help="formula sentences per document")
    parser.add_argument("--filler", type=int, default=0, help="prose sentences per document")
    parser.add_argument("--cross", type=float, default=0.0, help="cross-topic identifier rate")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    docs, truth = make_corpus(args.seed, args.n, args.sentences, args.filler, args.cross)
    corpus_path, _ = write_corpus(args.out, docs, truth)
    print(f"wrote {len(docs)} documents to {corpus_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
