"""Relation extraction: nearest noun, patterns, probabilistic ranker."""

import gc
import json
import math
import sys
import weakref
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mathns.corpus import build_corpus, default_stop_lists, load_corpus
from mathns.errors import IdentifierNotInDocument
from mathns.extraction import (
    NEAREST_NOUN,
    PATTERN,
    RANKER,
    RankerParams,
    Relation,
    extract_relations,
    match_patterns,
    nearest_noun,
    prepare_corpus,
    rank_candidates,
    ranker_score,
)
from mathns import extraction, pipeline
from mathns.textproc import ID, LINK, NN, NNS, NOUN_PHRASE

STOPS = default_stop_lists()


def flat_tokens(doc):
    """``doc``'s tokens in reading order with their global positions."""
    return list(enumerate(tok for sentence in doc.sentences for tok in sentence))


def prepare_one(text: str, doc_id: str = "d"):
    corpus = build_corpus([{"doc_id": doc_id, "text": text}], STOPS)
    return next(prepare_corpus(corpus))


class TestNearestNoun:
    def test_bijection_sigma(self):
        doc = prepare_one(r"In other words, the bijection $\sigma$ normalizes $G$.")
        rels = extract_relations(doc, NEAREST_NOUN)
        assert ("sigma", "bijection") in {
            (r.identifier, r.definition) for r in rels
        }

    def test_verb_before_identifier_fails(self):
        doc = prepare_one(r"We denote $\sigma$ here.")
        sentence = doc.sentences[0]
        idx = next(i for i, t in enumerate(sentence) if t.tag == ID)
        assert nearest_noun(sentence, idx) is None

    def test_determiner_adjective_noun_run(self):
        doc = prepare_one("the unknown parameter $x$ is fixed.")
        sentence = doc.sentences[0]
        idx = next(i for i, t in enumerate(sentence) if t.tag == ID)
        rel = nearest_noun(sentence, idx)
        # brute scan over all prefixes ending right before the identifier:
        # the longest all-{DT,JJ,noun} suffix is "the unknown parameter"
        assert rel.definition == "unknown parameter"

    def test_reproduced_by_def_ide_pattern(self):
        doc = prepare_one("the bijection $\\sigma$ acts. a matrix $A$ here.")
        for sentence in doc.sentences:
            for idx, tok in enumerate(sentence):
                if tok.tag != ID:
                    continue
                rel = nearest_noun(sentence, idx)
                if rel is None:
                    continue
                pattern_hits = {
                    (r.identifier, r.definition) for r in match_patterns(sentence)
                }
                assert (rel.identifier, rel.definition) in pattern_hits


class TestMatchPatterns:
    def test_ide_is_def(self):
        doc = prepare_one("$E$ is energy.")
        hits = {(r.identifier, r.definition) for r in match_patterns(doc.sentences[0])}
        assert ("E", "energy") in hits

    def test_let_ide_be_def(self):
        doc = prepare_one("let $x$ be the step size.")
        hits = {(r.identifier, r.definition) for r in match_patterns(doc.sentences[0])}
        assert ("x", "step size") in hits

    def test_def_is_denoted_by_ide(self):
        doc = prepare_one("the temperature is denoted by $T$ here.")
        hits = {(r.identifier, r.definition) for r in match_patterns(doc.sentences[0])}
        assert ("T", "temperature") in hits

    def test_ide_denotes_def(self):
        doc = prepare_one("$v$ denotes the velocity of the particle.")
        hits = {(r.identifier, r.definition) for r in match_patterns(doc.sentences[0])}
        assert ("v", "velocity") in hits

    def test_sentence_without_ids_empty(self):
        doc = prepare_one("plain words only here.")
        assert match_patterns(doc.sentences[0]) == []

    def test_scores_are_one(self):
        doc = prepare_one("$E$ is energy.")
        assert all(r.score == 1.0 for r in match_patterns(doc.sentences[0]))


class TestRankerScore:
    def test_zero_distances(self):
        params = RankerParams(alpha=1.0, beta=1.0, gamma=0.1)
        assert ranker_score(0, 0, 0.0, params) == pytest.approx(2.0 / 2.1)

    def test_equal_weights_equal_components(self):
        params = RankerParams(alpha=2.0, beta=2.0, gamma=2.0)
        # all three components equal c: the weighted mean is c itself
        c = math.exp(-(3**2) / (2 * params.sigma_d**2))
        n = math.sqrt(2 * params.sigma_s**2 * (3**2) / (2 * params.sigma_d**2))
        assert ranker_score(3, n, c, params) == pytest.approx(c)

    def test_independent_arithmetic(self):
        params = RankerParams(sigma_d=5.0, sigma_s=2.0)
        expected = (math.exp(-25.0 / 50.0) + math.exp(-1.0 / 8.0) + 0.1 * 0.2) / 2.1
        assert ranker_score(5, 1, 0.2, params) == pytest.approx(expected, abs=1e-12)

    @given(
        st.floats(0, 50),
        st.floats(0, 20),
        st.floats(0, 1),
    )
    def test_bounded_zero_one(self, delta, n, tf):
        value = ranker_score(delta, n, tf, RankerParams())
        assert 0.0 <= value <= 1.0

    @given(st.floats(0, 30), st.floats(0, 30))
    def test_monotone_in_delta(self, d1, d2):
        lo, hi = sorted((d1, d2))
        params = RankerParams()
        assert ranker_score(hi, 1, 0.3, params) <= ranker_score(lo, 1, 0.3, params)

    @given(st.floats(0, 30), st.floats(0, 30))
    def test_monotone_in_sentence_distance(self, n1, n2):
        lo, hi = sorted((n1, n2))
        params = RankerParams()
        assert ranker_score(2, hi, 0.3, params) <= ranker_score(2, lo, 0.3, params)

    @given(st.floats(0.01, 100))
    def test_weight_scaling_invariant(self, factor):
        base = RankerParams(alpha=1.0, beta=1.0, gamma=0.1)
        scaled = RankerParams(alpha=factor, beta=factor, gamma=0.1 * factor)
        a = ranker_score(3, 1, 0.5, base)
        b = ranker_score(3, 1, 0.5, scaled)
        assert a == pytest.approx(b, rel=1e-9)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RankerParams(alpha=0.0, beta=0.0, gamma=0.0)
        with pytest.raises(ValueError):
            RankerParams(sigma_d=-1.0)

    @pytest.mark.parametrize(
        "params",
        [RankerParams(), RankerParams(0.0, 1.3, 0.45, 3.3, 0.9), RankerParams(sigma_d=1e150)],
    )
    def test_derived_values_keep_the_bits_of_their_expressions(self, params):
        # every score divides by these, so each must equal the expression it replaced
        assert params.weight.hex() == (params.alpha + params.beta + params.gamma).hex()
        assert params.width_d.hex() == (2.0 * params.sigma_d**2).hex()
        assert params.width_s.hex() == (2.0 * params.sigma_s**2).hex()
        assert replace(params, sigma_s=3.0).width_s == 18.0
        with pytest.raises(FrozenInstanceError):  # so they cannot go stale
            params.sigma_d = 1.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", ["alpha", "beta", "gamma", "sigma_d", "sigma_s", "retain_threshold"]
    )
    def test_non_finite_params(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RankerParams(**{name: value})


class TestRankCandidates:
    TEXT = (
        "The relation between energy and mass is described by the "
        "mass-energy equivalence formula $E = mc^2$, where $E$ is energy, "
        "$m$ is mass and $c$ is the [[ speed of light ]]."
    )

    def test_missing_identifier_raises(self):
        doc = prepare_one(self.TEXT)
        with pytest.raises(IdentifierNotInDocument):
            rank_candidates(doc, "zeta")

    def test_candidates_sorted_descending(self):
        doc = prepare_one(self.TEXT)
        ranked = rank_candidates(doc, "E")
        scores = [s for _, s in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_emc2_relations_extracted(self):
        doc = prepare_one(self.TEXT)
        rels = {
            (r.identifier, r.definition)
            for r in extract_relations(doc, RANKER)
        }
        assert {("E", "energy"), ("m", "mass"), ("c", "speed of light")} <= rels

    def test_no_candidates(self):
        doc = prepare_one("just $x$ alone")
        # every noun-like token is absent, so nothing can be ranked
        assert extract_relations(doc, RANKER) == []


class TestExtractRelations:
    def test_dedup_keeps_max_score(self):
        doc = prepare_one("the energy $E$ is energy.")
        rels = [r for r in extract_relations(doc, RANKER) if r.definition == "energy"]
        assert len(rels) == 1

    def test_definition_stop_filtered(self):
        doc = prepare_one("$x$ is a variable.")
        rels = extract_relations(doc, RANKER, definition_stop=frozenset({"variable"}))
        assert all(r.definition != "variable" for r in rels)

    @pytest.mark.parametrize("method", [PATTERN, RANKER])
    def test_formula_inside_a_link_stays_out_of_the_definition(self, method):
        doc = prepare_one("The [[ speed $u + v$ of light ]] is $c$. The [[ $u + v$ ]] is $w$.")
        rels = extract_relations(doc, method)
        assert ("c", "speed of light") in {(r.identifier, r.definition) for r in rels}
        assert all(r.definition and "$" not in r.definition for r in rels)

    @pytest.mark.parametrize("method", [PATTERN, RANKER])
    def test_identifier_inside_a_link_is_defined_by_it(self, method):
        # the link's text was "mass m", and m had no ID token to define
        rels = extract_relations(prepare_one("The [[ mass $m$ ]] is large."), method)
        assert [(r.identifier, r.definition) for r in rels] == [("m", "mass")]

    @pytest.mark.parametrize("method", [NEAREST_NOUN, PATTERN, RANKER])
    @pytest.mark.parametrize("text", [
        "The mass $m$ is 3.14 kilograms here.",
        "The mass $m$ is fixed.No space here",
        "The mass $m$ is in abc.def units.",
    ])
    def test_a_stop_that_no_whitespace_follows_keeps_the_definition(self, text, method):
        # the sentence splitter dropped every word in front of such a stop
        rels = extract_relations(prepare_one(text), method)
        assert ("m", "mass") in {(r.identifier, r.definition) for r in rels}

    def test_doc_id_attached(self):
        doc = prepare_one("$E$ is energy.", doc_id="paper-1")
        rels = extract_relations(doc, PATTERN)
        assert all(r.doc_id == "paper-1" for r in rels)


def oracle_rank_candidates(doc, identifier_key, params):
    """All occurrences per candidate and a sentence rescan per tf."""
    # (sentence index, token) in reading order; a token's position is its index here
    flat = [(s, tok) for s, sentence in enumerate(doc.sentences) for tok in sentence]
    occurrences = [
        (pos, s) for pos, (s, tok) in enumerate(flat)
        if tok.tag == ID and tok.text == identifier_key
    ]
    if not occurrences:
        raise IdentifierNotInDocument(identifier_key)
    first_sentence = occurrences[0][1]
    scored = []
    for pos, (s, tok) in enumerate(flat):
        if tok.tag not in (NN, NNS, LINK, NOUN_PHRASE):
            continue
        delta = min(abs(pos - q) for q, _ in occurrences)
        n_sent = abs(s - first_sentence)
        sentence = doc.sentences[s]
        tf = sum(1 for t in sentence if t.text == tok.text) / len(sentence)
        scored.append((ranker_score(delta, n_sent, tf, params), delta, pos, tok))
    scored.sort(key=lambda item: (-item[0], item[1], item[2]))
    return [(tok, score) for score, _, _, tok in scored]


# widths and weights away from the defaults, one weight zero
OTHER_PARAMS = RankerParams(alpha=0.0, beta=1.3, gamma=0.45, sigma_d=3.3, sigma_s=0.9)

# sentences that repeat identifiers, so distances repeat as well
REPEATING_SENTENCES = st.lists(
    st.lists(
        st.sampled_from(
            ["the", "energy", "mass", "is", "of", "speed", "light", "field",
             "values", "$x$", "$E$", "$m$"]
        ),
        min_size=1,
        max_size=12,
    ).map(" ".join),
    min_size=1,
    max_size=5,
)


class TestRankCandidatesOracle:
    @pytest.fixture(scope="class")
    def toy_docs(self, toy_corpus_path):
        return list(prepare_corpus(load_corpus(toy_corpus_path)))

    @pytest.mark.parametrize(
        "params",
        [RankerParams(), RankerParams(0.3, 2.0, 0.7, 1.5, 0.5), OTHER_PARAMS],
    )
    def test_every_toy_identifier_matches_oracle(self, toy_docs, params):
        checked = 0
        for doc in toy_docs:
            keys = sorted({tok.text for _, tok in flat_tokens(doc) if tok.tag == ID})
            for key in keys:
                got = rank_candidates(doc, key, params)
                want = oracle_rank_candidates(doc, key, params)
                assert [t for t, _ in got] == [t for t, _ in want]
                assert [s for _, s in got] == [s for _, s in want]  # exactly equal
                checked += 1
        assert checked > 100

    @given(REPEATING_SENTENCES)
    def test_repeated_identifiers_match_oracle(self, sentences):
        # toy documents mostly name each identifier once; these repeat them
        doc = prepare_one(". ".join(sentences) + ".")
        params = RankerParams()
        for key in {tok.text for _, tok in flat_tokens(doc) if tok.tag == ID}:
            assert rank_candidates(doc, key, params) == oracle_rank_candidates(doc, key, params)

    @given(REPEATING_SENTENCES)
    def test_repeated_identifiers_match_oracle_with_other_params(self, sentences):
        # rank_candidates inlines ranker_score's expression; its scores must
        # still equal ranker_score's bit for bit under other widths and weights
        doc = prepare_one(". ".join(sentences) + ".")
        for key in {tok.text for _, tok in flat_tokens(doc) if tok.tag == ID}:
            got = rank_candidates(doc, key, OTHER_PARAMS)
            assert got == oracle_rank_candidates(doc, key, OTHER_PARAMS)

    def test_missing_identifier_still_raises(self, toy_docs):
        with pytest.raises(IdentifierNotInDocument):
            rank_candidates(toy_docs[0], "not-an-identifier")

    def test_ranking_leaves_the_document_as_it_was(self, toy_docs):
        doc = toy_docs[1]
        before = dict(vars(doc))
        assert extract_relations(doc, RANKER)
        key = next(tok.text for _, tok in flat_tokens(doc) if tok.tag == ID)
        assert rank_candidates(doc, key)
        assert vars(doc) == before


def test_extract_all_holds_one_prepared_document(monkeypatch, toy_config_path):
    """When ``_extract_all`` extracts document i, no earlier document's
    ``PreparedDocument`` can be reached: ``prepare_corpus`` prepares each
    one when asked for it, and extraction keeps nothing of it."""
    config = pipeline.PipelineConfig.load(toy_config_path)
    corpus = pipeline._load_corpus(config)
    extract, earlier, alive = pipeline.extract_relations, [], []

    def tracked(doc, *args):
        gc.collect()
        alive.append(sum(ref() is not None for ref in earlier))
        earlier.append(weakref.ref(doc))
        return extract(doc, *args)

    monkeypatch.setattr(pipeline, "extract_relations", tracked)
    assert list(pipeline._extract_all(config, corpus))
    assert len(alive) == len(corpus.documents) > 1
    assert alive == [0] * len(alive)


class Probe:
    """A stand-in relation that a weak reference can watch."""

    def __init__(self, doc_id):
        self.doc_id = doc_id


def test_stats_stage_holds_one_documents_relations(monkeypatch, tmp_path, toy_config_path):
    """When the stats stage extracts document i, no relation of an earlier
    document can be reached: the stage keeps only each document's count."""
    config = pipeline.PipelineConfig.load(toy_config_path, out=tmp_path / "out")
    earlier, alive = [], []

    def probed(doc, *args):
        gc.collect()
        alive.append(sum(ref() is not None for ref in earlier))
        probe = Probe(doc.document.doc_id)
        earlier.append(weakref.ref(probe))
        return [probe]

    monkeypatch.setattr(pipeline, "extract_relations", probed)
    pipeline.run_stage(config, "stats")
    assert len(alive) > 1 and alive == [0] * len(alive)
    stats = json.loads((config.output_dir / "stats.json").read_text(encoding="utf-8"))
    assert len(stats["definitions_per_document"]) == len(alive)


class RelationProbe(Probe):
    """A stand-in relation with every field the relations writer reads."""

    def __init__(self, doc_id):
        super().__init__(doc_id)
        self.fields = Relation("x", "mass", 0.5, RANKER, doc_id)

    def __getattr__(self, name):
        return getattr(self.fields, name)

    def __getitem__(self, i):
        return self.fields[i]


def test_extract_stage_holds_one_documents_relations(monkeypatch, tmp_path, toy_config_path):
    """When the extract stage extracts document i, no relation of an earlier
    document can be reached: each is written before the next document is
    prepared, and the documents go in ``doc_id`` order."""
    config = pipeline.PipelineConfig.load(toy_config_path, out=tmp_path / "out")
    earlier, alive, order = [], [], []

    def probed(doc, *args):
        gc.collect()
        alive.append(sum(ref() is not None for ref in earlier))
        probe = RelationProbe(doc.document.doc_id)
        earlier.append(weakref.ref(probe))
        order.append(probe.doc_id)
        return [probe]

    monkeypatch.setattr(pipeline, "extract_relations", probed)
    pipeline.run_stage(config, "extract")
    assert len(alive) > 1 and alive == [0] * len(alive)
    assert order == sorted(order)
    assert [r.doc_id for r in extraction.read_relations(config.output_dir)] == order


def old_extract_ranker(doc, params, definition_stop=frozenset()):
    """``extract_relations``' ranker path as a loop: every candidate of
    every identifier ranked by the oracle, then those below the threshold
    dropped."""
    raw = []
    for key in sorted({tok.text for _, tok in flat_tokens(doc) if tok.tag == ID}):
        for tok, score in oracle_rank_candidates(doc, key, params):
            if score >= params.retain_threshold:
                raw.append(
                    Relation(identifier=key, definition=tok.text, score=score, method=RANKER)
                )
    best = {}
    for rel in raw:
        definition = rel.definition.strip()
        if not definition or definition.lower() in definition_stop:
            continue
        key = (rel.identifier, definition)
        if key not in best or rel.score > best[key].score:
            best[key] = Relation(
                identifier=rel.identifier,
                definition=definition,
                score=rel.score,
                method=rel.method,
                doc_id=doc.document.doc_id,
            )
    return [best[k] for k in sorted(best)]


def with_bits(relations):
    return [(r, r.score.hex()) for r in relations]


WEIGHTS = st.one_of(st.just(0.0), st.floats(0.0, 10.0), st.sampled_from([1e-300, 1e-9, 1e9]))
WIDTHS = st.one_of(st.floats(0.05, 50.0), st.sampled_from([1e-100, 1e-3, 1e3, 1e100]))
# up to 14 sentences that repeat identifiers; the last has no full stop,
# so when it is one noun run that candidate has tf 1
LONG_DOCS = st.lists(
    st.lists(
        st.sampled_from(
            ["the", "energy", "mass", "is", "of", "speed", "light", "field", "values",
             "$x$", "$E$", "$m$"]
        ),
        min_size=1,
        max_size=15,
    ).map(" ".join),
    min_size=1,
    max_size=14,
).map(". ".join)


class TestBoundedRanker:
    """``extract_relations`` thresholds one numpy score table; its relations,
    scores bit for bit, must equal those of ``oracle_rank_candidates``, which
    scores each candidate in a loop with ``ranker_score``."""

    @pytest.mark.parametrize(
        "params",
        [RankerParams(), RankerParams(0.3, 2.0, 0.7, 1.5, 0.5, 0.2), OTHER_PARAMS,
         RankerParams(retain_threshold=0.0), RankerParams(retain_threshold=1.0)],
    )
    def test_every_toy_document_matches_ranking_every_candidate(self, toy_corpus_path, params):
        for doc in prepare_corpus(load_corpus(toy_corpus_path)):
            assert with_bits(extract_relations(doc, RANKER, params, STOPS.definition_stop)) == (
                with_bits(old_extract_ranker(doc, params, STOPS.definition_stop))
            )

    @settings(max_examples=300)
    @given(LONG_DOCS, WEIGHTS, WEIGHTS, WEIGHTS, WIDTHS, WIDTHS, st.data())
    def test_matches_ranking_every_candidate(
        self, text, alpha, beta, gamma, sigma_d, sigma_s, data
    ):
        assume(alpha + beta + gamma >= sys.float_info.min)
        doc = prepare_one(text)
        params = RankerParams(alpha, beta, gamma, sigma_d, sigma_s)
        keys = {tok.text for _, tok in flat_tokens(doc) if tok.tag == ID}
        scores = sorted({s for key in keys for _, s in rank_candidates(doc, key, params)})
        # a threshold equal to a candidate's score puts it exactly at the radius
        thresholds = [st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)]
        threshold = data.draw(st.one_of(*thresholds, *[st.sampled_from(scores)] * bool(scores)))
        params = replace(params, retain_threshold=threshold)
        got = extract_relations(doc, RANKER, params)
        assert with_bits(got) == with_bits(old_extract_ranker(doc, params))

    def test_subnormal_weight_sum_is_rejected(self):
        # with W = 5e-324, _reach's margin 1e-9 * W underflowed to 0: the bound
        # dropped ("x", "energy"), which the full ranking keeps at exactly 1.0
        with pytest.raises(ValueError, match="must be a normal float, got 5e-324"):
            RankerParams(alpha=5e-324, beta=0.0, gamma=0.0, retain_threshold=1.0)
        doc = prepare_one("energy $x$")
        params = RankerParams(alpha=sys.float_info.min, beta=0.0, gamma=0.0)
        score = rank_candidates(doc, "x", params)[0][1]
        for threshold in (score, 1.0):
            params = replace(params, retain_threshold=threshold)
            got = extract_relations(doc, RANKER, params)
            assert with_bits(got) == with_bits(old_extract_ranker(doc, params))
        assert [(r.identifier, r.definition) for r in extract_relations(
            doc, RANKER, replace(params, retain_threshold=score))] == [("x", "energy")]

    def test_radius_is_the_largest_over_sentence_distances(self):
        # with the defaults, sentence distance 2 passes tokens up to 10.03 away
        # and distance 6 only up to 3.97; "energy" is 8 tokens from $x$ at
        # sentence distance 2, with tf 1/6, and scores 0.429
        doc = prepare_one("$x$. of. of of of of energy. of. of. of. of")
        got = extract_relations(doc, RANKER)
        assert ("x", "energy") in {(r.identifier, r.definition) for r in got}
        assert with_bits(got) == with_bits(old_extract_ranker(doc, RankerParams()))

    @pytest.mark.parametrize("gamma", [0.0, 0.1, 0.7])
    @pytest.mark.parametrize("distance", range(1, 13))
    def test_candidate_at_the_radius_is_kept(self, distance, gamma):
        # "energy" alone in the last sentence has tf 1, so the bound is tight
        # for it: with the threshold at its score, it sits exactly at the radius
        text = "$x$" + " of" * (distance - 1) + ". energy"
        doc = prepare_one(text)
        params = RankerParams(gamma=gamma, sigma_d=3.0, sigma_s=0.5)
        threshold = ranker_score(distance + 1, 1, 1.0, params)  # the full stop is a token
        params = replace(params, retain_threshold=threshold)
        got = extract_relations(doc, RANKER, params)
        assert [(r.identifier, r.definition, r.score) for r in got] == [
            ("x", "energy", threshold)
        ]
        assert with_bits(got) == with_bits(old_extract_ranker(doc, params))


class TestGaussianTables:
    """The ranker's ``math.exp`` tables live for the process, one per width,
    and grow only as far as the longest distance seen."""

    SHORT = "the energy $E$ is large. the mass $m$ of it."
    # more tokens and sentences between an identifier and a candidate
    LONG = "$x$ holds. " + "of of of of of. " * 9 + "the energy of the field $E$ of light."

    def check(self, text, params):
        doc = prepare_one(text)
        got = extract_relations(doc, RANKER, params)
        assert with_bits(got) == with_bits(old_extract_ranker(doc, params))
        for key in {tok.text for _, tok in flat_tokens(doc) if tok.tag == ID}:
            ranked, want = rank_candidates(doc, key, params), oracle_rank_candidates(doc, key, params)
            assert [(tok, score.hex()) for tok, score in ranked] == [
                (tok, score.hex()) for tok, score in want
            ]
        return got

    def test_tables_grow_across_documents_and_keep_every_bit(self, monkeypatch):
        tables = {}
        monkeypatch.setattr(extraction, "_GAUSSIANS", tables)
        params = RankerParams(retain_threshold=0.0)
        first = self.check(self.SHORT, params)
        short_d, short_s = len(tables[params.width_d]), len(tables[params.width_s])
        self.check(self.LONG, params)
        assert len(tables[params.width_d]) > short_d and len(tables[params.width_s]) > short_s
        grown = {width: table.copy() for width, table in tables.items()}
        assert with_bits(self.check(self.SHORT, params)) == with_bits(first)
        for width, table in tables.items():  # read, not rebuilt or shrunk
            assert table.tobytes() == grown[width].tobytes()
            assert table.tolist() == [math.exp(-(x**2) / width) for x in range(len(table))]

    def test_widths_never_read_each_others_table(self, monkeypatch):
        tables = {}
        monkeypatch.setattr(extraction, "_GAUSSIANS", tables)
        narrow = RankerParams(sigma_d=1.5, retain_threshold=0.0)
        wide = replace(narrow, sigma_d=7.0)
        for params in (narrow, wide, narrow, wide):
            for text in (self.LONG, self.SHORT):
                self.check(text, params)
        assert set(tables) == {narrow.width_d, wide.width_d, narrow.width_s}
        for width, table in tables.items():
            assert table.tolist() == [math.exp(-(x**2) / width) for x in range(len(table))]
