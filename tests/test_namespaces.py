"""Namespace assembly: merging, squashing, naming, hierarchy mapping.

The golden fixture is a three-document cluster with per-document scored
relations; every intermediate (exact merge sums, fuzzy groups, final
squashed entries) is pinned.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathns.corpus import identifier_key, load_corpus
from mathns.errors import EmptyScheme, NoRelationsInCluster
from mathns.extraction import Relation, extract_relations, prepare_corpus
from mathns.namespaces import (
    OTHERS,
    FuzzyMemo,
    HierarchyScheme,
    build_namespace,
    levenshtein,
    map_to_hierarchy,
    merge_exact,
    merge_fuzzy,
    squash_score,
)
from mathns.stemming import definition_tokens


def rel(doc, base, definition, score, sub=None):
    return Relation(identifier_key(base, sub), definition, score, "ranker", doc)


def golden_relations():
    doc_a = [
        rel("A", "n", "predictions", 0.95),
        rel("A", "n", "size", 0.92),
        rel("A", "n", "random sample", 0.82),
        rel("A", "n", "population", 0.82),
        rel("A", "theta", "estimator", 0.98),
        rel("A", "theta", "unknown parameter", 0.98),
        rel("A", "theta", "unknown parameter", 0.94),
        rel("A", "mu", "true mean", 0.96),
        rel("A", "mu", "random variables", 0.89),
        rel("A", "mu", "central moment", 0.83, sub="4"),
        rel("A", "sigma", "population variance", 0.86),
        rel("A", "sigma", "square error", 0.83),
        rel("A", "sigma", "estimators", 0.82),
    ]
    doc_b = [
        rel("B", "P", "family", 0.87, sub="theta"),
        rel("B", "X", "measurable space", 0.95),
        rel("B", "X", "Poisson", 0.82),
        rel("B", "theta", "sufficient statistic", 0.93),
        rel("B", "mu", "mean", 0.99),
        rel("B", "mu", "variance", 0.95),
        rel("B", "mu", "random variables", 0.89),
        rel("B", "mu", "normal", 0.83),
        rel("B", "sigma", "variance", 0.99),
        rel("B", "sigma", "mean", 0.83),
    ]
    doc_c = [
        rel("C", "n", "tickets", 0.96),
        rel("C", "n", "maximum-likelihood estimator", 0.89),
        rel("C", "x", "data", 0.99),
        rel("C", "x", "observations", 0.93),
        rel("C", "theta", "statistic", 0.95),
        rel("C", "theta", "estimator", 0.93),
        rel("C", "theta", "estimator", 0.93),
        rel("C", "theta", "rise", 0.91),
        rel("C", "theta", "statistical model", 0.85),
        rel("C", "theta", "fixed constant", 0.82),
        rel("C", "mu", "expectation", 0.96),
        rel("C", "mu", "variance", 0.93),
        rel("C", "mu", "random variables", 0.89),
        rel("C", "sigma", "variance", 0.94),
        rel("C", "sigma", "population variance", 0.91),
        rel("C", "sigma", "estimator", 0.87),
    ]
    return doc_a + doc_b + doc_c


class TestMergeExact:
    def test_theta_estimator_sum(self):
        merged = merge_exact(golden_relations())
        assert dict(merged["theta"])["estimator"] == pytest.approx(0.98 + 0.93 + 0.93)

    def test_single_pair_unchanged(self):
        merged = merge_exact([rel("A", "x", "data", 0.7)])
        assert merged["x"] == [("data", 0.7)]

    def test_sigma_partial_sums(self):
        merged = merge_exact(golden_relations())
        sigma = dict(merged["sigma"])
        assert sigma["variance"] == pytest.approx(0.99 + 0.94)
        assert sigma["population variance"] == pytest.approx(0.86 + 0.91)


class TestMergeFuzzy:
    def test_variance_group(self):
        grouped = merge_fuzzy(merge_exact(golden_relations()), FuzzyMemo(0.85))
        sigma = {g.label: g for g in grouped["sigma"]}
        assert sigma["variance"].score == pytest.approx(3.7)
        assert set(sigma["variance"].members) == {"variance", "population variance"}

    def test_mean_group(self):
        grouped = merge_fuzzy(merge_exact(golden_relations()), FuzzyMemo(0.85))
        mu = {g.label: g for g in grouped["mu"]}
        assert mu["mean"].score == pytest.approx(0.99 + 0.96)
        assert set(mu["mean"].members) == {"mean", "true mean"}

    def test_statistic_group_stays_apart_from_estimator(self):
        grouped = merge_fuzzy(merge_exact(golden_relations()), FuzzyMemo(0.85))
        theta = {g.label: g for g in grouped["theta"]}
        assert theta["estimator"].score == pytest.approx(2.84)
        assert theta["statistic"].score == pytest.approx(0.95 + 0.93)
        assert "statistical model" in theta  # not sucked into the group

    def test_disjoint_strings_stay_apart(self):
        merged = {"x": [("data", 0.99), ("observations", 0.93)]}
        grouped = merge_fuzzy(merged, FuzzyMemo(0.85))
        assert len(grouped["x"]) == 2

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["mean", "true mean", "variance", "error", "rate"]),
                st.floats(0.1, 1.0),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_score_mass_conserved(self, pairs):
        relations = [rel("D", "z", d, s) for d, s in pairs]
        merged = merge_exact(relations)
        grouped = merge_fuzzy(merged, FuzzyMemo(0.85))
        total_in = sum(s for _, s in pairs)
        total_out = sum(g.score for g in grouped["z"])
        assert total_out == pytest.approx(total_in)


class TestTokenSetRatio:
    def test_containment_scores_full(self):
        assert FuzzyMemo(1.0).near("variance", "population variance")

    def test_plural_matches_after_stemming(self):
        assert FuzzyMemo(1.0).near("estimator", "estimators")

    def test_unrelated_low(self):
        assert not FuzzyMemo(0.85).near("estimator", "statistic")

    def test_levenshtein_basics(self):
        assert levenshtein("kitten", "sitting", 7) == 3
        assert levenshtein("", "abc", 3) == 3


class TestSquashScore:
    def test_anchor_three(self):
        assert squash_score(3.0) == pytest.approx(0.905, abs=0.001)

    def test_zero(self):
        assert squash_score(0.0) == 0.0

    def test_worked_values(self):
        assert squash_score(3.7) == pytest.approx(0.95, abs=0.005)
        assert squash_score(2.84) == pytest.approx(0.89, abs=0.005)
        assert squash_score(0.83) == pytest.approx(0.39, abs=0.005)

    @given(st.floats(0, 50), st.floats(0, 50))
    def test_strictly_monotone(self, a, b):
        if a == b:
            assert squash_score(a) == squash_score(b)
        else:
            lo, hi = sorted((a, b))
            assert squash_score(lo) < squash_score(hi) or math.tanh(lo / 2) == math.tanh(hi / 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            squash_score(-0.1)


class TestBuildNamespace:
    LABELS = {"A": "Statistics", "B": "Statistics", "C": "Estimation theory"}

    def test_golden_namespace(self):
        ns = build_namespace(["A", "B", "C"], golden_relations(), self.LABELS, FuzzyMemo(0.85))
        entries = {e.identifier: e for e in ns.entries}
        expected = {
            "P_theta": ("family", 0.41),
            "X": ("measurable space", 0.44),
            "n": ("tickets", 0.45),
            "x": ("data", 0.46),
            "theta": ("estimator", 0.89),
            "mu": ("random variables", 0.87),
            "mu_4": ("central moment", 0.39),
            "sigma": ("variance", 0.95),
        }
        assert set(entries) == set(expected)
        for key, (definition, score) in expected.items():
            assert entries[key].definition == definition
            assert entries[key].score == pytest.approx(score, abs=0.005)

    def test_entries_write_a_key_as_identifier_and_subscript(self):
        ns = build_namespace(["A", "B", "C"], golden_relations(), self.LABELS, FuzzyMemo(0.85))
        fields = {(e["identifier"], e["subscript"]) for e in ns.to_dict()["entries"]}
        assert fields == {
            ("P", "theta"), ("X", None), ("n", None), ("x", None),
            ("theta", None), ("mu", None), ("mu", "4"), ("sigma", None),
        }

    def test_majority_category_name(self):
        ns = build_namespace(["A", "B", "C"], golden_relations(), self.LABELS, FuzzyMemo(0.85))
        assert ns.name == "Statistics"

    def test_unique_identifiers(self):
        ns = build_namespace(["A", "B", "C"], golden_relations(), self.LABELS, FuzzyMemo(0.85))
        keys = [e.identifier for e in ns.entries]
        assert len(keys) == len(set(keys))

    def test_single_relation(self):
        relations = [rel("A", "q", "charge", 0.9)]
        ns = build_namespace(["A"], relations, {"A": "Physics"}, FuzzyMemo(0.85))
        assert len(ns.entries) == 1
        assert ns.entries[0].definition == "charge"

    def test_no_relations_raises(self):
        with pytest.raises(NoRelationsInCluster):
            build_namespace(["Z"], golden_relations(), self.LABELS, FuzzyMemo(0.85))

    def test_tie_breaks_lexicographically(self):
        relations = [rel("A", "y", "beam", 0.5), rel("A", "y", "axis", 0.5)]
        ns = build_namespace(["A"], relations, {"A": "Geometry"}, FuzzyMemo(0.85))
        assert ns.entries[0].definition == "axis"


class TestMapToHierarchy:
    SCHEME = HierarchyScheme.from_records(
        [
            {
                "top": "Mathematics",
                "second": "General logic",
                "keywords": [
                    "mathematical", "logic", "foundations", "classical",
                    "propositional", "type", "subsystems",
                ],
            },
            {
                "top": "Physics",
                "second": "Fluid mechanics",
                "keywords": ["fluid", "mechanics", "flow", "turbulence"],
            },
        ]
    )

    def _logic_namespace(self):
        ns = build_namespace(
            ["L1", "L2", "L3"],
            [
                rel("L1", "p", "proposition", 0.9),
                rel("L2", "q", "truth value", 0.9),
                rel("L3", "r", "tautology", 0.9),
            ],
            {"L1": "Mathematical logic", "L2": "Logic", "L3": "Mathematical logic"},
            FuzzyMemo(0.85),
        )
        return ns

    def test_logic_cluster_maps_to_general_logic(self):
        ns = self._logic_namespace()
        titles = {
            "L1": "Tautology and propositional logic",
            "L2": "List of logic systems",
            "L3": "Regular modal logic",
        }
        hit = map_to_hierarchy(ns, self.SCHEME, {
            "L1": "Mathematical logic", "L2": "Logic", "L3": "Mathematical logic",
        }, titles)
        assert (hit.top, hit.second) == ("Mathematics", "General logic")
        assert hit.cosine >= 0.2
        assert hit.matched_keywords >= 2

    def test_zero_overlap_goes_to_others(self):
        ns = build_namespace(
            ["Z1"], [rel("Z1", "z", "zither", 0.9)], {"Z1": "Music"}, FuzzyMemo(0.85)
        )
        hit = map_to_hierarchy(ns, self.SCHEME, {"Z1": "Music"})
        assert hit.top == OTHERS

    def test_single_keyword_match_goes_to_others(self):
        ns = build_namespace(
            ["M1"], [rel("M1", "v", "speed", 0.9)], {"M1": "Mechanics"}, FuzzyMemo(0.85)
        )
        hit = map_to_hierarchy(ns, self.SCHEME, {"M1": "Mechanics"})
        # only "mechanics" overlaps with the fluid-mechanics keywords
        assert hit.matched_keywords <= 1
        assert hit.top == OTHERS

    def test_empty_scheme(self):
        ns = self._logic_namespace()
        with pytest.raises(EmptyScheme):
            map_to_hierarchy(ns, HierarchyScheme([]), {})


# Reference implementations: the textbook full-matrix edit distance and
# the all-pairs fuzzy merge that the pruned kernels must reproduce.


def oracle_levenshtein(a, b):
    d = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        d[i][0] = i
    for j in range(len(b) + 1):
        d[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[len(a)][len(b)]


def oracle_ratio(a, b):
    if not a and not b:
        return 1.0
    return 1.0 - oracle_levenshtein(a, b) / max(len(a), len(b))


def oracle_token_set_ratio(a, b):
    ta = set(definition_tokens(a))
    tb = set(definition_tokens(b))
    if not ta and not tb:
        return oracle_ratio(a.lower(), b.lower())
    inter = sorted(ta & tb)
    s0 = " ".join(inter)
    s1 = " ".join(inter + sorted(ta - tb))
    s2 = " ".join(inter + sorted(tb - ta))
    candidates = [oracle_ratio(s1, s2)]
    if inter:
        candidates.extend((oracle_ratio(s0, s1), oracle_ratio(s0, s2)))
    return max(candidates)


def oracle_merge_fuzzy(merged, ratio_threshold=0.85):
    """All pairs through the token-set ratio, union-find by smallest index."""
    out = {}
    for key, defs in merged.items():
        n = len(defs)
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for i in range(n):
            for j in range(i + 1, n):
                if oracle_token_set_ratio(defs[i][0], defs[j][0]) >= ratio_threshold:
                    ri, rj = find(i), find(j)
                    if ri != rj:
                        parent[max(ri, rj)] = min(ri, rj)
        groups = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(defs[i])
        built = []
        for members in groups.values():
            label = min(members, key=lambda kv: (-kv[1], kv[0]))[0]
            built.append((label, tuple(d for d, _ in members), sum(s for _, s in members)))
        built.sort(key=lambda g: (-g[2], g[0]))
        out[key] = built
    return out


def as_tuples(grouped):
    return {key: [(g.label, g.members, g.score) for g in gs] for key, gs in grouped.items()}


WORDS = [
    "mean", "means", "Mean", "variance", "population", "square", "error",
    "errors", "rate", "the", "of", "a", "estimator", "maximum-likelihood",
    "x1", "speed", "light", "analysis", "class", "classes",
]
THRESHOLDS = [0.0, 1 / 3, 0.5, 0.85, 0.9, 1.0]
definitions = st.one_of(
    st.lists(st.sampled_from(WORDS), max_size=5).map(" ".join),
    st.text(alphabet="ab -Aes", max_size=10),
    st.text(max_size=8),
)


class TestPrunedKernels:
    @given(st.text(alphabet="abc", max_size=12), st.text(alphabet="abc", max_size=12))
    def test_levenshtein_matches_full_matrix(self, a, b):
        assert levenshtein(a, b, max(len(a), len(b))) == oracle_levenshtein(a, b)

    @given(
        st.text(alphabet="abc", max_size=12),
        st.text(alphabet="abc", max_size=12),
        st.integers(0, 14),
    )
    def test_cutoff_caps_the_distance(self, a, b, k):
        assert levenshtein(a, b, k) == min(oracle_levenshtein(a, b), k + 1)

    @settings(max_examples=300)
    @given(definitions, definitions, st.sampled_from(THRESHOLDS))
    def test_merge_decision_equals_token_set_ratio(self, a, b, t):
        merged = len(merge_fuzzy({"z": [(a, 1.0), (b, 0.5)]}, FuzzyMemo(t))["z"]) == 1
        assert merged == (oracle_token_set_ratio(a, b) >= t)

    @pytest.mark.parametrize("t", THRESHOLDS)
    def test_merge_decision_at_every_distance(self, t):
        # equal lengths and no common prefix, so only the cut-off DP decides;
        # 1 - 0.9 rounds below 0.1, which a cutoff of floor((1 - t) * m) misses
        for m in range(1, 13):
            for d in range(1, m + 1):
                a, b = "x" * m, "y" * d + "x" * (m - d)
                merged = len(merge_fuzzy({"z": [(a, 1.0), (b, 0.5)]}, FuzzyMemo(t))["z"]) == 1
                assert merged == (oracle_token_set_ratio(a, b) >= t), (m, d)

    def test_transitive_chain_joins_through_intermediates(self):
        # alpha and gamma only meet through the containment chain
        defs = [("alpha", 1.0), ("gamma", 0.9), ("beta gamma", 0.8), ("alpha beta", 0.7),
                ("beta", 0.6), ("delta", 0.5)]
        grouped = merge_fuzzy({"z": defs}, FuzzyMemo(0.85))
        assert as_tuples(grouped) == oracle_merge_fuzzy({"z": defs})
        assert [len(g.members) for g in grouped["z"]] == [5, 1]

    @given(
        st.lists(
            st.tuples(definitions, st.floats(0.1, 1.0)),
            max_size=10,
            unique_by=lambda kv: kv[0],
        ),
        st.sampled_from(THRESHOLDS),
    )
    def test_generated_lists_match_all_pairs_oracle(self, defs, t):
        merged = {"z": defs}
        assert as_tuples(merge_fuzzy(merged, FuzzyMemo(t))) == oracle_merge_fuzzy(merged, t)


# repeats across calls, the empty string, prefixes, equal lengths and near misses
SHARED = ["", "mean", "mean value", "the mean", "means", "variance", "varianc", "variance of x",
          "rate", "rats", "error", "errors", "ab", "ba", "Mean"]
shared_definitions = st.one_of(st.sampled_from(SHARED), definitions)


class TestSharedMemo:
    """The namespaces stage passes one ``FuzzyMemo`` to every cluster's
    ``merge_fuzzy``; each call must return what a fresh call returns."""

    @settings(max_examples=200)
    @given(
        st.lists(
            st.lists(
                st.tuples(shared_definitions, st.floats(0.1, 1.0)),
                max_size=7,
                unique_by=lambda kv: kv[0],
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from([0.0, 0.85, 1.0]),
    )
    def test_shared_memo_returns_what_fresh_calls_return(self, calls, t):
        memo = FuzzyMemo(t)
        # each call again with its definitions in reverse: every pair repeats swapped
        for defs in calls + [defs[::-1] for defs in calls]:
            merged = {"z": defs, "y": defs[1:]}
            shared = merge_fuzzy(merged, memo)
            assert shared == merge_fuzzy(merged, FuzzyMemo(t))
            assert as_tuples(shared) == oracle_merge_fuzzy(merged, t)

    @settings(max_examples=300)
    @given(shared_definitions, shared_definitions, st.sampled_from([0.0, 0.85, 1.0]))
    def test_decision_is_the_ratio_in_either_order(self, a, b, t):
        expected = oracle_token_set_ratio(a, b) >= t
        assert FuzzyMemo(t).near(a, b) == FuzzyMemo(t).near(b, a) == expected
        memo = FuzzyMemo(t)
        assert memo.near(a, b) == memo.near(b, a) == expected
        assert len(memo.decisions) == 1

    def test_a_repeated_call_decides_nothing_new(self):
        merged = {"z": [("mean", 1.0), ("mean value", 0.5), ("rate", 0.2), ("rats", 0.1)]}
        memo = FuzzyMemo(0.85)
        first = merge_fuzzy(merged, memo)
        decided = dict(memo.decisions)
        assert merge_fuzzy({"w": merged["z"]}, memo)["w"] == first["z"]
        assert memo.decisions == decided


@pytest.fixture(scope="module")
def toy_relations(toy_corpus_path):
    corpus = load_corpus(toy_corpus_path)
    relations = [r for doc in prepare_corpus(corpus) for r in extract_relations(doc)]
    labels = {doc.doc_id: doc.category for doc in corpus.documents}
    return relations, labels


def test_toy_clusters_match_all_pairs_oracle(toy_relations):
    relations, labels = toy_relations
    clusters = {None: relations}  # the whole corpus, then each category
    for r in relations:
        clusters.setdefault(labels[r.doc_id], []).append(r)
    memo = FuzzyMemo(0.85)
    for members in clusters.values():
        merged = merge_exact(members)
        assert as_tuples(merge_fuzzy(merged, FuzzyMemo(0.85))) == oracle_merge_fuzzy(merged)
        assert merge_fuzzy(merged, memo) == merge_fuzzy(merged, FuzzyMemo(0.85))
