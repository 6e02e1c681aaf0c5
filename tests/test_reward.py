import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oiekit.core import Extraction, ValidationError, spans_from_tags
from oiekit.corpus_io import gen_synthetic
from oiekit.patterns import generate_instances
from oiekit.reward import (
    SemScorer,
    _attachment_targets,
    combined_reward,
    make_sem_scorer,
    sem_score_surrogate,
    semantic_confidence,
    syn_score,
    verbalize,
)

from conftest import build_sentence


def ex(sentence_id, pred, roles):
    return Extraction(sentence_id, pred, roles)


class TestSynScoreHandSuite:
    """Twenty hand-evaluated cases of the headword constraint."""

    def cases(self, parragon, ditrans, coordinated):
        return [
            # full tuple for the first verb: both headwords attach directly
            (parragon, ex("parragon", (2, 2), {"ARG1": (1, 1), "ARG2": (3, 6)}), 1),
            # object span shifted off its headword
            (parragon, ex("parragon", (2, 2), {"ARG1": (1, 1), "ARG2": (3, 5)}), -1),
            # the subject-missing second-verb tuple
            (parragon, ex("parragon", (8, 8), {"ARG2": (9, 10)}), 1),
            # subject recovered across the conjunction
            (parragon, ex("parragon", (8, 8), {"ARG1": (1, 1), "ARG2": (9, 10)}), 1),
            # first verb must not steal the second verb's object
            (parragon, ex("parragon", (2, 2), {"ARG2": (9, 10)}), -1),
            # predicate span without a verb token
            (parragon, ex("parragon", (1, 1), {}), -1),
            (parragon, ex("parragon", (7, 7), {}), -1),
            # subject span without any subject token
            (parragon, ex("parragon", (2, 2), {"ARG1": (3, 5)}), -1),
            # predicate-only extraction on a verb is vacuously consistent
            (parragon, ex("parragon", (2, 2), {}), 1),
            (parragon, ex("parragon", (2, 2), {"ARG1": (1, 1)}), 1),
            # dobj dependent cannot justify an ARG3 span
            (parragon, ex("parragon", (2, 2), {"ARG1": (1, 1), "ARG2": (3, 6), "ARG3": (9, 10)}), -1),
            # widened predicate span still contains the verb
            (parragon, ex("parragon", (1, 2), {"ARG2": (3, 6)}), 1),
            # ditransitive with all three roles on their own relations
            (ditrans, ex("ditrans", (3, 3), {"ARG1": (1, 2), "ARG2": (6, 7), "ARG3": (4, 5)}), 1),
            # iobj dependent cannot justify ARG2
            (ditrans, ex("ditrans", (3, 3), {"ARG2": (4, 5)}), -1),
            # obj dependent cannot justify ARG3
            (ditrans, ex("ditrans", (3, 3), {"ARG3": (6, 7)}), -1),
            # span covering only the determiner misses the headword
            (ditrans, ex("ditrans", (3, 3), {"ARG2": (6, 6)}), -1),
            (ditrans, ex("ditrans", (3, 3), {"ARG1": (2, 2), "ARG2": (6, 7)}), 1),
            # second conjunct inherits the shared subject
            (coordinated, ex("coord", (7, 7), {"ARG1": (1, 2), "ARG2": (8, 9)}), 1),
            # but the first conjunct cannot borrow the second's object
            (coordinated, ex("coord", (3, 3), {"ARG1": (1, 2), "ARG2": (8, 9)}), -1),
            (coordinated, ex("coord", (3, 3), {"ARG1": (1, 2), "ARG2": (4, 5)}), 1),
        ]

    def test_twenty_hand_cases(self, parragon, ditrans, coordinated):
        cases = self.cases(parragon, ditrans, coordinated)
        assert len(cases) == 20
        for i, (sentence, extraction, expected) in enumerate(cases):
            got = syn_score(extraction, sentence)
            assert got == expected, f"case {i}: expected {expected}, got {got}"

    def test_score_range(self, parragon, ditrans, coordinated):
        for sentence, extraction, _ in self.cases(parragon, ditrans, coordinated):
            assert syn_score(extraction, sentence) in (-1, 1)

    def test_labeler_output_is_self_consistent(self, parragon):
        sentences, _ = gen_synthetic(("svo", "svo_pp", "ditrans", "coord_vp"), 80, seed=6)
        for sentence in list(sentences) + [parragon]:
            for instance in generate_instances(sentence):
                extraction = spans_from_tags(instance)
                assert syn_score(extraction, sentence) == 1

    def test_conj_chain_stops_at_the_root(self):
        # A root labelled conj has no conjunction head above it to inherit from.
        sentence = build_sentence("rootconj", [("dogs", "NOUN", 2, "nsubj"),
                                               ("ran", "VERB", 0, "conj")])
        assert _attachment_targets(sentence, 2) == {2}
        assert syn_score(ex("rootconj", (2, 2), {"ARG1": (1, 1)}), sentence) == 1


class TestVerbalize:
    def test_full_tuple(self, parragon):
        extraction = ex("parragon", (2, 2), {"ARG1": (1, 1), "ARG2": (3, 6)})
        assert verbalize(extraction, parragon) == "Parragon operates more than 35 markets"

    def test_missing_subject(self, parragon):
        extraction = ex("parragon", (8, 8), {"ARG2": (9, 10)})
        assert verbalize(extraction, parragon) == "has 10 offices"

    def test_predicate_only(self, parragon):
        assert verbalize(ex("parragon", (2, 2), {}), parragon) == "operates"

    def test_role_order_fixed(self, ditrans):
        extraction = ex("ditrans", (3, 3), {"ARG1": (1, 2), "ARG2": (6, 7), "ARG3": (4, 5)})
        assert verbalize(extraction, ditrans) == "The teacher gives a book the student"


class TestSemSurrogate:
    def test_complete_tuple_scores_one(self, parragon):
        extraction = ex("parragon", (8, 8), {"ARG1": (1, 1), "ARG2": (9, 10)})
        assert sem_score_surrogate(extraction, parragon) == 1.0

    def test_incomplete_tuple_scores_two_thirds(self, parragon):
        extraction = ex("parragon", (8, 8), {"ARG2": (9, 10)})
        assert sem_score_surrogate(extraction, parragon) == 2.0 / 3.0

    def test_completeness_ordering(self, parragon):
        complete = ex("parragon", (8, 8), {"ARG1": (1, 1), "ARG2": (9, 10)})
        partial = ex("parragon", (8, 8), {"ARG2": (9, 10)})
        assert sem_score_surrogate(complete, parragon) > sem_score_surrogate(partial, parragon)

    def test_predicate_only_tuple_scores_one_third(self, parragon):
        assert sem_score_surrogate(ex("parragon", (8, 8), {}), parragon) == 1.0 / 3.0

    def test_score_reads_no_words(self):
        # A form may hold a space (CoNLL-U allows it); only the roles count.
        sentence = build_sentence("s", [("New York", "PROPN", 2, "nsubj"),
                                        ("sleeps", "VERB", 0, "root")])
        assert sem_score_surrogate(ex("s", (2, 2), {"ARG1": (1, 1)}), sentence) == 2.0 / 3.0

    def test_adding_satisfied_role_never_decreases_score(self, ditrans):
        base = ex("ditrans", (3, 3), {"ARG2": (6, 7)})
        roles = dict(base.role_spans)
        for role, span in (("ARG1", (1, 2)), ("ARG3", (4, 5))):
            grown = dict(roles)
            grown[role] = span
            assert (sem_score_surrogate(ex("ditrans", (3, 3), grown), ditrans)
                    >= sem_score_surrogate(ex("ditrans", (3, 3), roles), ditrans))
            roles = grown


class TestCombinedReward:
    def test_product_examples(self):
        assert combined_reward(1, 0.8).total == 0.8
        assert combined_reward(-1, 0.8).total == -0.8
        assert combined_reward(1, 0.0).total == 0.0

    @given(st.sampled_from([-1, 1]), st.floats(min_value=0.0, max_value=1.0))
    def test_total_is_exact_product(self, syn, sem):
        breakdown = combined_reward(syn, sem)
        assert breakdown.total == syn * sem
        assert -1.0 <= breakdown.total <= 1.0


class TestSemanticConfidence:
    def test_log_one_is_identity(self):
        assert semantic_confidence(-0.5, 1.0) == -0.5

    def test_log_half(self):
        assert semantic_confidence(-0.5, 0.5) == pytest.approx(-0.5 + math.log(0.5), abs=1e-12)
        assert semantic_confidence(-0.5, 0.5) == pytest.approx(-1.1931471805599454, abs=1e-9)

    def test_higher_sem_ranks_higher_at_equal_confidence(self):
        assert semantic_confidence(-1.0, 0.9) > semantic_confidence(-1.0, 0.3)

    def test_zero_sem_floored(self):
        assert math.isfinite(semantic_confidence(-1.0, 0.0))

    @given(st.floats(min_value=-10, max_value=0), st.floats(min_value=-10, max_value=0),
           st.floats(min_value=0.01, max_value=1.0))
    def test_preserves_confidence_ranking_at_fixed_sem(self, c1, c2, sem):
        if abs(c1 - c2) < 1e-9:
            return
        better, worse = max(c1, c2), min(c1, c2)
        assert semantic_confidence(better, sem) > semantic_confidence(worse, sem)

    def test_matches_formula_on_random_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            c = float(rng.uniform(-8.0, 0.0))
            sem = float(rng.uniform(1e-6, 1.0))
            assert abs(semantic_confidence(c, sem) - (c + math.log(sem))) <= 1e-9


class TestScorerPlumbing:
    def test_surrogate_spec(self):
        scorer = make_sem_scorer("surrogate")
        assert scorer.adapter is None

    def test_adapter_spec_requires_endpoint(self):
        with pytest.raises(ValidationError, match="^adapter endpoint must be an http\\(s\\) URL, "
                           "got ''$"):
            make_sem_scorer("adapter:")

    def test_unknown_spec(self):
        with pytest.raises(ValidationError):
            make_sem_scorer("magic")

    def test_surrogate_scorer_scores_extractions(self, parragon):
        scorer = SemScorer()
        extraction = ex("parragon", (8, 8), {"ARG2": (9, 10)})
        assert scorer.score(extraction, parragon) == 2.0 / 3.0
