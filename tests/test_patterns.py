import pytest
from hypothesis import example, given, settings, strategies as st

from oiekit.core import ParsedSentence, Token, spans_from_tags
from oiekit.corpus_io import gen_synthetic
from oiekit.evaluate import evaluate, match
from oiekit.patterns import (
    DEFAULT_TABLE,
    PatternTable,
    generate_instances,
    identify_predicates,
    load_pattern_table,
    match_argument_heads,
)
from oiekit.core import ValidationError

from conftest import build_sentence
from oracles import argument_spans_oracle


@pytest.fixture
def aux_sentence():
    # "Parragon has been operating markets ." with auxiliary chain.
    return build_sentence("aux", [
        ("Parragon", "PROPN", 4, "nsubj"),
        ("has", "AUX", 4, "aux"),
        ("been", "AUX", 4, "aux"),
        ("operating", "VERB", 0, "root"),
        ("markets", "NOUN", 4, "dobj"),
        (".", "PUNCT", 4, "punct"),
    ])


@pytest.fixture
def verb_free():
    return build_sentence("nounphrase", [
        ("The", "DET", 3, "det"),
        ("red", "ADJ", 3, "amod"),
        ("door", "NOUN", 0, "root"),
        (".", "PUNCT", 3, "punct"),
    ])


class TestIdentifyPredicates:
    def test_worked_example_two_verbs(self, parragon):
        assert identify_predicates(parragon) == [2, 8]

    def test_verb_free_sentence(self, verb_free):
        assert identify_predicates(verb_free) == []

    def test_auxiliaries_excluded(self, aux_sentence):
        assert identify_predicates(aux_sentence) == [4]

    def test_verb_tagged_as_aux_dependent_excluded(self):
        sent = build_sentence("auxverb", [
            ("is", "VERB", 2, "cop"),
            ("red", "ADJ", 0, "root"),
        ])
        assert identify_predicates(sent) == []


class TestMatchArgumentHeads:
    def test_first_predicate(self, parragon):
        assert match_argument_heads(parragon, 2) == {"ARG1": 1, "ARG2": 6}

    def test_second_predicate_misses_subject(self, parragon):
        assert match_argument_heads(parragon, 8) == {"ARG2": 10}

    def test_childless_predicate(self):
        sent = build_sentence("bare", [("Run", "VERB", 0, "root")])
        assert match_argument_heads(sent, 1) == {}

    def test_first_child_by_surface_order_wins(self):
        sent = build_sentence("two-objects", [
            ("She", "PRON", 2, "nsubj"),
            ("sees", "VERB", 0, "root"),
            ("cats", "NOUN", 2, "obj"),
            ("today", "NOUN", 2, "obl"),
        ])
        assert match_argument_heads(sent, 2)["ARG2"] == 3

    def test_ditransitive_roles(self, ditrans):
        assert match_argument_heads(ditrans, 3) == {"ARG1": 2, "ARG2": 7, "ARG3": 5}


def role_spans(instance):
    return spans_from_tags(instance).role_spans


# Relations from every role's pattern, auxiliaries and a few that match none.
TREE_RELATIONS = sorted(set().union(*DEFAULT_TABLE.role_patterns.values())
                        | {"aux", "cop", "det", "amod", "conj", "punct"})


@st.composite
def dependency_trees(draw):
    """A random tree over 1-12 tokens, non-projective ones included: the
    tokens, in a drawn order, each hang off one drawn earlier."""
    m = draw(st.integers(1, 12))
    order = draw(st.permutations(range(1, m + 1)))
    heads = {order[0]: 0}
    for k, index in enumerate(order[1:], start=1):
        heads[index] = order[draw(st.integers(0, k - 1))]
    tokens = tuple(Token(index=i, surface=f"w{i}", upos=draw(st.sampled_from(["VERB", "NOUN"])),
                         head=heads[i], deprel=draw(st.sampled_from(TREE_RELATIONS)))
                   for i in range(1, m + 1))
    return ParsedSentence("tree", tokens)


# Non-projective: ARG1's subtree {2, 4} and ARG2's {3, 5} interleave, so
# only ARG1's span, taken first, cuts ARG2's envelope [3, 5] down to 5.
INTERLEAVED = build_sentence("interleaved", [
    ("w1", "VERB", 0, "root"),
    ("w2", "NOUN", 1, "nsubj"),
    ("w3", "NOUN", 5, "amod"),
    ("w4", "NOUN", 2, "amod"),
    ("w5", "NOUN", 1, "obj"),
])


class TestArgumentSpanCut:
    def test_quantified_object_phrase(self, parragon):
        first, _ = generate_instances(parragon)
        assert role_spans(first)["ARG2"] == (3, 6)

    def test_leaf_head(self, parragon):
        first, _ = generate_instances(parragon)
        assert role_spans(first)["ARG1"] == (1, 1)

    def test_truncates_to_exclude_predicate(self):
        # The argument subtree envelope [1, 4] encloses the verb at 2.
        sent = build_sentence("wrap", [
            ("yesterday", "NOUN", 4, "nmod"),
            ("ran", "VERB", 0, "root"),
            ("the", "DET", 4, "det"),
            ("dog", "NOUN", 2, "nsubj"),
        ])
        assert sent.subtree(4) == (1, 3, 4)
        (instance,) = generate_instances(sent)
        assert role_spans(instance) == {"ARG1": (3, 4)}

    def test_truncates_on_other_argument_heads(self):
        # ARG2's envelope [3, 6] holds the ARG3 head at 5, a role whose
        # span comes later, so only the head cuts it.
        sent = build_sentence("cut-at-head", [
            ("Parragon", "PROPN", 2, "nsubj"),
            ("operates", "VERB", 0, "root"),
            ("more", "ADV", 6, "advmod"),
            ("than", "ADP", 3, "fixed"),
            ("35", "NUM", 2, "iobj"),
            ("markets", "NOUN", 2, "dobj"),
        ])
        assert sent.subtree(6) == (3, 4, 6)
        (instance,) = generate_instances(sent)
        assert role_spans(instance) == {"ARG1": (1, 1), "ARG2": (6, 6), "ARG3": (5, 5)}

    @given(dependency_trees())
    @example(INTERLEAVED)
    @settings(max_examples=300, deadline=None)
    def test_spans_match_the_brute_force_oracle(self, sent):
        instances = generate_instances(sent)
        matched = [p for p in identify_predicates(sent) if match_argument_heads(sent, p)]
        assert [inst.predicate_index for inst in instances] == matched
        for inst in instances:
            heads = match_argument_heads(sent, inst.predicate_index)
            assert role_spans(inst) == argument_spans_oracle(sent, inst.predicate_index, heads)


class TestGenerateInstances:
    def test_worked_example_both_instances(self, parragon):
        instances = generate_instances(parragon)
        assert len(instances) == 2
        first, second = instances
        assert first.predicate_index == 2
        assert first.tags.labels == ("B-ARG1", "B-P", "B-ARG2", "I-ARG2", "I-ARG2",
                                     "I-ARG2", "O", "O", "O", "O", "O")
        assert second.predicate_index == 8
        assert second.tags.labels == ("O", "O", "O", "O", "O", "O", "O", "B-P",
                                      "B-ARG2", "I-ARG2", "O")

    def test_verb_free_sentence(self, verb_free):
        assert generate_instances(verb_free) == []

    def test_argument_clipped_right_of_the_predicate(self):
        # Non-projective: "today" hangs off "cat", so ARG1's subtree [1, 3]
        # reaches past the predicate and is cut at it.
        sent = build_sentence("clip", [
            ("cat", "NOUN", 2, "nsubj"),
            ("sleeps", "VERB", 0, "root"),
            ("today", "ADJ", 1, "amod"),
            (".", "PUNCT", 2, "punct"),
        ])
        assert sent.subtree(1) == (1, 3)
        (instance,) = generate_instances(sent)
        assert instance.tags.labels == ("B-ARG1", "B-P", "O", "O")

    def test_predicate_without_a_matched_argument_gives_no_instance(self):
        sent = build_sentence("rains", [
            ("it", "PRON", 2, "expl"),
            ("rains", "VERB", 0, "root"),
            (".", "PUNCT", 2, "punct"),
        ])
        assert identify_predicates(sent) == [2]
        assert generate_instances(sent) == []

    def test_synthetic_svo_heads_match_generator_gold(self):
        sentences, gold = gen_synthetic(("svo",), 5, seed=7)
        by_id = {}
        for tup in gold:
            by_id.setdefault(tup.sentence_id, []).append(tup)
        for sent in sentences:
            for instance in generate_instances(sent):
                extraction = spans_from_tags(instance)
                assert any(match(extraction, tup) for tup in by_id[sent.sentence_id])

    def test_instances_pass_bio_with_single_predicate_token(self):
        sentences, _ = gen_synthetic(("svo", "svo_pp", "ditrans", "coord_vp"), 60, seed=2)
        for sent in sentences:
            # Each TaggedInstance checked the BIO rule when it was built.
            for inst in generate_instances(sent):
                p_labels = [lab for lab in inst.tags.labels if lab.endswith("-P")]
                assert p_labels == ["B-P"]
                assert inst.tags.labels[inst.predicate_index - 1] == "B-P"

    def test_argument_spans_never_cover_predicate(self):
        sentences, _ = gen_synthetic(("svo", "svo_pp", "ditrans", "coord_vp"), 60, seed=4)
        for sent in sentences:
            for inst in generate_instances(sent):
                extraction = spans_from_tags(inst)
                for start, end in extraction.role_spans.values():
                    assert not start <= inst.predicate_index <= end

    def test_deterministic(self, parragon):
        assert generate_instances(parragon) == generate_instances(parragon)

    def test_in_pattern_corpus_reaches_perfect_f1(self):
        sentences, gold = gen_synthetic(("svo", "svo_pp", "ditrans"), 150, seed=11)
        preds = []
        for sent in sentences:
            for inst in generate_instances(sent):
                preds.append(spans_from_tags(inst))
        assert evaluate(preds, gold).best_f1 == 1.0


class TestPatternTable:
    def test_overlapping_role_relations_rejected(self):
        with pytest.raises(ValidationError):
            PatternTable(role_patterns={"ARG1": frozenset({"nsubj"}),
                                        "ARG2": frozenset({"nsubj"})})

    def test_unknown_role_rejected(self):
        with pytest.raises(ValidationError):
            PatternTable(role_patterns={"ARG9": frozenset({"nsubj"})})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "patterns.txt"
        path.write_text(
            "# comment\n"
            "predicate_pos = VERB, AUX\n"
            "ARG1 = nsubj\n"
            "ARG2 = dobj, obj\n",
            encoding="utf-8",
        )
        table = load_pattern_table(path)
        assert table.predicate_pos == frozenset({"VERB", "AUX"})
        assert table.role_patterns["ARG2"] == frozenset({"dobj", "obj"})
        assert "ARG3" not in table.role_patterns

    def test_default_table_covers_both_relation_spellings(self):
        assert {"dobj", "obj"} <= DEFAULT_TABLE.role_patterns["ARG2"]
        assert {"nsubj", "nsubjpass"} <= DEFAULT_TABLE.role_patterns["ARG1"]
