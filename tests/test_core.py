import itertools

import pytest
from hypothesis import given, strategies as st

from oiekit.core import (
    LABELS,
    Extraction,
    NoPredicateSpan,
    TaggedInstance,
    TagSequence,
    Token,
    ValidationError,
    spans_from_tags,
    span_head,
)

from conftest import build_sentence, flat_sentence
from oracles import oracle_valid, tags_from_spans


def tagged(labels, predicate):
    return TaggedInstance(flat_sentence(len(labels)), predicate, TagSequence(tuple(labels)))


class TestValidateBio:
    """A TaggedInstance is built only from tags that follow the BIO rule."""

    def test_well_formed(self):
        assert tagged(["B-ARG1", "B-P", "B-ARG2", "I-ARG2"], 2).tags.labels[1] == "B-P"

    def test_orphan_inside(self):
        with pytest.raises(ValidationError, match="position 2: I-ARG2 may not follow O"):
            tagged(["O", "I-ARG2", "O"], 1)

    def test_two_predicate_spans(self):
        with pytest.raises(ValidationError, match="position 3: B-P may not follow O"):
            tagged(["B-P", "O", "B-P"], 1)

    def test_unknown_label(self):
        for label in ("X-ARG1", "B-ARG9"):
            with pytest.raises(ValidationError, match=f"position 1: unknown label '{label}'"):
                tagged([label, "B-P"], 2)

    def test_inside_after_different_role(self):
        with pytest.raises(ValidationError, match="position 2: I-ARG2 may not follow B-ARG1"):
            tagged(["B-ARG1", "I-ARG2", "B-P"], 3)

    def test_predicate_span_starting_before_the_predicate(self):
        with pytest.raises(ValidationError, match="position 1: B-P may not follow O"):
            tagged(["B-P", "I-P", "O"], 2)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_instance_accepts_exactly_the_oracle_valid_sequences(m):
    for predicate in range(1, m + 1):
        for labels in itertools.product(LABELS, repeat=m):
            if oracle_valid(labels, predicate):
                tagged(labels, predicate)
            else:
                with pytest.raises(ValidationError):
                    tagged(labels, predicate)


class TestSpansFromTags:
    def test_full_tuple(self, parragon):
        tags = TagSequence(("B-ARG1", "B-P", "B-ARG2", "I-ARG2", "I-ARG2",
                            "I-ARG2", "O", "O", "O", "O", "O"))
        extraction = spans_from_tags(TaggedInstance(parragon, 2, tags))
        assert extraction.predicate_span == (2, 2)
        assert extraction.role_spans == {"ARG1": (1, 1), "ARG2": (3, 6)}

    def test_subjectless_tuple(self, parragon):
        tags = TagSequence(("O", "O", "O", "O", "O", "O", "O", "B-P",
                            "B-ARG2", "I-ARG2", "O"))
        extraction = spans_from_tags(TaggedInstance(parragon, 8, tags))
        assert extraction.predicate_span == (8, 8)
        assert extraction.role_spans == {"ARG2": (9, 10)}
        assert "ARG1" not in extraction.role_spans

    def test_all_outside(self, parragon):
        tags = TagSequence(tuple(["O"] * 11))
        with pytest.raises(NoPredicateSpan):
            spans_from_tags(TaggedInstance(parragon, 2, tags))

    def test_duplicate_role_keeps_run_nearest_predicate(self):
        sentence = flat_sentence(6)
        tags = TagSequence(("B-ARG1", "O", "B-P", "B-ARG1", "O", "O"))
        extraction = spans_from_tags(TaggedInstance(sentence, 3, tags))
        assert extraction.role_spans["ARG1"] == (4, 4)

    def test_duplicate_role_tie_prefers_earlier_run(self):
        sentence = flat_sentence(5)
        tags = TagSequence(("O", "B-ARG1", "B-P", "B-ARG1", "O"))
        extraction = spans_from_tags(TaggedInstance(sentence, 3, tags))
        assert extraction.role_spans["ARG1"] == (2, 2)

    @pytest.mark.parametrize("log_prob,confidence", [(None, 0.0), (-1.5, -0.3)])
    def test_confidence_is_the_average_log_probability(self, log_prob, confidence):
        tags = TagSequence(("O", "B-ARG1", "B-P", "B-ARG2", "O"), log_prob=log_prob)
        extraction = spans_from_tags(TaggedInstance(flat_sentence(5), 3, tags))
        assert extraction.confidence == confidence


class TestTagsFromSpans:
    def test_round_trip_worked_example(self):
        extraction = Extraction("parragon", (2, 2), {"ARG1": (1, 1), "ARG2": (3, 6)})
        tags = tags_from_spans(extraction, 11)
        assert tags.labels == ("B-ARG1", "B-P", "B-ARG2", "I-ARG2", "I-ARG2",
                               "I-ARG2", "O", "O", "O", "O", "O")

    def test_predicate_only(self):
        tags = tags_from_spans(Extraction("x", (2, 2), {}), 3)
        assert tags.labels == ("O", "B-P", "O")

    def test_inverted_span_rejected(self):
        with pytest.raises(ValidationError, match=r"^P span \[4, 3\] is invalid$"):
            Extraction("x", (4, 3), {})

    def test_span_beyond_sentence(self):
        with pytest.raises(ValidationError,
                           match=r"^P span \[2, 5\] outside sentence of length 3$"):
            tags_from_spans(Extraction("x", (2, 5), {}), 3)


class TestTypeInvariants:
    def test_token_own_head_rejected(self):
        with pytest.raises(ValidationError):
            Token(index=1, surface="a", upos="X", head=1, deprel="dep")

    def test_cycle_rejected(self):
        with pytest.raises(ValidationError, match="^sentence 'bad': cycle through token 1$"):
            build_sentence("bad", [("a", "X", 2, "dep"), ("b", "X", 1, "dep"),
                                   ("c", "X", 0, "root")])

    def test_two_roots_rejected(self):
        with pytest.raises(ValidationError,
                           match="^sentence 'bad': expected exactly one root, found 2$"):
            build_sentence("bad", [("a", "X", 0, "root"), ("b", "X", 0, "root")])

    def test_overlapping_spans_rejected(self):
        with pytest.raises(ValidationError):
            Extraction("x", (2, 4), {"ARG1": (4, 5)})

    def test_instance_length_mismatch(self, parragon):
        with pytest.raises(ValidationError):
            TaggedInstance(parragon, 2, TagSequence(("O", "B-P")))

    def test_instance_predicate_outside_p_span(self, parragon):
        tags = TagSequence(("B-P",) + ("O",) * 10)
        with pytest.raises(ValidationError):
            TaggedInstance(parragon, 5, tags)

    def test_default_text_is_space_joined(self, parragon):
        assert parragon.text.startswith("Parragon operates more than 35 markets")


def test_span_head_returns_subtree_root(parragon):
    assert span_head(parragon, (3, 6)) == 6
    assert span_head(parragon, (9, 10)) == 10
    assert span_head(parragon, (1, 1)) == 1


# -- properties ------------------------------------------------------------


@st.composite
def extractions(draw):
    m = draw(st.integers(min_value=4, max_value=12))
    free = list(range(1, m + 1))
    spans = {}
    for role in ("P", "ARG1", "ARG2", "ARG3"):
        if role != "P" and not draw(st.booleans()):
            continue
        if not free:
            break
        start = draw(st.sampled_from(free))
        end = start
        while end + 1 in free and draw(st.booleans()):
            end += 1
        for pos in range(start, end + 1):
            free.remove(pos)
        spans[role] = (start, end)
    predicate_span = spans.pop("P")
    return m, Extraction("prop", predicate_span, spans)


@given(extractions())
def test_round_trip_identity(case):
    m, extraction = case
    sentence = flat_sentence(m, "prop")
    tags = tags_from_spans(extraction, m)
    instance = TaggedInstance(sentence, extraction.predicate_span[0], tags)
    assert spans_from_tags(instance) == extraction


@st.composite
def valid_bio_sequences(draw):
    m = draw(st.integers(min_value=2, max_value=10))
    labels = []
    p_used = False
    prev = "O"
    for _ in range(m):
        options = ["O", "B-ARG1", "B-ARG2", "B-ARG3"]
        if not p_used:
            options.append("B-P")
        if prev != "O":
            options.append(f"I-{prev[2:]}")
        pick = draw(st.sampled_from(sorted(options)))
        if pick == "B-P":
            p_used = True
        labels.append(pick)
        prev = pick
    return tuple(labels)


@given(valid_bio_sequences())
def test_valid_sequences_with_predicate_convert_cleanly(labels):
    starts = [i + 1 for i, lab in enumerate(labels) if lab == "B-P"]
    sentence = flat_sentence(len(labels), "prop")
    instance = TaggedInstance(sentence, starts[0] if starts else 1, TagSequence(labels))
    if not starts:
        return
    extraction = spans_from_tags(instance)
    spans = [extraction.predicate_span] + list(extraction.role_spans.values())
    for i, a in enumerate(spans):
        for b in spans[i + 1:]:
            assert a[1] < b[0] or b[1] < a[0]
