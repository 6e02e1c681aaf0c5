import json
from dataclasses import asdict, fields

import pytest

from oiekit import cli
from oiekit.core import Extraction, TaggedInstance, TagSequence, ValidationError
from oiekit.corpus_io import GoldTuple, read_extractions, read_gold, write_extractions, write_gold
from oiekit.evaluate import (
    EvalReport,
    MatchDecision,
    auc,
    best_f1,
    evaluate,
    gold_from_instance,
    match,
)

from conftest import build_sentence

GOLD = [
    GoldTuple("s1", 2, {"ARG1": 1, "ARG2": 3}),
    GoldTuple("s2", 3, {"ARG1": 1, "ARG2": 5}),
    GoldTuple("s2", 7, {"ARG1": 6}),
]

# a: a hit at the top; b and c tie at 0.5 (b misses, c hits); d repeats c
# at a lower confidence and finds its gold tuple already taken.
PREDICTIONS = [
    Extraction("s2", (3, 3), {"ARG1": (1, 2), "ARG2": (4, 5)}, confidence=0.1),  # d
    Extraction("s2", (3, 3), {"ARG1": (1, 2), "ARG2": (4, 5)}, confidence=0.5),  # c
    Extraction("s1", (2, 2), {"ARG1": (1, 1), "ARG2": (4, 4)}, confidence=0.5),  # b
    Extraction("s1", (2, 2), {"ARG1": (1, 1), "ARG2": (3, 3)}, confidence=0.9),  # a
]


class TestEvaluate:
    def test_hand_computed_report(self):
        report = evaluate(PREDICTIONS, GOLD)
        # One point per distinct confidence: the tie at 0.5 is one point.
        assert report.pr_points == ((1 / 3, 1.0), (2 / 3, 2 / 3), (2 / 3, 0.5))
        # 1/3 * 1 + (2/3 - 1/3) * (1 + 2/3) / 2 + 0
        assert report.auc == pytest.approx(11 / 18, abs=1e-12)
        assert report.best_f1 == pytest.approx(2 / 3, abs=1e-12)
        assert report.decisions == (
            MatchDecision("s1", (2, 2), 0.9, True, 2),
            MatchDecision("s1", (2, 2), 0.5, False, None),
            MatchDecision("s2", (3, 3), 0.5, True, 3),
            MatchDecision("s2", (3, 3), 0.1, False, None),
        )
        assert (report.num_gold, report.num_predictions) == (3, 4)

    def test_report_agrees_with_public_helpers(self):
        report = evaluate(PREDICTIONS, GOLD)
        points = evaluate(list(reversed(PREDICTIONS)), GOLD).pr_points
        assert tuple(points) == report.pr_points
        assert auc(points) == report.auc
        assert best_f1(points) == report.best_f1

    def test_no_predictions(self):
        report = evaluate([], GOLD)
        assert report.pr_points == ()
        assert report.auc == 0.0
        assert report.best_f1 == 0.0
        assert report.decisions == ()

    def test_empty_gold_rejected(self):
        with pytest.raises(ValidationError, match="^cannot evaluate without gold tuples$"):
            evaluate(PREDICTIONS, [])
        with pytest.raises(ValidationError, match="^cannot evaluate without gold tuples$"):
            evaluate([], [])


def test_headword_matching_asks_for_the_head_word_not_the_shared_words():
    # "alice feeds the cats": the gold ARG2 "the cats" is headed by "cats".
    gold = GoldTuple("s", 2, {"ARG1": 1, "ARG2": 4}, {"ARG1": "alice", "ARG2": "the cats"})
    # "the" holds half of the gold ARG2's words but not its head word.
    assert not match(Extraction("s", (2, 2), {"ARG1": (1, 1), "ARG2": (3, 3)}), gold)
    # "cats" holds the head word but only half of the words.
    assert match(Extraction("s", (2, 2), {"ARG1": (1, 1), "ARG2": (4, 4)}), gold)


def test_gold_from_tags_without_a_predicate_span_is_none():
    sentence = build_sentence("s", [("dogs", "NOUN", 2, "nsubj"), ("ran", "VERB", 0, "root")])
    assert gold_from_instance(TaggedInstance(sentence, 2, TagSequence(("B-ARG1", "O")))) is None
    assert (gold_from_instance(TaggedInstance(sentence, 2, TagSequence(("B-ARG1", "B-P"))))
            == GoldTuple("s", 2, {"ARG1": 1}))


def test_eval_report_is_one_sorted_json_line_holding_the_report(tmp_path):
    extractions, gold = tmp_path / "ex.jsonl", tmp_path / "gold.tsv"
    write_extractions(PREDICTIONS, extractions)
    write_gold(GOLD, gold)
    assert cli.main(["eval", "--extractions", str(extractions), "--gold", str(gold),
                     "--report", str(tmp_path / "report.json"),
                     "--pr-out", str(tmp_path / "pr.tsv")]) == cli.EXIT_OK
    text = (tmp_path / "report.json").read_text(encoding="utf-8")
    parsed = json.loads(text)
    assert text == json.dumps(parsed, sort_keys=True) + "\n"
    expected = evaluate(read_extractions(extractions), read_gold(gold))
    assert sorted(parsed) == sorted(f.name for f in fields(EvalReport))
    assert parsed["auc"] == expected.auc
    assert parsed["best_f1"] == expected.best_f1
    assert parsed["num_gold"] == expected.num_gold
    assert parsed["num_predictions"] == expected.num_predictions
    assert parsed["pr_points"] == [list(point) for point in expected.pr_points]
    assert parsed["decisions"] == [{**asdict(d), "predicate_span": list(d.predicate_span)}
                                   for d in expected.decisions]
