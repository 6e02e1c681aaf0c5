import pytest

from oiekit.core import Extraction, ValidationError
from oiekit.corpus_io import GoldTuple
from oiekit.evaluate import MatchDecision, auc, best_f1, evaluate, match

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
