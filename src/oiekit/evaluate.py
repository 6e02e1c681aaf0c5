"""Headword-match scoring against gold tuples, precision-recall curves over
confidence-ranked extractions, area under the curve, and best F1; ``eval``
writes the :class:`EvalReport` as one record with ``corpus_io.write_jsonl``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from oiekit.core import (
    Extraction,
    TaggedInstance,
    ValidationError,
    span_head,
    spans_from_tags,
)
from oiekit.corpus_io import GoldTuple, atomic_write


@dataclass(frozen=True)
class MatchDecision:
    sentence_id: str
    predicate_span: tuple[int, int]
    confidence: float
    matched: bool
    gold_predicate_head: Optional[int] = None


@dataclass(frozen=True)
class EvalReport:
    pr_points: tuple[tuple[float, float], ...]
    auc: float
    best_f1: float
    decisions: tuple[MatchDecision, ...]
    num_gold: int
    num_predictions: int


def match(pred: Extraction, gold: GoldTuple) -> bool:
    """Headword criterion: the predicate span contains the gold predicate
    head and, for every gold role head, the predicted span for that role
    exists and contains it. Extra predicted roles are ignored."""
    if pred.sentence_id != gold.sentence_id:
        return False
    start, end = pred.predicate_span
    if not start <= gold.predicate_head <= end:
        return False
    for role, head in gold.role_heads.items():
        if role not in pred.role_spans:
            return False
        span_start, span_end = pred.role_spans[role]
        if not span_start <= head <= span_end:
            return False
    return True


def _sorted_predictions(extractions: Sequence[Extraction]) -> list[Extraction]:
    return sorted(
        extractions,
        key=lambda e: (-e.confidence, e.sentence_id, e.predicate_span, sorted(e.role_spans.items())),
    )


def assign_matches(extractions: Sequence[Extraction], gold: Sequence[GoldTuple]
                   ) -> list[MatchDecision]:
    """Greedy one-to-one assignment by descending confidence.

    Each prediction may consume at most one still-unmatched gold tuple from
    its sentence; returns one decision per prediction, in assignment order.
    """
    by_sentence: dict[str, list[int]] = {}
    for idx, g in enumerate(gold):
        by_sentence.setdefault(g.sentence_id, []).append(idx)
    taken = [False] * len(gold)
    decisions = []
    for pred in _sorted_predictions(extractions):
        gold_head = None
        for idx in by_sentence.get(pred.sentence_id, ()):
            if not taken[idx] and match(pred, gold[idx]):
                taken[idx] = True
                gold_head = gold[idx].predicate_head
                break
        decisions.append(MatchDecision(
            sentence_id=pred.sentence_id,
            predicate_span=pred.predicate_span,
            confidence=pred.confidence,
            matched=gold_head is not None,
            gold_predicate_head=gold_head,
        ))
    return decisions


def _pr_points(decisions: Sequence[MatchDecision], num_gold: int) -> list[tuple[float, float]]:
    points = []
    true_positives = 0
    for i, decision in enumerate(decisions):
        true_positives += decision.matched
        is_last_at_threshold = (
            i + 1 == len(decisions) or decisions[i + 1].confidence != decision.confidence
        )
        if is_last_at_threshold:
            points.append((true_positives / num_gold, true_positives / (i + 1)))
    return points


def auc(pr_points: Sequence[tuple[float, float]]) -> float:
    """Trapezoidal area over recall. The lowest-recall point's precision is
    extended flat back to recall zero; the result lives in [0, 1]."""
    if not pr_points:
        return 0.0
    first_recall, first_precision = pr_points[0]
    area = first_recall * first_precision
    for (r_prev, p_prev), (r_next, p_next) in zip(pr_points, pr_points[1:]):
        area += (r_next - r_prev) * (p_prev + p_next) / 2.0
    return area


def best_f1(pr_points: Sequence[tuple[float, float]]) -> float:
    best = 0.0
    for recall, precision in pr_points:
        if precision + recall > 0:
            best = max(best, 2 * precision * recall / (precision + recall))
    return best


def evaluate(extractions: Sequence[Extraction], gold: Sequence[GoldTuple]) -> EvalReport:
    if not gold:
        raise ValidationError("cannot evaluate without gold tuples")
    decisions = assign_matches(extractions, gold)
    points = _pr_points(decisions, len(gold))
    return EvalReport(
        pr_points=tuple(points),
        auc=auc(points),
        best_f1=best_f1(points),
        decisions=tuple(decisions),
        num_gold=len(gold),
        num_predictions=len(extractions),
    )


def gold_from_instance(instance: TaggedInstance) -> Optional[GoldTuple]:
    """Reference tuple implied by a tagged instance: each role span's
    syntactic head (the token whose governor lies outside the span), or
    None when its tags hold no predicate span."""
    extraction = spans_from_tags(instance)
    if extraction is None:
        return None
    role_heads = {
        role: span_head(instance.sentence, span)
        for role, span in extraction.role_spans.items()
    }
    return GoldTuple(
        sentence_id=instance.sentence.sentence_id,
        predicate_head=instance.predicate_index,
        role_heads=role_heads,
    )


def write_pr_points(pr_points: Sequence[tuple[float, float]], path) -> None:
    """Two-column recall/precision file for plotting tools."""
    with atomic_write(path) as handle:
        handle.write("recall\tprecision\n")
        for recall, precision in pr_points:
            handle.write(f"{recall!r}\t{precision!r}\n")
