"""Policy-gradient generalization of a pretrained tagger: explore label
sequences with constrained beam search, score each candidate with the
syntactic-semantic reward, and apply likelihood-ratio updates. The update
is taken on the P(Y|x) that produced the candidates, so :func:`explore`
and :func:`reinforce_step` share one forward pass per step.

Updates follow ``tagger``'s one rule, each candidate a row at weight
b - R_k; ``tagger.descent_step`` raises a non-finite gradient."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from oiekit import evaluate, nn, tagger
from oiekit.core import (
    Extraction,
    LABEL_INDEX,
    OiekitError,
    ParsedSentence,
    TaggedInstance,
    TagSequence,
    ValidationError,
    spans_from_tags,
)
from oiekit.corpus_io import GoldTuple
from oiekit.patterns import DEFAULT_TABLE, PatternTable, identify_predicates
from oiekit.reward import RewardBreakdown, SemScorer, combined_reward, syn_score
from oiekit.tagger import TaggerModel, allowed_labels

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RLConfig:
    epochs: int = 10
    beam_size: int = 3
    baseline_mode: str = "mean"  # "mean" or "off"
    step_size: float = 1e-3
    explore_mode: str = "beam"  # "beam" or "sample"
    rng_seed: int = 13

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if not 0.0 < self.step_size < np.inf:
            raise ValidationError(f"step_size must be finite and positive, got {self.step_size}")
        if self.baseline_mode not in ("mean", "off"):
            raise ValidationError(f"unknown baseline mode {self.baseline_mode!r}")
        if self.explore_mode not in ("beam", "sample"):
            raise ValidationError(f"unknown explore mode {self.explore_mode!r}")
        if self.beam_size < 1:
            raise ValidationError("beam_size must be >= 1")
        if self.rng_seed < 0:
            raise ValidationError(f"rng_seed must be >= 0, got {self.rng_seed}")


def _sample_sequences(distributions: np.ndarray, count: int, predicate: int,
                      rng: np.random.Generator) -> list[TagSequence]:
    """Ancestral sampling under the decoding constraints (renormalized per
    position); duplicates are collapsed."""
    seen = {}
    for _ in range(count):
        prev = "O"
        chosen = []
        score = 0.0
        for position in range(1, distributions.shape[0] + 1):
            options = allowed_labels(prev, position, predicate)
            weights = np.array([distributions[position - 1, LABEL_INDEX[o]] for o in options])
            total = weights.sum()
            if total <= 0:
                weights = np.ones(len(options)) / len(options)
            else:
                weights = weights / total
            pick = options[int(rng.choice(len(options), p=weights))]
            score += float(np.log(max(distributions[position - 1, LABEL_INDEX[pick]], 1e-300)))
            chosen.append(pick)
            prev = pick
        seen.setdefault(tuple(chosen), score)
    return [TagSequence(labels=seq, log_prob=score) for seq, score in seen.items()]


def explore(probs: np.ndarray, predicate: int, beam_size: int, mode: str = "beam",
            rng: Optional[np.random.Generator] = None) -> list[TagSequence]:
    """Candidate label sequences decoded from one item's (m, L) ``probs``:
    the top-``beam_size`` constrained beam, or i.i.d. constrained samples in
    sampling mode."""
    if mode == "beam":
        return tagger.beam_decode(probs[:, None], [len(probs)], [predicate], beam_size)[0]
    if rng is None:
        raise OiekitError("sampling exploration needs a random generator")
    return _sample_sequences(probs, beam_size, predicate, rng)


def candidate_reward(candidate: TagSequence, sentence: ParsedSentence, predicate: int,
                     scorer: SemScorer, table: PatternTable = DEFAULT_TABLE) -> RewardBreakdown:
    """Reward of one candidate sequence. Candidates that decode to no
    extraction score syn=-1, sem=0."""
    extraction = spans_from_tags(TaggedInstance(sentence, predicate, candidate))
    if extraction is None:
        return combined_reward(-1, 0.0)
    return _extraction_reward(extraction, sentence, scorer, table)


def _extraction_reward(extraction: Extraction, sentence: ParsedSentence,
                       scorer: SemScorer, table: PatternTable) -> RewardBreakdown:
    return combined_reward(syn_score(extraction, sentence, table),
                           scorer.score(extraction, sentence))


def reinforce_step(model: TaggerModel, optimizer: nn.Adam, sentence: ParsedSentence,
                   cache: dict, candidates: Sequence[TagSequence],
                   rewards: Sequence[float], baseline_mode: str = "mean") -> float:
    """One likelihood-ratio update: ascend sum_k (R_k - b) grad log P(Y_k),
    through the cache of the forward pass the candidates were decoded from.

    Returns the squared gradient norm, or 0.0 with no update when every
    weight is zero (one candidate, mean baseline); a non-finite norm raises
    NonFiniteValue naming the sentence.
    """
    if not candidates or len(candidates) != len(rewards):
        raise OiekitError("need equally many candidates and rewards, at least one each")
    baseline = sum(rewards) / len(rewards) if baseline_mode == "mean" else 0.0
    # Weights b - R_k give the descent gradient directly (negation is exact).
    weights = [baseline - r for r in rewards]
    if all(weight == 0.0 for weight in weights):
        return 0.0
    dlogits = tagger.weighted_dlogits(cache["probs"], [list(zip(candidates, weights))])
    return tagger.descent_step(model, cache, dlogits, optimizer,
                               f"on sentence {sentence.sentence_id!r}")


def train_rl(model: TaggerModel, corpus: Sequence[ParsedSentence], scorer: SemScorer,
             config: RLConfig = RLConfig(), table: PatternTable = DEFAULT_TABLE,
             dev: Optional[tuple[Sequence[ParsedSentence], Optional[Sequence[GoldTuple]]]] = None
             ) -> list[dict]:
    """Reward-driven fine-tuning over every (sentence, predicate) pair.

    Returns the per-epoch metrics rows, which the CLI writes: mean candidate
    reward and its syntactic/semantic parts, plus the mean top-1 reward and
    best headword F1 on the dev split when one is supplied (F1 only with dev
    gold). Deterministic for a fixed seed.
    """
    if not corpus:
        raise OiekitError("reinforcement learning needs a non-empty corpus")
    # Uniform [-0.1, 0.1] initialization never exceeds 0.1 in magnitude.
    if all(np.abs(arr).max() <= 0.1 for arr in model.params.values()):
        log.warning("model parameters look freshly initialized; pretrain first")
    rng = np.random.default_rng(config.rng_seed)
    optimizer = nn.Adam(model.params, step_size=config.step_size)
    corpus = list(corpus)
    metrics: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(corpus))
        scored: list[RewardBreakdown] = []
        for idx in order:
            sentence = corpus[idx]
            for predicate in identify_predicates(sentence, table):
                probs, cache = tagger.forward([(sentence, predicate)], model, backprop=True)
                candidates = explore(probs[:, 0], predicate, config.beam_size,
                                     mode=config.explore_mode, rng=rng)
                breakdowns = [candidate_reward(c, sentence, predicate, scorer, table)
                              for c in candidates]
                reinforce_step(model, optimizer, sentence, cache, candidates,
                               [b.total for b in breakdowns], config.baseline_mode)
                scored.extend(breakdowns)
        count = max(len(scored), 1)
        row = {"epoch": epoch, "mean_reward": sum(b.total for b in scored) / count,
               "mean_syn": sum(b.syn for b in scored) / count,
               "mean_sem": sum(b.sem for b in scored) / count,
               "dev_mean_reward": None, "dev_f1": None}
        if dev is not None:
            row["dev_mean_reward"], row["dev_f1"] = _dev_metrics(model, *dev, scorer, table)
        metrics.append(row)
        log.info("epoch %d: mean reward %.4f dev %s", epoch, row["mean_reward"], row["dev_f1"])
    return metrics


def _dev_metrics(model: TaggerModel, sentences: Sequence[ParsedSentence],
                 gold: Optional[Sequence[GoldTuple]], scorer: SemScorer,
                 table: PatternTable) -> tuple[float, Optional[float]]:
    """(mean top-1 reward over every dev predicate, best F1 against the dev
    gold or None), from one :func:`tagger.extract` call over the dev
    sentences; each extraction is scored with its sentence, found by
    ``sentence_id``. A predicate extract drops (no predicate span) counts
    with reward 0, as syn = -1 times sem = 0. Like every extract call it
    runs the float32 encoder; it only logs, so training does not depend on it."""
    by_id = {sentence.sentence_id: sentence for sentence in sentences}
    preds = tagger.extract(sentences, model, table)
    total = 0.0
    for e in preds:
        total += _extraction_reward(e, by_id[e.sentence_id], scorer, table).total
    predicate_count = sum(len(identify_predicates(sentence, table)) for sentence in sentences)
    f1 = evaluate.evaluate(preds, gold).best_f1 if gold else None
    return (total / predicate_count if predicate_count else 0.0), f1
