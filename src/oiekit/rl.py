"""Policy-gradient generalization of a pretrained tagger: explore label
sequences with constrained beam search, score each candidate with the
syntactic-semantic reward, and apply likelihood-ratio updates. The update
is taken on the P(Y|x) that produced the candidates, so :func:`explore`
and :func:`reinforce_step` share one forward pass per step."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from oiekit import corpus_io, evaluate, nn, tagger
from oiekit.core import (
    Extraction,
    NoPredicateSpan,
    OiekitError,
    ParsedSentence,
    TaggedInstance,
    TagSequence,
    label_index,
    spans_from_tags,
)
from oiekit.corpus_io import GoldTuple
from oiekit.patterns import DEFAULT_TABLE, PatternTable, identify_predicates
from oiekit.reward import RewardBreakdown, SemScorer, combined_reward, syn_score
from oiekit.tagger import TaggerModel, allowed_labels

log = logging.getLogger(__name__)


class NonFiniteGradient(OiekitError):
    """A policy-gradient update produced non-finite values; aborts."""


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
            raise OiekitError("epochs must be >= 1")
        if not 0.0 < self.step_size < np.inf:
            raise OiekitError(f"step_size must be finite and positive, got {self.step_size}")
        if self.baseline_mode not in ("mean", "off"):
            raise OiekitError(f"unknown baseline mode {self.baseline_mode!r}")
        if self.explore_mode not in ("beam", "sample"):
            raise OiekitError(f"unknown explore mode {self.explore_mode!r}")
        if self.beam_size < 1:
            raise OiekitError("beam_size must be >= 1")


def _sample_sequences(distributions: np.ndarray, count: int, predicate: int,
                      labels: tuple[str, ...], rng: np.random.Generator) -> list[TagSequence]:
    """Ancestral sampling under the decoding constraints (renormalized per
    position); duplicates are collapsed."""
    index = label_index(labels)
    seen = {}
    for _ in range(count):
        prev = "O"
        chosen = []
        score = 0.0
        for position in range(1, distributions.shape[0] + 1):
            options = allowed_labels(prev, position, predicate, labels)
            weights = np.array([distributions[position - 1, index[o]] for o in options])
            total = weights.sum()
            if total <= 0:
                weights = np.ones(len(options)) / len(options)
            else:
                weights = weights / total
            pick = options[int(rng.choice(len(options), p=weights))]
            score += float(np.log(max(distributions[position - 1, index[pick]], 1e-300)))
            chosen.append(pick)
            prev = pick
        seen.setdefault(tuple(chosen), score)
    return [TagSequence(labels=seq, log_prob=score) for seq, score in seen.items()]


def explore(probs: np.ndarray, predicate: int, labels: tuple[str, ...],
            beam_size: int, mode: str = "beam",
            rng: Optional[np.random.Generator] = None) -> list[TagSequence]:
    """Candidate label sequences decoded from one item's (m, L) ``probs``:
    the top-``beam_size`` constrained beam, or i.i.d. constrained samples in
    sampling mode."""
    if mode == "beam":
        return tagger.beam_decode(probs[:, None], [len(probs)], [predicate], beam_size,
                                  labels)[0]
    if rng is None:
        raise OiekitError("sampling exploration needs a random generator")
    return _sample_sequences(probs, beam_size, predicate, labels, rng)


def candidate_reward(candidate: TagSequence, sentence: ParsedSentence, predicate: int,
                     scorer: SemScorer, table: PatternTable = DEFAULT_TABLE) -> RewardBreakdown:
    """Reward of one candidate sequence. Candidates that decode to no
    extraction score syn=-1, sem=0."""
    try:
        extraction = spans_from_tags(TaggedInstance(sentence, predicate, candidate))
    except NoPredicateSpan:
        return combined_reward(-1, 0.0)
    return _extraction_reward(extraction, sentence, scorer, table)


def _extraction_reward(extraction: Extraction, sentence: ParsedSentence,
                       scorer: SemScorer, table: PatternTable) -> RewardBreakdown:
    return combined_reward(syn_score(extraction, sentence, table),
                           scorer.score(extraction, sentence))


def _policy_dlogits(model: TaggerModel, cache, candidates: Sequence[TagSequence],
                    weights: Sequence[float]) -> np.ndarray:
    """(m, 1, L) logit gradient of sum_k w_k * log P(Y_k) for the one item
    of a cached pass, exploiting linearity so a single backward pass covers
    every candidate."""
    probs = cache["probs"][:, 0]
    index = label_index(model.labels)
    dlogits = np.zeros_like(probs)
    rows = np.arange(probs.shape[0])
    for candidate, weight in zip(candidates, weights):
        if weight == 0.0:
            continue
        cols = np.array([index[label] for label in candidate.labels])
        onehot_minus_probs = -probs * weight
        onehot_minus_probs[rows, cols] += weight
        dlogits += onehot_minus_probs
    return dlogits[:, None]


def reinforce_step(model: TaggerModel, optimizer: nn.Adam, sentence: ParsedSentence,
                   cache: dict, candidates: Sequence[TagSequence],
                   rewards: Sequence[float], baseline_mode: str = "mean") -> float:
    """One likelihood-ratio update: ascend sum_k (R_k - b) grad log P(Y_k),
    through the cache of the forward pass the candidates were decoded from.

    Returns the squared gradient norm (0.0 means the parameters were left
    untouched, as with a single candidate under the mean baseline).
    """
    if not candidates or len(candidates) != len(rewards):
        raise OiekitError("need equally many candidates and rewards, at least one each")
    baseline = sum(rewards) / len(rewards) if baseline_mode == "mean" else 0.0
    # Weights b - R_k give the descent gradient directly (negation is exact).
    dlogits = _policy_dlogits(model, cache, candidates, [baseline - r for r in rewards])
    if not np.all(dlogits == 0.0):
        descent = tagger.backward_from_dlogits(model, cache, dlogits)
        if not nn.grads_finite(descent):
            raise NonFiniteGradient(
                f"non-finite policy gradient on {sentence.sentence_id!r}"
            )
        optimizer.step(descent)
        return float(sum((g * g).sum() for g in descent.values()))
    return 0.0


def _enumerate_with_probs(model: TaggerModel, sentence: ParsedSentence, predicate: int):
    """(forward cache, [(sequence, P(sequence))] over every
    constraint-satisfying sequence), by enumeration rather than decoding."""
    probs, cache = tagger.forward([(sentence, predicate)], model, backprop=True)
    index = label_index(model.labels)
    weighted = []
    for seq in tagger.enumerate_valid_sequences(len(sentence), predicate, model.labels):
        p = 1.0
        for position, label in enumerate(seq):
            p *= probs[position, 0, index[label]]
        weighted.append((TagSequence(labels=seq), p))
    return cache, weighted


def exact_policy_gradient(model: TaggerModel, sentence: ParsedSentence, predicate: int,
                          reward_fn: Callable[[TagSequence], float]) -> dict:
    """Exact score-function gradient of the expected reward: the sum over
    every constraint-satisfying sequence of P(Y) R(Y) grad log P(Y)."""
    cache, weighted = _enumerate_with_probs(model, sentence, predicate)
    candidates = [seq for seq, _ in weighted]
    weights = [p * reward_fn(seq) for seq, p in weighted]
    dlogits = _policy_dlogits(model, cache, candidates, weights)
    return tagger.backward_from_dlogits(model, cache, dlogits)


def expected_reward_oracle(model: TaggerModel, sentence: ParsedSentence, predicate: int,
                           reward_fn: Callable[[TagSequence], float]) -> float:
    """Exact expected reward: sum over all constraint-satisfying sequences
    of P(Y) * R(Y). Enumeration-bound to short sentences."""
    if len(sentence) > 6:
        raise OiekitError("expected_reward_oracle enumerates sequences; use m <= 6")
    _, weighted = _enumerate_with_probs(model, sentence, predicate)
    total = 0.0
    for seq, p in weighted:
        total += p * reward_fn(seq)
    return total


def train_rl(model: TaggerModel, corpus: Sequence[ParsedSentence], scorer: SemScorer,
             config: RLConfig = RLConfig(), table: PatternTable = DEFAULT_TABLE,
             dev: Optional[tuple[Sequence[ParsedSentence], Optional[Sequence[GoldTuple]]]] = None,
             metrics_path=None) -> list[dict]:
    """Reward-driven fine-tuning over every (sentence, predicate) pair.

    Logs per epoch: mean candidate reward and its syntactic/semantic parts,
    plus the mean top-1 reward and best headword F1 on the dev split when
    one is supplied (F1 only with dev gold). Deterministic for a fixed seed.
    """
    if not corpus:
        raise OiekitError("reinforcement learning needs a non-empty corpus")
    if _looks_fresh(model):
        log.warning("model parameters look freshly initialized; pretrain first")
    rng = np.random.default_rng(config.rng_seed)
    optimizer = nn.Adam(model.params, step_size=config.step_size)
    corpus = list(corpus)
    if dev is not None:
        dev_predicates = sum(len(identify_predicates(sentence, table)) for sentence in dev[0])
    metrics: list[dict] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(corpus))
        reward_sum = syn_sum = sem_sum = 0.0
        count = 0
        for idx in order:
            sentence = corpus[idx]
            for predicate in identify_predicates(sentence, table):
                probs, cache = tagger.forward([(sentence, predicate)], model, backprop=True)
                candidates = explore(probs[:, 0], predicate, model.labels, config.beam_size,
                                     mode=config.explore_mode, rng=rng)
                breakdowns = [
                    candidate_reward(c, sentence, predicate, scorer, table) for c in candidates
                ]
                reinforce_step(model, optimizer, sentence, cache, candidates,
                               [b.total for b in breakdowns], config.baseline_mode)
                for b in breakdowns:
                    reward_sum += b.total
                    syn_sum += b.syn
                    sem_sum += b.sem
                    count += 1
        row = {
            "epoch": epoch,
            "mean_reward": reward_sum / count if count else 0.0,
            "mean_syn": syn_sum / count if count else 0.0,
            "mean_sem": sem_sum / count if count else 0.0,
            "dev_mean_reward": None,
            "dev_f1": None,
        }
        if dev is not None:
            row["dev_mean_reward"], row["dev_f1"] = _dev_metrics(model, *dev, scorer, table,
                                                                 dev_predicates)
        metrics.append(row)
        log.info("epoch %d: mean reward %.4f dev %s", epoch, row["mean_reward"], row["dev_f1"])
    if metrics_path is not None:
        corpus_io.write_jsonl(metrics, metrics_path)
    return metrics


def _dev_metrics(model: TaggerModel, sentences: Sequence[ParsedSentence],
                 gold: Optional[Sequence[GoldTuple]], scorer: SemScorer,
                 table: PatternTable, predicate_count: int) -> tuple[float, Optional[float]]:
    """(mean top-1 reward over the ``predicate_count`` dev predicates, best
    F1 against the dev gold or None), from one :func:`tagger.extract` call
    over the dev sentences; each extraction is scored with its sentence,
    found by ``sentence_id``. A predicate that extract drops counts with
    reward 0, as syn = -1 times sem = 0."""
    by_id = {sentence.sentence_id: sentence for sentence in sentences}
    preds = tagger.extract(sentences, model, table)
    total = 0.0
    for e in preds:
        total += _extraction_reward(e, by_id[e.sentence_id], scorer, table).total
    f1 = evaluate.evaluate(preds, gold).best_f1 if gold else None
    return (total / predicate_count if predicate_count else 0.0), f1


def _looks_fresh(model: TaggerModel) -> bool:
    # Uniform [-0.1, 0.1] initialization never exceeds 0.1 in magnitude.
    return all(np.abs(arr).max() <= 0.1 for arr in model.params.values())
