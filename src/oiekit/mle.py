"""Pretraining stage: minimize the negative log-likelihood of (noisy) BIO
labels over a corpus of tagged instances.

Training is mixed precision. Each mini-batch runs the encoder forward and
backward in float32, on a :func:`tagger.float32_encoder` copy of the
parameters made for that batch; the classifier head, softmax, loss, the
gradients handed to Adam, Adam's moments, the master parameters and so the
checkpoints are float64. :func:`instance_grads`, :func:`mle_loss` and the
dev pass run wholly in float64.

Updates follow ``tagger``'s one rule, each pattern label a row at weight -1
and scale 1/m. A non-finite loss raises NonFiniteValue here, naming the
sentence; a non-finite gradient, in ``tagger.descent_step``."""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from oiekit import evaluate, nn, tagger
from oiekit.core import (LABEL_INDEX, NonFiniteValue, NoPredicateSpan, OiekitError,
                         TaggedInstance, ValidationError, spans_from_tags)
from oiekit.tagger import TaggerModel

log = logging.getLogger(__name__)

PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 16
    step_size: float = 1e-3
    dev_fraction: float = 0.1
    patience: int = 3
    rng_seed: int = 13

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if not 0.0 < self.step_size < np.inf:
            raise ValidationError(f"step_size must be finite and positive, got {self.step_size}")
        if not 0.0 <= self.dev_fraction < 1.0:
            raise ValidationError(f"dev_fraction must be in [0, 1), got {self.dev_fraction}")
        if self.patience < 1:
            raise ValidationError("patience must be >= 1")
        if self.rng_seed < 0:
            raise ValidationError(f"rng_seed must be >= 0, got {self.rng_seed}")


def _gold_nll(instance: TaggedInstance, probs: np.ndarray) -> float:
    """Negative log-likelihood of the instance's labels under its (m, L) ``probs``."""
    cols = [LABEL_INDEX[label] for label in instance.tags.labels]
    chosen = probs[np.arange(len(cols)), cols]
    if (chosen <= 0.0).any():
        warnings.warn(
            "zero label probability clamped to 1e-12 "
            f"(sentence {instance.sentence.sentence_id!r})",
            RuntimeWarning,
        )
        chosen = np.maximum(chosen, PROB_FLOOR)
    return float(-np.log(chosen).sum())


def mle_loss(model: TaggerModel, instance: TaggedInstance) -> float:
    """Negative log-likelihood of the instance's labels, summed over tokens."""
    probs, _ = tagger.forward(_items([instance]), model)
    return _gold_nll(instance, probs[:, 0])


def instance_grads(model: TaggerModel, instance: TaggedInstance,
                   scale: float = 1.0) -> tuple[float, dict[str, np.ndarray]]:
    """(loss, gradients) for one instance; gradients are of ``scale *
    loss`` (callers use 1/m for token-mean aggregation)."""
    probs, cache = tagger.forward(_items([instance]), model, backprop=True)
    dlogits = tagger.weighted_dlogits(probs, [([(instance.tags, -1.0)], scale)])
    return _gold_nll(instance, probs[:, 0]), tagger.backward_from_dlogits(model, cache, dlogits)


def _items(instances: Sequence[TaggedInstance]) -> list[tuple]:
    return [(instance.sentence, instance.predicate_index) for instance in instances]


def _batch_step(model: TaggerModel, optimizer: nn.Adam, batch: Sequence[TaggedInstance],
                epoch: int) -> list[float]:
    """Each instance's token-mean loss, after one ``tagger.descent_step`` down
    their mean through a :func:`tagger.float32_encoder` copy made for this
    batch. The forward cache is freed on return, before the next batch's."""
    encoder = tagger.float32_encoder(model)
    probs, cache = tagger.forward(_items(batch), encoder, backprop=True)
    losses = []
    for b, instance in enumerate(batch):
        m = len(instance.tags)
        loss = _gold_nll(instance, probs[:m, b])
        if not np.isfinite(loss):
            raise NonFiniteValue(f"non-finite loss at epoch {epoch}, sentence "
                                f"{instance.sentence.sentence_id!r}")
        losses.append(loss / m)
    dlogits = tagger.weighted_dlogits(
        probs, [([(instance.tags, -1.0)], 1.0 / len(instance.tags)) for instance in batch])
    tagger.descent_step(encoder, cache, dlogits, optimizer, f"at epoch {epoch}")
    return losses


def pretrain(model: TaggerModel, corpus: Sequence[TaggedInstance],
             config: TrainConfig = TrainConfig(),
             dev: Optional[Sequence[TaggedInstance]] = None) -> list[dict]:
    """Minimize mean token-level NLL with Adam; early-stops on dev loss and
    restores the best parameters. Returns the per-epoch metrics rows, which
    the CLI writes; a non-finite loss or gradient raises NonFiniteValue.

    Without ``dev``, a ``config.dev_fraction`` share of the shuffled corpus
    (at least one instance, when there are two or more) is held out as
    dev. A fraction of 0 holds out nothing: every instance trains, nothing
    stops early, and the rows carry ``dev_loss`` and ``dev_f1`` None.

    Each mini-batch of B instances is one :func:`tagger.forward` pass over
    the (m, B, ·) batch, right-padded to its longest sentence m, and one
    ``tagger.descent_step`` down the mean of the token-mean losses. Dev
    metrics run in chunks of ``batch_size`` the same way, in float64.

    Against the float64 path (the same code with the float32 encoder copy
    replaced by ``model`` itself), a step's gradients differ by at most
    about 3e-7 relative to each array. On the benchmark's extract
    checkpoint (120 sentences, 5 epochs at step 0.02) at seeds 1-10, the
    parameters differed by at most 4.2e-4 relative to each array, and on
    500 held-out sentences per seed no extracted tuple changed, confidences
    moved by at most 4.0e-5 and best F1 was equal.
    """
    if not corpus:
        raise OiekitError("pretraining needs a non-empty corpus")
    rng = np.random.default_rng(config.rng_seed)
    corpus = list(corpus)
    if dev is None:
        permuted = [corpus[i] for i in rng.permutation(len(corpus))]
        dev_count = 0
        if config.dev_fraction > 0 and len(permuted) > 1:
            dev_count = max(1, int(len(permuted) * config.dev_fraction))
        dev = permuted[len(permuted) - dev_count :]
        train = permuted[: len(permuted) - dev_count]
    else:
        train = corpus
        dev = list(dev)

    optimizer = nn.Adam(model.params, step_size=config.step_size)
    metrics: list[dict] = []
    best_dev = float("inf")
    best_params = {name: arr.copy() for name, arr in model.params.items()}
    stale = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train))
        epoch_loss = 0.0
        for start in range(0, len(train), config.batch_size):
            batch = [train[i] for i in order[start : start + config.batch_size]]
            for loss in _batch_step(model, optimizer, batch, epoch):
                epoch_loss += loss
        train_loss = epoch_loss / len(train)
        dev_loss = dev_f1 = None
        if dev:
            dev_loss, dev_f1 = _dev_metrics(model, dev, config.batch_size)
        row = {"epoch": epoch, "train_loss": train_loss,
               "dev_loss": dev_loss, "dev_f1": dev_f1}
        metrics.append(row)
        log.info("epoch %d: train %.4f dev %s f1 %s", epoch, train_loss, dev_loss, dev_f1)
        if dev:
            if dev_loss < best_dev - 1e-9:
                best_dev = dev_loss
                best_params = {name: arr.copy() for name, arr in model.params.items()}
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    break
    if dev:
        for name, arr in best_params.items():
            model.params[name][...] = arr
    return metrics


def _dev_metrics(model: TaggerModel, dev: Sequence[TaggedInstance],
                 batch_size: int) -> tuple[float, float]:
    """(mean token-level NLL of the dev instances, best headword F1 of their
    top-1 decodes against the tuples implied by their own labels, the
    statistic ``rl-train`` reports), from one batched inference pass (no
    backprop cache) and one batched decode per ``batch_size`` instances."""
    losses = []
    golds = []
    preds = []
    for start in range(0, len(dev), batch_size):
        chunk = dev[start : start + batch_size]
        probs = tagger.forward(_items(chunk), model)[0]
        decoded = tagger.beam_decode(probs, [len(instance.tags) for instance in chunk],
                                     [instance.predicate_index for instance in chunk], 1)
        for b, (instance, (best,)) in enumerate(zip(chunk, decoded)):
            m = len(instance.tags)
            losses.append(_gold_nll(instance, probs[:m, b]) / m)
            try:
                golds.append(evaluate.gold_from_instance(instance))
            except NoPredicateSpan:
                continue
            try:
                extraction = spans_from_tags(
                    TaggedInstance(instance.sentence, instance.predicate_index, best))
            except NoPredicateSpan:
                continue
            preds.append(extraction)
    return float(np.mean(losses)), evaluate.evaluate(preds, golds).best_f1 if golds else 0.0
