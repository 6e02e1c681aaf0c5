"""Pretraining stage: minimize the negative log-likelihood of (noisy) BIO
labels over a corpus of tagged instances, with a finite-difference
gradient-check harness for verification."""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from oiekit import corpus_io, evaluate, nn, tagger
from oiekit.core import (OiekitError, TaggedInstance, ValidationError, label_index,
                         spans_from_tags)
from oiekit.tagger import TaggerModel

log = logging.getLogger(__name__)

PROB_FLOOR = 1e-12


class NonFiniteLoss(OiekitError):
    """Training hit a non-finite loss; aborts with diagnostics."""


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


def _gold_nll(model: TaggerModel, instance: TaggedInstance,
              probs: np.ndarray) -> tuple[float, np.ndarray]:
    """(negative log-likelihood of the instance's labels, their label columns)."""
    index = label_index(model.labels)
    cols = np.array([index[label] for label in instance.tags.labels])
    chosen = probs[np.arange(len(cols)), cols]
    if (chosen <= 0.0).any():
        warnings.warn(
            "zero label probability clamped to 1e-12 "
            f"(sentence {instance.sentence.sentence_id!r})",
            RuntimeWarning,
        )
        chosen = np.maximum(chosen, PROB_FLOOR)
    return float(-np.log(chosen).sum()), cols


def mle_loss(model: TaggerModel, instance: TaggedInstance) -> float:
    """Negative log-likelihood of the instance's labels, summed over tokens."""
    probs, _ = tagger.forward(_items([instance]), model)
    return _gold_nll(model, instance, probs[:, 0])[0]


def _nll_grad(model: TaggerModel, instance: TaggedInstance, probs: np.ndarray,
              scale: float) -> tuple[float, np.ndarray]:
    """(negative log-likelihood of the instance's labels, gradient of
    ``scale * loss`` on its logits)."""
    loss, cols = _gold_nll(model, instance, probs)
    dlogits = probs.copy()
    dlogits[np.arange(len(cols)), cols] -= 1.0
    return loss, dlogits * scale


def instance_grads(model: TaggerModel, instance: TaggedInstance,
                   scale: float = 1.0) -> tuple[float, dict[str, np.ndarray]]:
    """(loss, gradients) for one instance; gradients are of ``scale *
    loss`` (callers use 1/m for token-mean aggregation)."""
    probs, cache = tagger.forward(_items([instance]), model, backprop=True)
    loss, dlogits = _nll_grad(model, instance, probs[:, 0], scale)
    return loss, tagger.backward_from_dlogits(model, cache, dlogits[:, None])


def _items(instances: Sequence[TaggedInstance]) -> list[tuple]:
    return [(instance.sentence, instance.predicate_index) for instance in instances]


def _batch_grads(model: TaggerModel, batch: Sequence[TaggedInstance],
                 epoch: int) -> tuple[list[float], dict[str, np.ndarray]]:
    """(each instance's token-mean loss, gradient of their mean), from one
    batched forward and backward pass. The forward cache is freed on
    return, before the caller's next batch builds its own."""
    probs, cache = tagger.forward(_items(batch), model, backprop=True)
    dlogits = np.zeros_like(probs)
    losses = []
    for b, instance in enumerate(batch):
        m = len(instance.tags)
        loss, dlogits[:m, b] = _nll_grad(model, instance, probs[:m, b], 1.0 / m)
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"non-finite loss at epoch {epoch}, sentence "
                                f"{instance.sentence.sentence_id!r}")
        losses.append(loss / m)
    grads = tagger.backward_from_dlogits(model, cache, dlogits)
    for name in grads:
        grads[name] /= len(batch)
    return losses, grads


def pretrain(model: TaggerModel, corpus: Sequence[TaggedInstance],
             config: TrainConfig = TrainConfig(),
             dev: Optional[Sequence[TaggedInstance]] = None,
             metrics_path=None) -> list[dict]:
    """Minimize mean token-level NLL with Adam; early-stops on dev loss and
    restores the best parameters. Returns the per-epoch metrics rows.

    Without ``dev``, a ``config.dev_fraction`` share of the shuffled corpus
    (at least one instance, when there are two or more) is held out as
    dev. A fraction of 0 holds out nothing: every instance trains, nothing
    stops early, and the rows carry ``dev_loss`` and ``dev_f1`` None.

    Each mini-batch of B instances is one :func:`tagger.forward` pass
    over the (m, B, ·) batch, right-padded to its longest sentence m, and
    one backward pass. Instance ``b`` gets the logit gradient of its own
    token-mean loss divided by B in rows ``[:len(b), b]`` and zero rows at
    its padding, so the step follows the mean of the token means. Dev
    metrics run in chunks of ``batch_size`` the same way.
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
            losses, grads = _batch_grads(model, batch, epoch)
            for loss in losses:
                epoch_loss += loss
            if not nn.grads_finite(grads):
                raise NonFiniteLoss(f"non-finite gradient at epoch {epoch}")
            optimizer.step(grads)
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
    if metrics_path is not None:
        corpus_io.write_jsonl(metrics, metrics_path)
    return metrics


def _dev_metrics(model: TaggerModel, dev: Sequence[TaggedInstance],
                 batch_size: int) -> tuple[float, float]:
    """(mean token-level NLL of the dev instances, headword F1 of their top-1
    decodes against the tuples implied by their own labels), from one
    batched inference pass (no backprop cache) and one batched decode per
    ``batch_size`` instances."""
    losses = []
    golds = []
    preds = []
    for start in range(0, len(dev), batch_size):
        chunk = dev[start : start + batch_size]
        probs = tagger.forward(_items(chunk), model)[0]
        decoded = tagger.beam_decode(probs, [len(instance.tags) for instance in chunk],
                                     [instance.predicate_index for instance in chunk], 1,
                                     model.labels)
        for b, (instance, (best,)) in enumerate(zip(chunk, decoded)):
            m = len(instance.tags)
            losses.append(_gold_nll(model, instance, probs[:m, b])[0] / m)
            try:
                golds.append(evaluate.gold_from_instance(instance))
            except OiekitError:
                continue
            try:
                extraction = spans_from_tags(
                    TaggedInstance(instance.sentence, instance.predicate_index, best),
                    confidence=best.log_prob / len(best),
                )
            except OiekitError:
                continue
            preds.append(extraction)
    return float(np.mean(losses)), evaluate.tuple_f1(preds, golds) if golds else 0.0


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


def relative_error(a: float, b: float, floor: float = 1e-6) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def grad_check(model: TaggerModel, instance: TaggedInstance, epsilon: float = 1e-4,
               rng: Optional[np.random.Generator] = None,
               samples_per_array: int = 5) -> float:
    """Max relative error between analytic gradients and central finite
    differences of the loss, over a sampled parameter subset."""
    if epsilon <= 0:
        raise OiekitError("epsilon must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    _, grads = instance_grads(model, instance, scale=1.0)
    worst = 0.0
    for name, param in model.params.items():
        flat = param.reshape(-1)
        count = min(samples_per_array, flat.size)
        picks = rng.choice(flat.size, size=count, replace=False)
        for idx in picks:
            original = flat[idx]
            flat[idx] = original + epsilon
            loss_plus = mle_loss(model, instance)
            flat[idx] = original - epsilon
            loss_minus = mle_loss(model, instance)
            flat[idx] = original
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            analytic = grads[name].reshape(-1)[idx]
            worst = max(worst, relative_error(analytic, numeric))
    return worst
