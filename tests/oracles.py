"""Slow reference implementations that tests compare the package against,
written for plain reading rather than speed.

- :func:`oracle_valid` states the decoding constraints apart from
  ``tagger.allowed_labels`` and the decoder's transition table, and
  :func:`valid_sequences` lists what it accepts by brute force. They pin
  ``tagger.beam_decode`` (through :func:`oracle_rank`) and the constrained
  sampler ``rl._sample_sequences``.
- :func:`candidate_dlogits` states the logit gradient of both trainers
  in plain numpy, sum_k w_k (onehot_k - p) over (labels, weight) rows (a
  pattern label is one row at weight -1/m per item); it pins
  ``tagger.weighted_dlogits`` bit for bit.
- :func:`exact_policy_gradient` runs the package's
  ``tagger.weighted_dlogits`` and backward pass over every valid sequence.
  Central differences of :func:`expected_reward_oracle`, which runs forward
  passes only, pin it through :func:`max_central_difference_error`.
- :func:`max_central_difference_error` with ``mle.mle_loss`` pins
  ``mle.instance_grads``, the tagger's whole backward pass.
- :func:`relative_error` measures every such comparison, and the batched
  encoder against its per-item reference.
- :func:`tags_from_spans` inverts ``core.spans_from_tags``.
- :func:`argument_spans_oracle` states the argument-span cut of
  ``patterns.generate_instances`` by brute force over candidate ranges.
"""

import itertools

import numpy as np

from oiekit import tagger
from oiekit.core import (ARGUMENT_ROLES, LABEL_INDEX, LABELS, OUTSIDE, PREDICATE_ROLE,
                         TagSequence, ValidationError)


def oracle_valid(seq, predicate):
    prev = "O"
    p_spans = 0
    for pos, lab in enumerate(seq, start=1):
        if lab == "O":
            prev = lab
            continue
        kind, role = lab[0], lab[2:]
        if kind == "B":
            if role == "P":
                if pos != predicate:
                    return False
                p_spans += 1
        else:
            if prev == "O" or prev[2:] != role:
                return False
        prev = lab
    return p_spans <= 1


def valid_sequences(m, predicate):
    """Every length-``m`` sequence over ``LABELS`` that :func:`oracle_valid`
    accepts, in ``itertools.product`` order (use for small ``m`` only)."""
    return [seq for seq in itertools.product(LABELS, repeat=m) if oracle_valid(seq, predicate)]


def oracle_rank(table, predicate):
    """(summed log probability, sequence) for every valid sequence under the
    (m, L) ``table``, best first, ties in label string order."""
    logs = np.log(table)
    scored = []
    for seq in valid_sequences(table.shape[0], predicate):
        score = 0.0
        for pos, lab in enumerate(seq):
            score = score + logs[pos, LABELS.index(lab)]
        scored.append((score, seq))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return scored


def _onehot(labels, num_labels):
    onehot = np.zeros((len(labels), num_labels))
    for position, label in enumerate(labels):
        onehot[position, LABEL_INDEX[label]] = 1.0
    return onehot


def candidate_dlogits(probs, rows):
    """sum_k w_k (onehot_k - p), in row order: the logit gradient of sum_k
    w_k log P(Y_k) over one item's (m, L) ``probs`` for (labels, weight)
    ``rows``."""
    total = np.zeros_like(probs)
    for labels, weight in rows:
        total += weight * _onehot(labels, probs.shape[1]) - weight * probs
    return total


def _sequences_with_probs(model, sentence, predicate):
    """(forward cache, [(sequence, P(sequence))] over every valid sequence)."""
    probs, cache = tagger.forward([(sentence, predicate)], model, backprop=True)
    weighted = []
    for seq in valid_sequences(len(sentence), predicate):
        p = 1.0
        for position, label in enumerate(seq):
            p *= probs[position, 0, LABEL_INDEX[label]]
        weighted.append((TagSequence(labels=seq), p))
    return cache, weighted


def exact_policy_gradient(model, sentence, predicate, reward_fn):
    """Exact score-function gradient of the expected reward: the sum over
    every valid sequence of P(Y) R(Y) grad log P(Y), through the package's
    own logit-gradient builder and backward pass."""
    cache, weighted = _sequences_with_probs(model, sentence, predicate)
    rows = [(seq, p * reward_fn(seq)) for seq, p in weighted]
    dlogits = tagger.weighted_dlogits(cache["probs"], [rows])
    return tagger.backward_from_dlogits(model, cache, dlogits)


def expected_reward_oracle(model, sentence, predicate, reward_fn):
    """Exact expected reward: the sum over every valid sequence of
    P(Y) * R(Y). Enumeration-bound to short sentences."""
    if len(sentence) > 6:
        raise ValueError("expected_reward_oracle enumerates sequences; use m <= 6")
    _, weighted = _sequences_with_probs(model, sentence, predicate)
    total = 0.0
    for seq, p in weighted:
        total += p * reward_fn(seq)
    return total


def relative_error(a, b, floor=1e-300):
    """Largest |a - b| divided by the largest magnitude in ``a`` or ``b``,
    or by ``floor`` if that is larger; for scalars or arrays."""
    return np.abs(a - b).max() / max(np.abs(a).max(), np.abs(b).max(), floor)


def max_central_difference_error(loss, params, grads, rng, samples_per_array, epsilon=1e-4):
    """Largest relative error between ``grads`` and central differences of
    the scalar ``loss()``, over ``samples_per_array`` entries of each array
    in ``params`` drawn by ``rng``. Each entry is perturbed in place and
    restored."""
    worst = 0.0
    for name, param in params.items():
        flat = param.reshape(-1)
        picks = rng.choice(flat.size, size=min(samples_per_array, flat.size), replace=False)
        for idx in picks:
            original = flat[idx]
            flat[idx] = original + epsilon
            plus = loss()
            flat[idx] = original - epsilon
            minus = loss()
            flat[idx] = original
            numeric = (plus - minus) / (2.0 * epsilon)
            worst = max(worst, relative_error(grads[name].reshape(-1)[idx], numeric, floor=1e-6))
    return worst


def tags_from_spans(extraction, m):
    """Inverse of ``core.spans_from_tags`` for a sentence of length ``m``."""
    labels = [OUTSIDE] * m
    items = [(PREDICATE_ROLE, extraction.predicate_span)]
    items += sorted(extraction.role_spans.items())
    for role, (start, end) in items:
        if start < 1 or end > m or end < start:
            raise ValidationError(
                f"{role} span [{start}, {end}] outside sentence of length {m}"
            )
        labels[start - 1] = f"B-{role}"
        for pos in range(start + 1, end + 1):
            labels[pos - 1] = f"I-{role}"
    return TagSequence(tuple(labels))


def argument_spans_oracle(sentence, predicate, heads):
    """{role: span} for the matched ``heads`` of ``predicate``: in
    ``ARGUMENT_ROLES`` order, the widest contiguous range inside the
    envelope of the head's subtree that holds the head and no taken
    position. Taken are the predicate, every matched head but this one,
    and the spans chosen before."""
    def descends(token, ancestor):
        while token != 0:
            if token == ancestor:
                return True
            token = sentence.token(token).head
        return False

    taken = {predicate} | set(heads.values())
    spans = {}
    for role in ARGUMENT_ROLES:
        if role not in heads:
            continue
        head = heads[role]
        subtree = [t.index for t in sentence.tokens if descends(t.index, head)]
        blocked = taken - {head}
        candidates = [(lo, hi)
                      for lo in range(min(subtree), head + 1)
                      for hi in range(head, max(subtree) + 1)
                      if not blocked.intersection(range(lo, hi + 1))]
        spans[role] = max(candidates, key=lambda span: span[1] - span[0])
        taken.update(range(spans[role][0], spans[role][1] + 1))
    return spans
