"""Predicate-conditioned neural sequence tagger.

Per predicate: embed each token as its word vector concatenated with a
predicate-indicator vector (1 at the predicate, 0 elsewhere), encode with
stacked bidirectional LSTM layers joined by highway gates, classify each
token over the BIO labels of ``core.LABELS`` (the one inventory: O, then
B-/I- for P, ARG1, ARG2 and ARG3), decode with a beam search constrained
by ``core.allowed_labels`` (the one BIO rule, imported here), and score
extractions by average log probability. :func:`forward` is the one
encoder: it runs (sentence, predicate) items as one right-padded,
time-major batch, and one item is a batch of one. Only training asks it
for the backprop cache (``backprop=True``); inference keeps none.
:func:`embed` is its input layer. :func:`beam_decode` is the one decoder:
it decodes such a batch in one vectorised k-best pass. :func:`decode_best`,
the top-1 decode of every inference pass, runs both without the cache.

Parameters, checkpoints and every gradient handed to the optimizer are
float64. :func:`extract` and each pretraining batch run the encoder in
float32 on a :func:`float32_encoder` copy (see there and ``mle.pretrain``
for the measured differences); RL training runs in float64.

Both trainers take one update rule: :func:`weighted_dlogits` (``mle``: the
pattern label at weight -1, scale 1/m; ``rl``: each candidate at weight
b - R_k, scale 1), then :func:`descent_step`, the one place that raises
``NonFiniteValue`` for a non-finite gradient.

A checkpoint is a JSON header line (``config``, ``format``, ``vocab``),
then the float64 bytes of every array in the order of :func:`_param_shapes`,
the layout's one owner: the header names no array.
"""

from __future__ import annotations

import copy
import json
import math
import os
import stat
from dataclasses import dataclass, asdict
from functools import cache
from typing import Iterator, Optional, Sequence

import numpy as np

from oiekit import nn
from oiekit.core import (
    Extraction,
    LABEL_INDEX,
    LABELS,
    NonFiniteValue,
    OUTSIDE,
    ParsedSentence,
    TaggedInstance,
    TagSequence,
    ValidationError,
    allowed_labels,
    spans_from_tags,
)
from oiekit.corpus_io import ParseError, atomic_write, checked_utf8
from oiekit.patterns import DEFAULT_TABLE, PatternTable, identify_predicates

UNK = "<unk>"

# (sentence, predicate) items per decode_best chunk, in every inference
# pass. It keeps no backprop cache, so a chunk holds a few (m·B, 4H) arrays
# at a time. On the benchmark's extract workload (seed 1: 500 sentences, 617
# items, m <= 13) an extract call at 64 peaks 3.6 MB above its inputs with
# the float32 encoder (5.3 MB in float64; 16: 1.7 MB, 128: 5.7 MB). With the
# float32 encoder, an extract call at 64 took 27% less time than at 16 at
# seeds 1-2, and 128 only 5% less than 64.
EXTRACT_BATCH = 64

@dataclass(frozen=True)
class TaggerConfig:
    embedding_dim: int = 32
    indicator_dim: int = 8
    hidden_dim: int = 64
    num_encoder_layers: int = 2
    rng_seed: int = 13

    def __post_init__(self):
        # type(), not isinstance: a bool is an int, and a float shape fails deep in numpy.
        for name, value in asdict(self).items():
            low = 0 if name == "rng_seed" else 1
            if type(value) is not int or value < low:
                raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")


class TaggerModel:
    """Named-parameter container plus the vocabulary it was built over:
    ``embed.word`` has one row per vocabulary entry (row 0 for unknown
    words) and ``embed.indicator`` two rows (off, on the predicate). A
    vocabulary is a list of distinct strings with ``UNK`` first, as
    :func:`build_vocab` makes it; any other raises ValidationError."""

    def __init__(self, config: TaggerConfig, vocab: list[str], params: dict[str, np.ndarray]):
        # A list, not any sequence: a string is a sequence of strings.
        if type(vocab) is not list or vocab[:1] != [UNK]:
            raise ValidationError(f"vocabulary must be a list starting with {UNK!r}")
        self.word_ids = {word: i for i, word in enumerate(vocab) if type(word) is str}
        if len(self.word_ids) != len(vocab):
            raise ValidationError("vocabulary entries must be distinct strings")
        self.config = config
        self.vocab = list(vocab)
        self.params = params

    def token_id(self, surface: str) -> int:
        return self.word_ids.get(surface, 0)


def build_vocab(instances_or_sentences) -> list[str]:
    """Vocabulary over the surfaces seen in training data: UNK, then each
    other surface once, in order of first appearance."""
    sentences = (item.sentence if isinstance(item, TaggedInstance) else item
                 for item in instances_or_sentences)
    return list(dict.fromkeys([UNK, *(tok.surface for s in sentences for tok in s.tokens)]))


def _param_shapes(config: TaggerConfig,
                  vocab_size: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Name and shape of every parameter array, in checkpoint order. A
    generator, so that :func:`load_model` does work in proportion to the
    arrays a file holds, not to the layer count its header claims."""
    h = config.hidden_dim
    yield "embed.word", (vocab_size, config.embedding_dim)
    yield "embed.indicator", (2, config.indicator_dim)
    layer_in = config.embedding_dim + config.indicator_dim
    for layer in range(config.num_encoder_layers):
        for direction in nn.DIRECTIONS:
            yield f"enc.{layer}.{direction}.wx", (layer_in, 4 * h)
            yield f"enc.{layer}.{direction}.wh", (h, 4 * h)
            yield f"enc.{layer}.{direction}.b", (4 * h,)
        if layer > 0:
            yield f"enc.{layer}.hw.w", (2 * h, 2 * h)
            yield f"enc.{layer}.hw.b", (2 * h,)
        layer_in = 2 * h
    yield "cls.w", (2 * h, len(LABELS))
    yield "cls.b", (len(LABELS),)


def init_model(config: TaggerConfig, vocab: list[str]) -> TaggerModel:
    """Initialize all parameters uniformly in [-0.1, 0.1] from a generator
    seeded with ``config.rng_seed``."""
    rng = np.random.default_rng(config.rng_seed)
    params = {name: rng.uniform(-0.1, 0.1, shape)
              for name, shape in _param_shapes(config, len(vocab))}
    return TaggerModel(config, vocab, params)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def embed(items: Sequence[tuple[ParsedSentence, int]], model: TaggerModel):
    """The encoder's input layer over right-padded (sentence, predicate)
    items: (input vectors (m, B, embedding_dim + indicator_dim), word ids
    (m, B), indicator flags (m, B)). Each token's input is its word
    embedding concatenated with the indicator embedding of whether it is
    the predicate; padded positions hold word id 0 and flag 0."""
    m = max(len(sentence) for sentence, _ in items)
    ids = np.zeros((m, len(items)), dtype=np.intp)
    flags = np.zeros((m, len(items)), dtype=np.intp)
    for b, (sentence, predicate) in enumerate(items):
        if not 1 <= predicate <= len(sentence):
            raise ValidationError(f"predicate {predicate} outside sentence of length {len(sentence)}")
        ids[: len(sentence), b] = [model.token_id(t.surface) for t in sentence.tokens]
        flags[predicate - 1, b] = 1
    x0 = np.concatenate([model.params["embed.word"][ids], model.params["embed.indicator"][flags]],
                        axis=-1)
    return x0, ids, flags


def _rows(x: np.ndarray) -> np.ndarray:
    """The (m·B, width) rows of an (m, B, width) array."""
    return x.reshape(-1, x.shape[-1])


def _encode(x0: np.ndarray, lengths, model: TaggerModel, backprop: bool):
    """Top-layer hidden states and, with ``backprop``, each layer's input,
    BiLSTM output, highway gate and LSTM caches (None otherwise, so each
    layer's arrays are freed once the next layer has read them). The input
    rows are cast to the LSTMs' dtype, so a :func:`float32_encoder` copy
    casts only the rows the batch gathered, not the embedding tables."""
    params = model.params
    layers = [] if backprop else None
    x = x0.astype(params["enc.0.fw.wx"].dtype, copy=False)
    for layer in range(model.config.num_encoder_layers):
        prefix = f"enc.{layer}"
        core, caches = nn.bilstm_forward(x, lengths, params, prefix, backprop)
        out, gate = core, None
        if layer > 0:
            out, gate = nn.highway_forward(_rows(x), _rows(core), params, prefix)
            out = out.reshape(core.shape)
        if backprop:
            layers.append({"x": x, "core": core, "gate": gate, "caches": caches})
        x = out
    return x, layers


def forward(items: Sequence[tuple[ParsedSentence, int]], model: TaggerModel, *,
            backprop: bool = False):
    """Pass over (sentence, predicate) items, right-padded to the longest
    sentence m and run as one time-major batch of B items: returns ((m, B,
    L) label distributions, backprop cache). Item ``b`` owns rows
    ``[:len(sentence), b]``; its values do not depend on the other items
    beyond float rounding. The distributions at padded positions mean
    nothing, and their logit gradients must be zero.

    Only training needs the cache: without ``backprop`` it is None and the
    pass keeps no per-layer or per-step arrays, with bit-identical
    distributions."""
    x0, ids, flags = embed(items, model)
    h_top, layers = _encode(x0, [len(sentence) for sentence, _ in items], model, backprop)
    # A float32 encoder (a float32_encoder copy) hands a float64 head
    # float64 rows; in float64 the cast is a no-op.
    cls_w = model.params["cls.w"]
    logits = _rows(h_top).astype(cls_w.dtype, copy=False) @ cls_w + model.params["cls.b"]
    probs = nn.softmax_rows(logits).reshape(*ids.shape, -1)
    if not backprop:
        return probs, None
    cache = {"layers": layers, "h_top": h_top, "probs": probs,
             "token_ids": ids, "indicator_flags": flags}
    return probs, cache


def backward_from_dlogits(model: TaggerModel, cache, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar with the given logit gradient, for every
    trainable parameter, through the cache of a ``backprop=True``
    :func:`forward` pass. ``dlogits`` has the shape of that pass's
    probabilities, (m, B, L), with zero rows at padded positions so that
    padding contributes nothing; :func:`weighted_dlogits` builds it.

    ``model`` is the one the pass ran on. With a :func:`float32_encoder`
    copy the encoder's backward pass runs in float32 too; every gradient
    is returned as float64, the dtype of the parameters it updates."""
    params = model.params
    grads: dict[str, np.ndarray] = {}
    h_top = cache["h_top"]
    dlogits = dlogits.reshape(-1, dlogits.shape[-1])
    grads["cls.w"] = _rows(h_top).T @ dlogits
    grads["cls.b"] = dlogits.sum(axis=0)
    dx = (dlogits @ params["cls.w"].T).astype(h_top.dtype, copy=False).reshape(h_top.shape)
    for layer in range(model.config.num_encoder_layers - 1, -1, -1):
        prefix = f"enc.{layer}"
        entry = cache["layers"][layer]
        if entry["gate"] is not None:
            dx, dcore = nn.highway_backward(_rows(dx), _rows(entry["x"]), _rows(entry["core"]),
                                            entry["gate"], params, grads, prefix)
            dx = dx.reshape(entry["x"].shape) + nn.bilstm_backward(
                dcore.reshape(entry["core"].shape), entry["caches"], grads, prefix)
        else:
            dx = nn.bilstm_backward(dx, entry["caches"], grads, prefix)
    # Embedding rows add up in float64, the dtype of the returned gradients
    # (np.add.at also takes a much slower path when the dtypes differ).
    dx = dx.astype(np.float64, copy=False)
    width = model.config.embedding_dim
    grads["embed.word"] = np.zeros(params["embed.word"].shape)
    np.add.at(grads["embed.word"], cache["token_ids"], dx[..., :width])
    grads["embed.indicator"] = np.zeros(params["embed.indicator"].shape)
    np.add.at(grads["embed.indicator"], cache["indicator_flags"], dx[..., width:])
    return {name: grad.astype(np.float64, copy=False) for name, grad in grads.items()}


def weighted_dlogits(probs: np.ndarray, items) -> np.ndarray:
    """(m, B, L) logit gradient of sum_b scale_b sum_k w_bk log P(Y_bk) over
    a batched :func:`forward` pass's ``probs``, zero at padding, for items
    (rows, scale_b) of (TagSequence, weight) rows: the rows' w (onehot - p)
    summed in order, zero weights skipped, then scaled."""
    dlogits = np.zeros_like(probs)
    for b, (rows, scale) in enumerate(items):
        for sequence, weight in rows:
            if weight != 0.0:
                m = len(sequence)
                term = probs[:m, b] * -weight
                term[np.arange(m), [LABEL_INDEX[label] for label in sequence.labels]] += weight
                dlogits[:m, b] += term
        dlogits[:, b] *= scale
    return dlogits


def descent_step(model: TaggerModel, cache, dlogits: np.ndarray, optimizer: nn.Adam,
                 where: str) -> float:
    """``optimizer.step`` down the gradient of ``dlogits`` through ``model``'s
    pass, averaged over its B items when B > 1; returns the squared norm,
    and one that is not finite raises ``non-finite gradient {where}``."""
    grads = backward_from_dlogits(model, cache, dlogits)
    if dlogits.shape[1] > 1:
        for grad in grads.values():
            grad /= dlogits.shape[1]
    norm = optimizer.step(grads)
    if not np.isfinite(norm):
        raise NonFiniteValue(f"non-finite gradient {where}")
    return norm


def float32_encoder(model: TaggerModel) -> TaggerModel:
    """The model :func:`extract` and each pretraining batch run: a copy
    whose LSTMs and highway gates are float32 and whose embedding tables
    and classifier head are ``model``'s own float64 arrays (the encoder
    casts the embedding rows it gathers). ``model.params`` is left as it
    is."""
    encoder = copy.copy(model)
    encoder.params = {name: arr if name.startswith(("cls.", "embed.")) else arr.astype(np.float32)
                      for name, arr in model.params.items()}
    return encoder


# ---------------------------------------------------------------------------
# Constrained beam decoding
# ---------------------------------------------------------------------------


@cache
def _transitions() -> tuple[np.ndarray, np.ndarray]:
    """(follow, lex_rank) over label columns, read from
    ``core.allowed_labels`` once and shared by every caller (read-only).
    ``follow[0][i, j]`` says label j may follow label i away from the
    predicate, ``follow[1][i, j]`` at the predicate position; they differ
    only in the B-P column. ``lex_rank[j]`` is label j's place in string
    order."""
    follow = np.zeros((2, len(LABELS), len(LABELS)), dtype=bool)
    for i, prev in enumerate(LABELS):
        for at_predicate, position in ((0, 2), (1, 1)):  # the predicate at position 1
            for label in allowed_labels(prev, position, 1):
                follow[at_predicate, i, LABEL_INDEX[label]] = True
    lex_rank = np.empty(len(LABELS), dtype=np.intp)
    lex_rank[sorted(range(len(LABELS)), key=LABELS.__getitem__)] = np.arange(len(LABELS))
    follow.flags.writeable = lex_rank.flags.writeable = False
    return follow, lex_rank


def beam_decode(probs: np.ndarray, lengths: Sequence[int], predicates: Sequence[int],
                beam_size: int) -> list[list[TagSequence]]:
    """Top ``beam_size`` constraint-satisfying label sequences of each item
    of a right-padded, time-major (m, B, L) batch of label distributions,
    best first. Item ``b`` is decoded from rows ``[:lengths[b], b]`` with
    its predicate at ``predicates[b]``; padding is never read into a result.

    Scores are summed natural logs of the chosen per-token probabilities;
    ties are broken by lexicographic label order. This is k-best Viterbi:
    hypotheses are grouped by their last label (the only state the
    transition constraints see) with a per-group beam, so the result is the
    exact top-``beam_size`` of the full constrained sequence space.

    Each item's hypotheses sit in a flat row of L·k slots kept in
    lexicographic order of their prefixes, with a validity mask beside the
    scores (a zero probability gives a valid hypothesis scored ``-inf``).
    Extending every slot by a label keeps that order within each next
    label, so a stable sort on score alone breaks ties by prefix; the
    survivors are then put back in prefix order (parent slot, then the new
    label's string rank). Items past their length keep their slots frozen.
    """
    if beam_size < 1:
        raise ValidationError("beam_size must be >= 1")
    m, batch, num_labels = probs.shape
    follow, lex_rank = _transitions()
    lengths = np.asarray(lengths)
    width = num_labels * beam_size
    # Before reordering, slot r·L + j holds the r-th best new prefix ending in label j.
    slot_label = np.arange(width) % num_labels
    slot_rank = lex_rank[slot_label]
    at_predicate = (np.asarray(predicates)[None, :] == np.arange(1, m + 1)[:, None]).astype(np.intp)
    rows = np.arange(batch)[:, None]
    with np.errstate(divide="ignore"):
        logs = np.log(probs)
    score = np.zeros((batch, width))
    valid = np.zeros((batch, width), dtype=bool)
    valid[:, 0] = True
    last = np.full((batch, width), LABEL_INDEX[OUTSIDE])
    back_steps, label_steps = [], []
    for position in range(1, m + 1):
        allowed = follow[at_predicate[position - 1][:, None], last] & valid[:, :, None]
        extended = score[:, :, None] + logs[position - 1][:, None, :]  # (B, slot, next label)
        # NaN sorts last; the stable sort keeps prefix order among equal scores.
        ranked = np.argsort(np.where(allowed, -extended, np.nan), axis=1, kind="stable")
        parent = ranked[:, :beam_size].reshape(batch, width)
        # Back to prefix order: parent slot first, then the new label. Only
        # valid slots need distinct keys; invalid ones may land anywhere.
        order = np.argsort(parent * num_labels + slot_rank, axis=1)
        parent, new_label = parent[rows, order], slot_label[order]
        picked = parent * num_labels + new_label
        new_score = extended.reshape(batch, -1)[rows, picked]
        new_valid = allowed.reshape(batch, -1)[rows, picked]
        done = (lengths < position)[:, None]
        score = np.where(done, score, new_score)
        valid = np.where(done, valid, new_valid)
        last = np.where(done, last, new_label)
        back_steps.append(parent)
        label_steps.append(last)
    best = np.argsort(np.where(valid, -score, np.nan), axis=1, kind="stable")[:, :beam_size]
    best_score, best_valid = score[rows, best], valid[rows, best]
    chosen = np.zeros((m, batch, beam_size), dtype=np.intp)
    slot = best
    for position in range(m, 0, -1):
        chosen[position - 1] = label_steps[position - 1][rows, slot]
        back = back_steps[position - 1][rows, slot]
        slot = np.where((lengths >= position)[:, None], back, slot)
    names = np.array(LABELS, dtype=object)
    return [
        [TagSequence(labels=tuple(names[chosen[: lengths[b], b, r]]), log_prob=best_score[b, r])
         for r in range(beam_size) if best_valid[b, r]]
        for b in range(batch)
    ]


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def decode_best(items: Sequence[tuple[ParsedSentence, int]], model: TaggerModel
                ) -> Iterator[tuple[int, np.ndarray, TagSequence]]:
    """(index into ``items``, (m, L) label distributions, best sequence) of
    each (sentence, predicate) item, chunk by chunk, so that no more than
    one chunk's arrays are live. The items are stably sorted by sentence
    length and run ``EXTRACT_BATCH`` at a time through one cache-free
    :func:`forward` and one :func:`beam_decode` at width 1 (the decoder is
    exact), so each chunk is padded to little more than its own items. An
    item's distributions match a batch of one up to float rounding."""
    order = sorted(range(len(items)), key=lambda i: len(items[i][0]))
    for start in range(0, len(order), EXTRACT_BATCH):
        picked = order[start : start + EXTRACT_BATCH]
        chunk = [items[i] for i in picked]
        probs, _ = forward(chunk, model)
        lengths = [len(sentence) for sentence, _ in chunk]
        decoded = beam_decode(probs, lengths, [predicate for _, predicate in chunk], 1)
        for b, (i, m, (best,)) in enumerate(zip(picked, lengths, decoded)):
            yield i, probs[:m, b], best


def extract(sentences: Sequence[ParsedSentence], model: TaggerModel,
            table: PatternTable = DEFAULT_TABLE) -> list[Extraction]:
    """Decode one extraction per detected predicate of each sentence, in
    sentence order (dropped when its best sequence has no predicate span),
    through :func:`decode_best`.

    The encoder runs in float32 on a :func:`float32_encoder` copy of the
    parameters made once per call (pretraining batches run the same copy,
    see ``mle.pretrain``); the classifier head, the softmax and the decoder
    run in float64, so no probability underflows to zero that float64
    keeps. ``model`` is not changed. Against a float64 encoder, on the
    benchmark's extract checkpoints at seeds 1-10 (500 held-out sentences
    each), every tuple was identical under both rerank modes and
    confidences moved by at most 2.2e-7; best F1 and AUC were equal.
    Confidences closer than that may swap places in the ranking.

    The confidence is the average-log confidence of the decoded labels
    (``core.spans_from_tags``): the decoder's summed log probability divided
    by the sentence length.
    :func:`oiekit.reward.rerank` replaces it with the semantic-augmented
    confidence.
    """
    items = [(sentence, predicate) for sentence in sentences
             for predicate in identify_predicates(sentence, table)]
    found: list[Optional[Extraction]] = [None] * len(items)
    for i, _, best in decode_best(items, float32_encoder(model)):
        found[i] = spans_from_tags(TaggedInstance(*items[i], best))
    return [extraction for extraction in found if extraction is not None]


# ---------------------------------------------------------------------------
# Checkpointing: one deterministic file, JSON header + raw array bytes
# ---------------------------------------------------------------------------

_FORMAT = "oiekit-checkpoint-2"


def save_model(model: TaggerModel, path) -> None:
    header = {"config": asdict(model.config), "format": _FORMAT, "vocab": model.vocab}
    with atomic_write(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        handle.write(b"\n")
        for name, _ in _param_shapes(model.config, len(model.vocab)):
            handle.write(model.params[name].astype(np.float64, copy=False).tobytes())


def load_model(path) -> TaggerModel:
    """Read a checkpoint written by :func:`save_model`, its arrays laid out by
    :func:`_param_shapes` for its header's config and vocabulary. A header
    that is not a UTF-8 JSON object of this format, lacks a key or holds a
    config :class:`TaggerConfig` refuses (unknown keys included) or a
    vocabulary :class:`TaggerModel` refuses, an array cut short (a config
    or vocabulary larger than the arrays) or holding a NaN or infinity, or
    trailing bytes raise :class:`ParseError` naming ``path``."""
    with open(path, "rb") as handle:
        try:
            header = json.loads(checked_utf8(
                handle.readline().decode("utf-8", "surrogateescape"), 1, path))
            if not isinstance(header, dict):
                raise TypeError("header is not a JSON object")
            if header.get("format") != _FORMAT:
                raise ParseError(f"checkpoint format is not {_FORMAT!r}", path=path)
            model = TaggerModel(TaggerConfig(**header["config"]), header["vocab"], {})
        except (KeyError, TypeError, ValueError, ValidationError) as exc:
            what = f"missing key {exc}" if isinstance(exc, KeyError) else exc
            raise ParseError(f"checkpoint bad header: {what}", path=path) from None
        # A header may ask for more than the file holds: read no more than
        # that, where the file's size is known (a pipe's is not).
        status = os.fstat(handle.fileno())
        left = status.st_size - handle.tell() if stat.S_ISREG(status.st_mode) else math.inf
        for name, shape in _param_shapes(model.config, len(model.vocab)):
            size = 8 * math.prod(shape)
            data = handle.read(min(size, left))
            if len(data) != size:
                raise ParseError(f"checkpoint array {name!r} has {len(data)} of {size} bytes",
                                 path=path)
            left -= size
            array = np.frombuffer(data, np.float64).reshape(shape)
            if not np.isfinite(array).all():
                raise ParseError(f"checkpoint array {name!r} holds a non-finite value", path=path)
            model.params[name] = array.copy()
        if handle.read(1):
            raise ParseError("checkpoint has trailing bytes after the last array", path=path)
    return model
