"""Predicate-conditioned neural sequence tagger.

Per predicate: embed each token as its word vector concatenated with a
predicate-indicator vector (1 at the predicate, 0 elsewhere), encode with
stacked bidirectional LSTM layers joined by highway gates, classify each
token over the BIO label set, decode with a constrained beam search, and
score extractions by average log probability. :func:`forward` is the one
encoder: it runs (sentence, predicate) items as one right-padded,
time-major batch, and one item is a batch of one. Only training asks it
for the backprop cache (``backprop=True``); inference keeps none.
:func:`beam_decode` is the one decoder: it decodes such a batch in one
vectorised k-best pass. :func:`extract` sorts its items by sentence length
and runs them ``EXTRACT_BATCH`` at a time through both, without the cache.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict, replace
from functools import cache
from typing import Optional, Sequence

import numpy as np

from oiekit import nn
from oiekit.core import (
    DEFAULT_ROLES,
    Extraction,
    NoPredicateSpan,
    OUTSIDE,
    ParsedSentence,
    PREDICATE_ROLE,
    TaggedInstance,
    TagSequence,
    ValidationError,
    bio_labels,
    label_index,
    spans_from_tags,
)
from oiekit.corpus_io import ParseError, atomic_write
from oiekit.patterns import DEFAULT_TABLE, PatternTable, identify_predicates
from oiekit.reward import semantic_confidence

UNK = "<unk>"

# (sentence, predicate) items per extract pass. The pass keeps no backprop
# cache, so a chunk holds a few (m·B, 4H) arrays at a time. On the
# benchmark's extract workload (seed 1: 500 sentences, 617 items, m <= 13)
# a pass at 64 peaks 5.1 MB above its inputs. Against 16, 64 gave 14-20%
# more throughput at seeds 1-3; 128 gave no more, and peak RSS rose about 9%.
EXTRACT_BATCH = 64

@dataclass(frozen=True)
class TaggerConfig:
    embedding_dim: int = 32
    indicator_dim: int = 8
    hidden_dim: int = 64
    num_encoder_layers: int = 2
    roles: tuple[str, ...] = DEFAULT_ROLES
    rng_seed: int = 13

    def __post_init__(self):
        object.__setattr__(self, "roles", tuple(self.roles))
        for name in ("embedding_dim", "indicator_dim", "hidden_dim", "num_encoder_layers"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")

    @property
    def labels(self) -> tuple[str, ...]:
        return bio_labels(self.roles)


class TaggerModel:
    """Named-parameter container plus the vocabulary it was built over:
    ``embed.word`` has one row per vocabulary entry (row 0 for unknown
    words) and ``embed.indicator`` two rows (off, on the predicate)."""

    def __init__(self, config: TaggerConfig, vocab: Sequence[str],
                 params: dict[str, np.ndarray]):
        self.config = config
        self.vocab = list(vocab)
        self.word_ids = {word: i for i, word in enumerate(self.vocab)}
        self.params = params

    @property
    def labels(self) -> tuple[str, ...]:
        return self.config.labels

    def token_id(self, surface: str) -> int:
        return self.word_ids.get(surface, 0)


def build_vocab(instances_or_sentences) -> list[str]:
    """Vocabulary (UNK first) over the surfaces seen in training data."""
    words = []
    seen = set()
    for item in instances_or_sentences:
        sentence = item.sentence if isinstance(item, TaggedInstance) else item
        for tok in sentence.tokens:
            if tok.surface not in seen:
                seen.add(tok.surface)
                words.append(tok.surface)
    return [UNK] + words


def _param_shapes(config: TaggerConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter array, in checkpoint order."""
    h = config.hidden_dim
    shapes: dict[str, tuple[int, ...]] = {
        "embed.word": (vocab_size, config.embedding_dim),
        "embed.indicator": (2, config.indicator_dim),
    }
    layer_in = config.embedding_dim + config.indicator_dim
    for layer in range(config.num_encoder_layers):
        for direction in ("fw", "bw"):
            shapes[f"enc.{layer}.{direction}.wx"] = (layer_in, 4 * h)
            shapes[f"enc.{layer}.{direction}.wh"] = (h, 4 * h)
            shapes[f"enc.{layer}.{direction}.b"] = (4 * h,)
        if layer > 0:
            shapes[f"enc.{layer}.hw.w"] = (2 * h, 2 * h)
            shapes[f"enc.{layer}.hw.b"] = (2 * h,)
        layer_in = 2 * h
    shapes["cls.w"] = (2 * h, len(config.labels))
    shapes["cls.b"] = (len(config.labels),)
    return shapes


def init_model(config: TaggerConfig, vocab: Sequence[str]) -> TaggerModel:
    """Initialize all parameters uniformly in [-0.1, 0.1] from a generator
    seeded with ``config.rng_seed``."""
    rng = np.random.default_rng(config.rng_seed)
    params = {name: rng.uniform(-0.1, 0.1, shape)
              for name, shape in _param_shapes(config, len(vocab)).items()}
    return TaggerModel(config, vocab, params)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def embed(sentence: ParsedSentence, predicate: int, model: TaggerModel) -> np.ndarray:
    """Per-token input vectors, (m, embedding_dim + indicator_dim): each
    token's word embedding concatenated with the indicator embedding of
    whether it is the predicate."""
    return _embed(sentence, predicate, model)[0]


def _embed(sentence: ParsedSentence, predicate: int, model: TaggerModel):
    """(input vectors, word ids, indicator flags)."""
    if not 1 <= predicate <= len(sentence):
        raise ValidationError(f"predicate {predicate} outside sentence of length {len(sentence)}")
    ids = np.array([model.token_id(t.surface) for t in sentence.tokens])
    flags = np.array([1 if t.index == predicate else 0 for t in sentence.tokens])
    x0 = np.concatenate([model.params["embed.word"][ids], model.params["embed.indicator"][flags]],
                        axis=1)
    return x0, ids, flags


def _rows(x: np.ndarray) -> np.ndarray:
    """The (m·B, width) rows of an (m, B, width) array."""
    return x.reshape(-1, x.shape[-1])


def _encode(x0: np.ndarray, lengths, model: TaggerModel, backprop: bool):
    """Top-layer hidden states and, with ``backprop``, each layer's input,
    BiLSTM output, highway gate and LSTM caches (None otherwise, so each
    layer's arrays are freed once the next layer has read them)."""
    params = model.params
    layers = [] if backprop else None
    x = x0
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


def _pad(arrays: list, m: int) -> np.ndarray:
    """Per-item arrays right-padded with zeros and stacked time-major into
    (m, B, ...). A single item is a view."""
    if len(arrays) == 1:
        return arrays[0][:, None]
    out = np.zeros((m, len(arrays)) + arrays[0].shape[1:], dtype=arrays[0].dtype)
    for b, arr in enumerate(arrays):
        out[: len(arr), b] = arr
    return out


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
    embedded = [_embed(sentence, predicate, model) for sentence, predicate in items]
    lengths = [len(x) for x, _, _ in embedded]
    m = max(lengths)
    x0, ids, flags = (_pad(list(parts), m) for parts in zip(*embedded))
    h_top, layers = _encode(x0, lengths, model, backprop)
    logits = _rows(h_top) @ model.params["cls.w"] + model.params["cls.b"]
    probs = nn.softmax_rows(logits).reshape(m, len(items), -1)
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
    padding contributes nothing. Softmax-based callers supply ``probs -
    onehot`` style gradients directly."""
    params = model.params
    grads: dict[str, np.ndarray] = {}
    h_top = cache["h_top"]
    dlogits = dlogits.reshape(-1, dlogits.shape[-1])
    grads["cls.w"] = _rows(h_top).T @ dlogits
    grads["cls.b"] = dlogits.sum(axis=0)
    dx = (dlogits @ params["cls.w"].T).reshape(h_top.shape)
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
    width = model.config.embedding_dim
    grads["embed.word"] = np.zeros_like(params["embed.word"])
    np.add.at(grads["embed.word"], cache["token_ids"], dx[..., :width])
    grads["embed.indicator"] = np.zeros_like(params["embed.indicator"])
    np.add.at(grads["embed.indicator"], cache["indicator_flags"], dx[..., width:])
    return grads


# ---------------------------------------------------------------------------
# Constrained beam decoding
# ---------------------------------------------------------------------------


def allowed_labels(prev: str, position: int, predicate: int,
                   labels: Sequence[str]) -> list[str]:
    """Labels that keep a sequence BIO-valid with the predicate span
    starting exactly at the predicate token."""
    out = []
    prev_role = None if prev == OUTSIDE else prev[2:]
    prev_kind = None if prev == OUTSIDE else prev[0]
    for label in labels:
        if label == OUTSIDE:
            out.append(label)
        elif label.startswith("B-"):
            if label[2:] == PREDICATE_ROLE:
                if position == predicate:
                    out.append(label)
            else:
                out.append(label)
        else:  # I-*
            if prev_kind in ("B", "I") and prev_role == label[2:]:
                out.append(label)
    return out


@cache
def _transitions(labels: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(follow, lex_rank) over label ids, read from :func:`allowed_labels`
    and shared by every caller with the same inventory (read-only).
    ``follow[0][i, j]`` says label j may follow label i away from the
    predicate, ``follow[1][i, j]`` at the predicate position; they differ
    only in the B-P column. ``lex_rank[j]`` is label j's place in string
    order."""
    index = label_index(labels)
    follow = np.zeros((2, len(labels), len(labels)), dtype=bool)
    for i, prev in enumerate(labels):
        for at_predicate, position in ((0, 2), (1, 1)):  # the predicate at position 1
            for label in allowed_labels(prev, position, 1, labels):
                follow[at_predicate, i, index[label]] = True
    lex_rank = np.empty(len(labels), dtype=np.intp)
    lex_rank[sorted(range(len(labels)), key=labels.__getitem__)] = np.arange(len(labels))
    follow.flags.writeable = lex_rank.flags.writeable = False
    return follow, lex_rank


def beam_decode(probs: np.ndarray, lengths: Sequence[int], predicates: Sequence[int],
                beam_size: int, labels: tuple[str, ...] = bio_labels()
                ) -> list[list[TagSequence]]:
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
    follow, lex_rank = _transitions(labels)
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
    last = np.full((batch, width), label_index(labels)[OUTSIDE])
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
    names = np.array(labels, dtype=object)
    return [
        [TagSequence(labels=tuple(names[chosen[: lengths[b], b, r]]), log_prob=best_score[b, r])
         for r in range(beam_size) if best_valid[b, r]]
        for b in range(batch)
    ]


def enumerate_valid_sequences(m: int, predicate: int,
                              labels: Sequence[str] = bio_labels()) -> list[tuple[str, ...]]:
    """Every constraint-satisfying label sequence of length ``m`` (use for
    small ``m`` only)."""
    out: list[tuple[str, ...]] = []

    def extend(prefix: tuple[str, ...]):
        position = len(prefix) + 1
        if position > m:
            out.append(prefix)
            return
        prev = prefix[-1] if prefix else OUTSIDE
        for label in allowed_labels(prev, position, predicate, labels):
            extend(prefix + (label,))

    extend(())
    return out


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def extract(sentences: Sequence[ParsedSentence], model: TaggerModel,
            table: PatternTable = DEFAULT_TABLE,
            sem_scorer=None, rerank: str = "none") -> list[Extraction]:
    """Decode one extraction per detected predicate of each sentence, in
    sentence order (dropped when its best sequence has no predicate span).

    The (sentence, predicate) items are sorted by sentence length (a
    stable sort) and run through :func:`forward`, without the backprop
    cache, in chunks of ``EXTRACT_BATCH``, so each chunk is padded to
    little more than its own items. Each chunk is decoded by one
    :func:`beam_decode` call. Only the best sequence is kept, and the
    decoder is exact, so it runs at width 1. An item's distributions, and
    so its confidence, match a batch of one up to float rounding.

    The confidence is the average-log confidence of the decoded labels: the
    decoder's summed log probability divided by the sentence length.
    Reranking replaces it with
    :func:`oiekit.reward.semantic_confidence`, ``c + log(max(sem,
    SEM_FLOOR))``: ``rerank='sem'`` uses ``c = 0.0`` (log semantic score
    alone) and ``rerank='combined'`` the average-log confidence. Both need
    ``sem_scorer``.
    """
    if rerank not in ("none", "sem", "combined"):
        raise ValidationError(f"unknown rerank mode {rerank!r}")
    if rerank != "none" and sem_scorer is None:
        raise ValidationError(f"rerank mode {rerank!r} requires a semantic scorer")
    items = [(sentence, predicate) for sentence in sentences
             for predicate in identify_predicates(sentence, table)]
    # Chunks of similar lengths waste little on padding; stable, so equal
    # lengths keep their sentence order.
    order = sorted(range(len(items)), key=lambda i: len(items[i][0]))
    found: list[Optional[Extraction]] = [None] * len(items)
    for start in range(0, len(order), EXTRACT_BATCH):
        picked = order[start : start + EXTRACT_BATCH]
        chunk = [items[i] for i in picked]
        probs, _ = forward(chunk, model)
        lengths = [len(sentence) for sentence, _ in chunk]
        decoded = beam_decode(probs, lengths, [predicate for _, predicate in chunk], 1,
                              model.labels)
        for i, (sentence, predicate), (best,) in zip(picked, chunk, decoded):
            instance = TaggedInstance(sentence=sentence, predicate_index=predicate, tags=best)
            try:
                found[i] = spans_from_tags(instance, confidence=best.log_prob / len(best))
            except NoPredicateSpan:
                pass
    out = []
    # Reranked in sentence order: an external scorer is queried in corpus
    # order whatever the chunking.
    for (sentence, _), extraction in zip(items, found):
        if extraction is None:
            continue
        if rerank != "none":
            confidence = 0.0 if rerank == "sem" else extraction.confidence
            extraction = replace(extraction, confidence=semantic_confidence(
                confidence, sem_scorer.score(extraction, sentence)))
        out.append(extraction)
    return out


# ---------------------------------------------------------------------------
# Checkpointing: one deterministic file, JSON header + raw array bytes
# ---------------------------------------------------------------------------

_FORMAT = "oiekit-checkpoint-1"

# Input-layer keys of older headers, with the value naming the one layer built here.
_LEGACY_INPUT_KEYS = {"embedder_kind": "static-lookup", "use_indicator": True}


def save_model(model: TaggerModel, path) -> None:
    manifest = [
        {"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape)}
        for name, arr in model.params.items()
    ]
    header = {
        "format": _FORMAT,
        "config": asdict(model.config),
        "vocab": model.vocab,
        "arrays": manifest,
    }
    with atomic_write(path, "wb") as handle:
        handle.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        handle.write(b"\n")
        for arr in model.params.values():
            handle.write(np.ascontiguousarray(arr).tobytes())


def load_model(path) -> TaggerModel:
    """Read a checkpoint written by :func:`save_model`. A malformed header,
    a legacy input-layer key naming another input layer, an array set or
    shape other than the one :func:`init_model` builds for the header's
    config and vocabulary, an array whose dtype is not float64 (the only
    one written), an array cut short, or bytes after the last array raise
    :class:`ParseError`."""
    with open(path, "rb") as handle:
        try:
            header = json.loads(handle.readline().decode("utf-8"))
            if not isinstance(header, dict):
                raise TypeError("header is not a JSON object")
            if header.get("format") != _FORMAT:
                raise ValidationError(f"not a tagger checkpoint: {path}")
            config_dict = dict(header["config"])
            config_dict["roles"] = tuple(config_dict["roles"])
            # Written before the decoder width left TaggerConfig; nothing reads it.
            config_dict.pop("beam_size", None)
            for key, value in _LEGACY_INPUT_KEYS.items():
                found = config_dict.pop(key, value)
                if found != value:
                    raise ParseError(f"checkpoint {path}: config key {key!r} is "
                                     f"{json.dumps(found)}; only {json.dumps(value)} loads")
            config = TaggerConfig(**config_dict)
            arrays = [(entry["name"], np.dtype(entry["dtype"]), tuple(entry["shape"]))
                      for entry in header["arrays"]]
            vocab = header["vocab"]
            expected = _param_shapes(config, len(vocab))
            names = [name for name, _, _ in arrays]
            if len(names) != len(expected) or set(names) != set(expected):
                raise ValueError(f"arrays {names}, expected {list(expected)} for its config")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"checkpoint {path}: bad header: {exc!r}") from None
        params = {}
        for name, dtype, shape in arrays:
            if shape != expected[name]:
                raise ParseError(f"checkpoint {path}: array {name!r} has shape {list(shape)}, "
                                 f"expected {list(expected[name])} for its config and "
                                 "vocabulary")
            if dtype != np.float64:
                raise ParseError(f"checkpoint {path}: array {name!r} has dtype {dtype}, "
                                 "not float64")
            size = int(np.prod(expected[name])) * dtype.itemsize
            data = handle.read(size)
            if len(data) != size:
                raise ParseError(f"checkpoint {path}: array {name!r} has "
                                 f"{len(data)} of {size} bytes")
            params[name] = np.frombuffer(data, dtype=dtype).reshape(expected[name]).copy()
        if handle.read(1):
            raise ParseError(f"checkpoint {path}: trailing bytes after the last array")
    return TaggerModel(config, vocab, params)
