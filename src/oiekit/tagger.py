"""Predicate-conditioned neural sequence tagger.

Per predicate: embed tokens with a predicate-indicator channel, encode with
stacked bidirectional LSTM layers joined by highway gates, classify each
token over the BIO label set, decode with a constrained beam search, and
score extractions by average log probability. :func:`forward_batch` runs
many (sentence, predicate) items as one right-padded, time-major batch;
:func:`forward` is its batch of one.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, asdict, replace
from typing import Optional, Protocol, Sequence

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

STATIC_LOOKUP = "static-lookup"
EXTERNAL_CONTEXTUAL = "external-contextual"


class ContextualEmbeddingProvider(Protocol):
    """Contract for pluggable contextual embedders: given the sentence
    tokens and the predicate index, return one fixed-width vector per
    token as an (m, width) array."""

    def vectors(self, tokens: Sequence[str], predicate: int) -> np.ndarray: ...


class HashEmbeddingProvider:
    """Deterministic stand-in contextual embedder (for tests and demos):
    vectors are seeded pseudo-random functions of (surface, position,
    predicate). The seed is a BLAKE2b digest, so vectors do not depend on
    the process (``hash()`` of a string changes with PYTHONHASHSEED)."""

    def __init__(self, width: int, seed: int = 0):
        self.width = width
        self.seed = seed

    def vectors(self, tokens: Sequence[str], predicate: int) -> np.ndarray:
        out = np.empty((len(tokens), self.width))
        for pos, surface in enumerate(tokens, start=1):
            digest = hashlib.blake2b(repr((self.seed, surface, pos, predicate)).encode("utf-8"),
                                     digest_size=8).digest()
            key = int.from_bytes(digest, "little")
            out[pos - 1] = np.random.default_rng(key).uniform(-0.1, 0.1, self.width)
        return out


@dataclass(frozen=True)
class TaggerConfig:
    embedding_dim: int = 32
    indicator_dim: int = 8
    hidden_dim: int = 64
    num_encoder_layers: int = 2
    roles: tuple[str, ...] = DEFAULT_ROLES
    rng_seed: int = 13
    embedder_kind: str = STATIC_LOOKUP
    use_indicator: bool = True

    def __post_init__(self):
        object.__setattr__(self, "roles", tuple(self.roles))
        for name in ("embedding_dim", "indicator_dim", "hidden_dim", "num_encoder_layers"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if self.embedder_kind not in (STATIC_LOOKUP, EXTERNAL_CONTEXTUAL):
            raise ValidationError(f"unknown embedder_kind {self.embedder_kind!r}")

    @property
    def labels(self) -> tuple[str, ...]:
        return bio_labels(self.roles)


class TaggerModel:
    """Named-parameter container plus the vocabulary it was built over.

    ``provider`` carries the contextual embedder in external-contextual
    mode; it is supplied at load/construction time and never serialized.
    """

    def __init__(self, config: TaggerConfig, vocab: Sequence[str],
                 params: dict[str, np.ndarray],
                 provider: Optional[ContextualEmbeddingProvider] = None):
        self.config = config
        self.vocab = list(vocab)
        self.word_ids = {word: i for i, word in enumerate(self.vocab)}
        self.params = params
        self.provider = provider

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


def init_model(config: TaggerConfig, vocab: Sequence[str],
               rng: Optional[np.random.Generator] = None,
               provider: Optional[ContextualEmbeddingProvider] = None) -> TaggerModel:
    """Initialize all parameters uniformly in [-0.1, 0.1] from the seeded
    generator (``config.rng_seed`` when ``rng`` is not given)."""
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    h = config.hidden_dim
    in_dim = config.embedding_dim + (config.indicator_dim if config.use_indicator else 0)
    params: dict[str, np.ndarray] = {}

    def uniform(shape):
        return rng.uniform(-0.1, 0.1, shape)

    if config.embedder_kind == STATIC_LOOKUP:
        params["embed.word"] = uniform((len(vocab), config.embedding_dim))
    if config.use_indicator:
        params["embed.indicator"] = uniform((2, config.indicator_dim))
    layer_in = in_dim
    for layer in range(config.num_encoder_layers):
        for direction in ("fw", "bw"):
            params[f"enc.{layer}.{direction}.wx"] = uniform((layer_in, 4 * h))
            params[f"enc.{layer}.{direction}.wh"] = uniform((h, 4 * h))
            params[f"enc.{layer}.{direction}.b"] = uniform(4 * h)
        if layer > 0:
            params[f"enc.{layer}.hw.w"] = uniform((2 * h, 2 * h))
            params[f"enc.{layer}.hw.b"] = uniform(2 * h)
        layer_in = 2 * h
    params["cls.w"] = uniform((2 * h, len(config.labels)))
    params["cls.b"] = uniform(len(config.labels))
    return TaggerModel(config, vocab if config.embedder_kind == STATIC_LOOKUP else [UNK],
                       params, provider)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def embed(sentence: ParsedSentence, predicate: int, model: TaggerModel) -> np.ndarray:
    """Per-token input vectors: word embedding (or provider vector)
    concatenated with the predicate-indicator embedding."""
    return _embed(sentence, predicate, model)[0]


def _embed(sentence: ParsedSentence, predicate: int, model: TaggerModel):
    """(input vectors, word ids, indicator flags); ids and flags are None
    where the model has no table for them to index."""
    cfg = model.config
    if not 1 <= predicate <= len(sentence):
        raise ValidationError(f"predicate {predicate} outside sentence of length {len(sentence)}")
    if cfg.embedder_kind == EXTERNAL_CONTEXTUAL:
        if model.provider is None:
            raise ValidationError("external-contextual model has no embedding provider attached")
        word_vecs = np.asarray(
            model.provider.vectors([t.surface for t in sentence.tokens], predicate), dtype=float
        )
        if word_vecs.shape != (len(sentence), cfg.embedding_dim):
            raise ValidationError(
                f"provider returned shape {word_vecs.shape}, expected "
                f"{(len(sentence), cfg.embedding_dim)}"
            )
        ids = None
    else:
        ids = np.array([model.token_id(t.surface) for t in sentence.tokens])
        word_vecs = model.params["embed.word"][ids]
    if not cfg.use_indicator:
        return word_vecs, ids, None
    flags = np.array([1 if t.index == predicate else 0 for t in sentence.tokens])
    x0 = np.concatenate([word_vecs, model.params["embed.indicator"][flags]], axis=1)
    return x0, ids, flags


def encode(embeddings: np.ndarray, model: TaggerModel) -> np.ndarray:
    """Hidden states of one item's (m, in_dim) embeddings, one per token."""
    return _encode_with_cache(embeddings[:, None], [len(embeddings)], model)[0][:, 0]


def _rows(x: np.ndarray) -> np.ndarray:
    """The (m·B, width) rows of an (m, B, width) array."""
    return x.reshape(-1, x.shape[-1])


def _encode_with_cache(x0: np.ndarray, lengths, model: TaggerModel):
    params = model.params
    layers = []
    x = x0
    for layer in range(model.config.num_encoder_layers):
        prefix = f"enc.{layer}"
        core, caches = nn.bilstm_forward(x, lengths, params, prefix)
        out, gate = core, None
        if layer > 0:
            out, gate = nn.highway_forward(_rows(x), _rows(core), params, prefix)
            out = out.reshape(core.shape)
        layers.append({"x": x, "core": core, "gate": gate, "caches": caches})
        x = out
    return x, layers


def label_distribution(hidden: np.ndarray, model: TaggerModel) -> np.ndarray:
    """Softmax over labels for one hidden vector or a stack of them."""
    logits = hidden @ model.params["cls.w"] + model.params["cls.b"]
    return nn.softmax_rows(logits)


def _pad(arrays: list, m: int) -> Optional[np.ndarray]:
    """Per-item arrays right-padded with zeros and stacked time-major into
    (m, B, ...); None when the items have none. A single item is a view."""
    if arrays[0] is None:
        return None
    if len(arrays) == 1:
        return arrays[0][:, None]
    out = np.zeros((m, len(arrays)) + arrays[0].shape[1:], dtype=arrays[0].dtype)
    for b, arr in enumerate(arrays):
        out[: len(arr), b] = arr
    return out


def forward_batch(items: Sequence[tuple[ParsedSentence, int]], model: TaggerModel):
    """Full pass over (sentence, predicate) items, right-padded to the
    longest sentence m and run as one time-major batch of B items: returns
    ((m, B, L) label distributions, backprop cache). Item ``b`` owns rows
    ``[:len(sentence), b]``; its values do not depend on the other items
    beyond float rounding. The distributions at padded positions mean
    nothing, and their logit gradients must be zero."""
    embedded = [_embed(sentence, predicate, model) for sentence, predicate in items]
    lengths = [len(x) for x, _, _ in embedded]
    m = max(lengths)
    x0, ids, flags = (_pad(list(parts), m) for parts in zip(*embedded))
    h_top, layers = _encode_with_cache(x0, lengths, model)
    probs = label_distribution(_rows(h_top), model).reshape(m, len(items), -1)
    cache = {"layers": layers, "h_top": h_top, "probs": probs,
             "token_ids": ids, "indicator_flags": flags}
    return probs, cache


def forward(sentence: ParsedSentence, predicate: int, model: TaggerModel):
    """One item's pass, as a batch of one: returns ((m, L) per-token label
    distributions, backprop cache)."""
    probs, cache = forward_batch([(sentence, predicate)], model)
    cache["probs"] = probs = probs[:, 0]
    return probs, cache


def backward_from_dlogits(model: TaggerModel, cache, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar with the given logit gradient, for every
    trainable parameter. ``dlogits`` has the shape of the pass's
    probabilities: (m, L) after :func:`forward`, (m, B, L) after
    :func:`forward_batch`, with zero rows at padded positions so that
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
    cfg = model.config
    if cfg.embedder_kind == STATIC_LOOKUP:
        grads["embed.word"] = np.zeros_like(params["embed.word"])
        np.add.at(grads["embed.word"], cache["token_ids"], dx[..., : cfg.embedding_dim])
    if cfg.use_indicator:
        grads["embed.indicator"] = np.zeros_like(params["embed.indicator"])
        np.add.at(grads["embed.indicator"], cache["indicator_flags"], dx[..., cfg.embedding_dim :])
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


def beam_decode(distributions: np.ndarray, beam_size: int, predicate: int,
                labels: tuple[str, ...] = bio_labels()) -> list[TagSequence]:
    """Top ``beam_size`` constraint-satisfying label sequences, best first.

    Scores are summed natural logs of the chosen per-token probabilities;
    ties are broken by lexicographic label order. Hypotheses are grouped by
    their last label (the only state the transition constraints see), with
    a per-group beam, so the result is the exact top-``beam_size`` of the
    full constrained sequence space.
    """
    if beam_size < 1:
        raise ValidationError("beam_size must be >= 1")
    m = distributions.shape[0]
    index = label_index(labels)
    with np.errstate(divide="ignore"):
        logs = np.log(distributions)
    rank = lambda item: (-item[0], item[1])
    states: dict[str, list[tuple[float, tuple[str, ...]]]] = {OUTSIDE: [(0.0, ())]}
    for position in range(1, m + 1):
        expanded: dict[str, list[tuple[float, tuple[str, ...]]]] = {}
        for prev, entries in states.items():
            for label in allowed_labels(prev, position, predicate, labels):
                log_p = logs[position - 1, index[label]]
                bucket = expanded.setdefault(label, [])
                for score, prefix in entries:
                    bucket.append((score + log_p, prefix + (label,)))
        for bucket in expanded.values():
            bucket.sort(key=rank)
            del bucket[beam_size:]
        states = expanded
    final = [entry for bucket in states.values() for entry in bucket]
    final.sort(key=rank)
    return [TagSequence(labels=prefix, log_prob=score) for score, prefix in final[:beam_size]]


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


def confidence_avg_log(tags: TagSequence, distributions: np.ndarray,
                       labels: tuple[str, ...] = bio_labels()) -> float:
    """Average natural-log probability of the chosen labels."""
    if len(tags) != distributions.shape[0]:
        raise ValidationError(
            f"{len(tags)} tags vs {distributions.shape[0]} token distributions"
        )
    index = label_index(labels)
    score = 0.0
    for position, label in enumerate(tags.labels):
        score += math.log(distributions[position, index[label]])
    return score / len(tags)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def extract(sentence: ParsedSentence, model: TaggerModel,
            table: PatternTable = DEFAULT_TABLE,
            sem_scorer=None, rerank: str = "none") -> list[Extraction]:
    """Decode one extraction per detected predicate (dropped when its best
    sequence has no predicate span). The decode keeps only the best
    sequence, and :func:`beam_decode` is exact, so it runs at width 1.

    The confidence is the average-log confidence of the decoded labels
    (:func:`confidence_avg_log`). Reranking replaces it with
    :func:`oiekit.reward.semantic_confidence`, ``c + log(max(sem,
    SEM_FLOOR))``: ``rerank='sem'`` uses ``c = 0.0`` (log semantic score
    alone) and ``rerank='combined'`` the average-log confidence. Both need
    ``sem_scorer``.
    """
    if rerank not in ("none", "sem", "combined"):
        raise ValidationError(f"unknown rerank mode {rerank!r}")
    if rerank != "none" and sem_scorer is None:
        raise ValidationError(f"rerank mode {rerank!r} requires a semantic scorer")
    out = []
    for predicate in identify_predicates(sentence, table):
        probs, _ = forward(sentence, predicate, model)
        best = beam_decode(probs, 1, predicate, model.labels)[0]
        instance = TaggedInstance(sentence=sentence, predicate_index=predicate, tags=best)
        try:
            extraction = spans_from_tags(instance)
        except NoPredicateSpan:
            continue
        confidence = confidence_avg_log(best, probs, model.labels)
        if rerank != "none":
            confidence = semantic_confidence(0.0 if rerank == "sem" else confidence,
                                             sem_scorer.score(extraction, sentence))
        out.append(replace(extraction, confidence=confidence))
    return out


# ---------------------------------------------------------------------------
# Checkpointing: one deterministic file, JSON header + raw array bytes
# ---------------------------------------------------------------------------

_FORMAT = "oiekit-checkpoint-1"


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


def load_model(path, provider: Optional[ContextualEmbeddingProvider] = None) -> TaggerModel:
    """Read a checkpoint written by :func:`save_model`. A malformed header,
    an array cut short, or bytes after the last array raise
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
            config = TaggerConfig(**config_dict)
            arrays = [(entry["name"], np.dtype(entry["dtype"]), tuple(entry["shape"]))
                      for entry in header["arrays"]]
            vocab = header["vocab"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"checkpoint {path}: bad header: {exc!r}") from None
        params = {}
        for name, dtype, shape in arrays:
            count = int(np.prod(shape)) if shape else 1
            size = count * dtype.itemsize
            data = handle.read(size)
            if len(data) != size:
                raise ParseError(f"checkpoint {path}: array {name!r} has "
                                 f"{len(data)} of {size} bytes")
            params[name] = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
        if handle.read(1):
            raise ParseError(f"checkpoint {path}: trailing bytes after the last array")
    return TaggerModel(config, vocab, params, provider)
