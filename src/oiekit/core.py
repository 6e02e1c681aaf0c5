"""Shared data model: dependency-parsed sentences, BIO tag sequences over
the one label inventory (:data:`LABELS`: the predicate and three argument
roles), extracted tuples, and the conversions between tag sequences and
spans.

:func:`allowed_labels` is the one BIO rule: which labels may follow a
label, with the predicate span, if any, starting exactly at the predicate
token. The decoder's transition table and the RL sampler read it, and a
:class:`TaggedInstance` holds only tags it allows, so every instance,
whether labelled, read from a file or decoded, is valid from there on.

A value that breaks its type's rule (a parse that is not one tree, say)
raises :class:`ValidationError`; a reader names the file and line
(``corpus_io.ParseError``). All types are immutable values; every
operation here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Mapping, Optional, Sequence

PREDICATE_ROLE = "P"
ARGUMENT_ROLES = ("ARG1", "ARG2", "ARG3")
ROLES = (PREDICATE_ROLE,) + ARGUMENT_ROLES
OUTSIDE = "O"
# The tagger's one label inventory, in classifier-column order (O first,
# then B-/I- per role), and the column of each label (not to be mutated).
LABELS = (OUTSIDE,) + tuple(f"{kind}-{role}" for role in ROLES for kind in "BI")
LABEL_INDEX = {label: i for i, label in enumerate(LABELS)}

Span = tuple[int, int]


class OiekitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(OiekitError):
    """A value violates one of its type invariants."""


class NoPredicateSpan(OiekitError):
    """A tag sequence contains no predicate labels."""


class NonFiniteValue(OiekitError):
    """Training met a non-finite loss or gradient and stops (exit code 3)."""


def allowed_labels(prev: str, position: int, predicate: int) -> list[str]:
    """Labels that keep a sequence BIO-valid with the predicate span
    starting exactly at the predicate token."""
    out = []
    prev_role = None if prev == OUTSIDE else prev[2:]
    prev_kind = None if prev == OUTSIDE else prev[0]
    for label in LABELS:
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
def _follow() -> dict[tuple[str, bool], frozenset[str]]:
    """{(previous label, at the predicate): labels that may come next},
    read from :func:`allowed_labels` once, with the predicate at position 1
    (the rule asks only whether a position is the predicate's). A sequence
    starts after O."""
    return {(prev, at_predicate): frozenset(allowed_labels(prev, 1 if at_predicate else 2, 1))
            for prev in LABELS for at_predicate in (False, True)}


@dataclass(frozen=True)
class Token:
    """One token of a dependency-parsed sentence.

    ``index`` is 1-based; ``head`` is the 1-based index of the governing
    token, with 0 marking the root.
    """

    index: int
    surface: str
    upos: str
    head: int
    deprel: str

    def __post_init__(self):
        # type(), not isinstance: a bool is an int, and a float index breaks lookups later.
        if not (type(self.index) is type(self.head) is int
                and type(self.surface) is type(self.upos) is type(self.deprel) is str):
            for name, kind in (("index", int), ("surface", str), ("upos", str), ("head", int),
                               ("deprel", str)):
                if type(getattr(self, name)) is not kind:
                    raise ValidationError(f"token {name} must be of type {kind.__name__}, "
                                          f"got {getattr(self, name)!r}")
        if self.index < 1:
            raise ValidationError(f"token index must be >= 1, got {self.index}")
        if self.head < 0:
            raise ValidationError(f"token head must be >= 0, got {self.head}")
        if self.head == self.index:
            raise ValidationError(f"token {self.index} is its own head")


@dataclass(frozen=True)
class ParsedSentence:
    sentence_id: str
    tokens: tuple[Token, ...]
    text: str = ""

    def __post_init__(self):
        for name, value in (("sentence_id", self.sentence_id), ("text", self.text)):
            if type(value) is not str:
                raise ValidationError(f"sentence {name} must be of type str, got {value!r}")
        object.__setattr__(self, "tokens", tuple(self.tokens))
        problem = self._problem()
        if problem is not None:
            raise ValidationError(f"sentence {self.sentence_id!r}: {problem}")
        if not self.text:
            object.__setattr__(self, "text", " ".join(t.surface for t in self.tokens))

    def _problem(self) -> Optional[str]:
        """Why the tokens are not one tree over indices 1..m in order, if they are not."""
        m = len(self.tokens)
        if not m:
            return "no tokens"
        for pos, tok in enumerate(self.tokens, start=1):
            if tok.index != pos:
                return (f"token index {tok.index} at position {pos} (indices must be 1..{m} "
                        "in order)")
            if tok.head > m:
                return f"token {tok.index} has head {tok.head} beyond sentence length {m}"
        roots = [t.index for t in self.tokens if t.head == 0]
        if len(roots) != 1:
            return f"expected exactly one root, found {len(roots)}"
        for tok in self.tokens:
            seen, cur = set(), tok.index
            while cur != 0:
                if cur in seen:
                    return f"cycle through token {cur}"
                seen.add(cur)
                cur = self.tokens[cur - 1].head
        return None

    def __len__(self) -> int:
        return len(self.tokens)

    def token(self, index: int) -> Token:
        return self.tokens[index - 1]

    @cached_property
    def _children(self) -> dict[int, tuple[int, ...]]:
        kids: dict[int, list[int]] = {}
        for tok in self.tokens:
            kids.setdefault(tok.head, []).append(tok.index)
        return {h: tuple(c) for h, c in kids.items()}

    def children_of(self, index: int) -> tuple[int, ...]:
        """Indices of direct dependents of ``index``, in surface order."""
        return self._children.get(index, ())

    def subtree(self, index: int) -> tuple[int, ...]:
        """All indices in the dependency subtree rooted at ``index``, sorted."""
        out = []
        stack = [index]
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(self.children_of(cur))
        return tuple(sorted(out))


@dataclass(frozen=True)
class TagSequence:
    """A BIO label sequence, optionally with its model log probability."""

    labels: tuple[str, ...]
    log_prob: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class TaggedInstance:
    """A sentence, a predicate position, and the tags for that predicate.

    The tags must follow :func:`allowed_labels`: known labels only, each
    I-X continuing a B-X/I-X run, and at most one P span, starting at the
    predicate. A sequence without a P span is valid.
    """

    sentence: ParsedSentence
    predicate_index: int
    tags: TagSequence

    def __post_init__(self):
        m = len(self.sentence)
        if len(self.tags) != m:
            raise ValidationError(
                f"instance for {self.sentence.sentence_id!r}: {len(self.tags)} "
                f"tags for {m} tokens"
            )
        if not 1 <= self.predicate_index <= m:
            raise ValidationError(
                f"predicate index {self.predicate_index} outside sentence "
                f"{self.sentence.sentence_id!r}"
            )
        follow = _follow()
        prev = OUTSIDE
        for pos, label in enumerate(self.tags.labels, start=1):
            if label not in follow[prev, pos == self.predicate_index]:
                reason = (f"unknown label {label!r}" if label not in LABEL_INDEX else
                          f"{label} may not follow {prev} with the predicate at "
                          f"{self.predicate_index}")
                raise ValidationError(
                    f"instance for {self.sentence.sentence_id!r}: position {pos}: {reason}"
                )
            prev = label


@dataclass(frozen=True)
class Extraction:
    """A predicate span plus role-labelled argument spans with a confidence."""

    sentence_id: str
    predicate_span: Span
    role_spans: Mapping[str, Span]
    confidence: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "role_spans", dict(self.role_spans))
        spans = [("P", self.predicate_span)] + sorted(self.role_spans.items())
        for role, (start, end) in spans:
            if start < 1 or end < start:
                raise ValidationError(f"{role} span [{start}, {end}] is invalid")
        for i, (role_a, span_a) in enumerate(spans):
            for role_b, span_b in spans[i + 1 :]:
                if span_a[0] <= span_b[1] and span_b[0] <= span_a[1]:
                    raise ValidationError(
                        f"{role_a} span {span_a} overlaps {role_b} span {span_b}"
                    )


def _runs(labels: Sequence[str]) -> list[tuple[str, Span]]:
    """Maximal (role, span) runs of a valid sequence, in order of appearance."""
    runs = []
    pos = 1
    n = len(labels)
    while pos <= n:
        if not labels[pos - 1].startswith("B-"):
            pos += 1
            continue
        role = labels[pos - 1][2:]
        end = pos
        while end + 1 <= n and labels[end] == f"I-{role}":
            end += 1
        runs.append((role, (pos, end)))
        pos = end + 1
    return runs


def _distance_to_span(start: int, span: Span) -> int:
    if start < span[0]:
        return span[0] - start
    if start > span[1]:
        return start - span[1]
    return 0


def spans_from_tags(instance: TaggedInstance) -> Extraction:
    """Turn a tagged instance into an extraction.

    Each maximal B-X/I-X run becomes one span. When several runs share a
    role, the run whose start is nearest the predicate span wins (earlier
    run on ties); the rest are dropped. The confidence is the average-log
    confidence of the tags, their log probability divided by their length,
    or 0.0 for tags without a log probability.
    """
    runs = _runs(instance.tags.labels)
    predicate_span = None
    by_role: dict[str, list[Span]] = {}
    for role, span in runs:
        if role == PREDICATE_ROLE:
            predicate_span = span
        else:
            by_role.setdefault(role, []).append(span)
    if predicate_span is None:
        raise NoPredicateSpan(
            f"no predicate labels for {instance.sentence.sentence_id!r}"
        )
    role_spans = {}
    for role, spans in by_role.items():
        best = min(spans, key=lambda s: (_distance_to_span(s[0], predicate_span), s[0]))
        role_spans[role] = best
    tags = instance.tags
    return Extraction(
        sentence_id=instance.sentence.sentence_id,
        predicate_span=predicate_span,
        role_spans=role_spans,
        confidence=0.0 if tags.log_prob is None else tags.log_prob / len(tags),
    )


def span_head(sentence: ParsedSentence, span: Span) -> int:
    """Index of the first token in ``span`` whose head lies outside it.

    For a span covering a dependency subtree this is the subtree root.
    """
    start, end = span
    for idx in range(start, end + 1):
        head = sentence.token(idx).head
        if head == 0 or head < start or head > end:
            return idx
    return start
