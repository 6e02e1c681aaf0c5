"""Goodness of an extraction: a hard syntactic headword constraint, a soft
semantic consistency score, their product as the training reward, and the
semantic-augmented confidence used for ranking.

The default semantic scorer is a surrogate that measures role completeness
only; an entailment model comes in only through an ``adapter:`` scorer."""

from __future__ import annotations

import json
import logging
import math
import urllib.parse
from dataclasses import dataclass, replace
from typing import Optional, Protocol, Sequence

from oiekit.core import (
    Extraction,
    ParsedSentence,
    PREDICATE_ROLE,
    ValidationError,
)
from oiekit.corpus_io import read_jsonl, write_jsonl
from oiekit.patterns import DEFAULT_TABLE, PatternTable

log = logging.getLogger(__name__)

SEM_FLOOR = 1e-12

# Roles whose filled share is the surrogate scorer's score.
_CORE_ROLES = ("ARG1", PREDICATE_ROLE, "ARG2")


@dataclass(frozen=True)
class RewardBreakdown:
    """Syntactic score (+1/-1), semantic score in [0, 1], and their product."""

    syn: int
    sem: float
    total: float


def combined_reward(syn: int, sem: float) -> RewardBreakdown:
    return RewardBreakdown(syn=syn, sem=sem, total=syn * sem)


def _attachment_targets(sentence: ParsedSentence, verb: int) -> set[int]:
    """The verb plus its chain of conjunction heads.

    Arguments shared across coordinated verbs attach to the first conjunct,
    so a verb deeper in the chain accepts headwords governed by any verb
    above it. The first conjunct never inherits from the verbs below it.
    """
    targets = {verb}
    cur = verb
    while sentence.token(cur).deprel == "conj":
        cur = sentence.token(cur).head
        if cur == 0 or cur in targets:
            break
        targets.add(cur)
    return targets


def syn_score(extraction: Extraction, sentence: ParsedSentence,
              table: PatternTable = DEFAULT_TABLE) -> int:
    """+1 iff the predicate span contains a predicate-POS token v and every
    emitted argument span contains a token attached to v (or to a
    conjunction head of v) via one of its role's relations; -1 otherwise.
    """
    start, end = extraction.predicate_span
    verbs = [i for i in range(start, end + 1) if sentence.token(i).upos in table.predicate_pos]
    for verb in verbs:
        targets = _attachment_targets(sentence, verb)
        ok = True
        for role, (span_start, span_end) in extraction.role_spans.items():
            relations = table.role_patterns.get(role, frozenset())
            found = False
            for idx in range(span_start, span_end + 1):
                tok = sentence.token(idx)
                if tok.deprel in relations and tok.head in targets:
                    found = True
                    break
            if not found:
                ok = False
                break
        if ok:
            return 1
    return -1


def verbalize(extraction: Extraction, sentence: ParsedSentence) -> str:
    """Role-ordered surface form of the tuple: ARG1 P ARG2 ARG3."""
    parts = []
    spans = dict(extraction.role_spans)
    spans[PREDICATE_ROLE] = extraction.predicate_span
    for role in ("ARG1", PREDICATE_ROLE, "ARG2", "ARG3"):
        if role not in spans:
            continue
        start, end = spans[role]
        parts.extend(sentence.token(i).surface for i in range(start, end + 1))
    return " ".join(parts)


def sem_score_surrogate(extraction: Extraction, sentence: ParsedSentence) -> float:
    """Role completeness: the filled share of the core roles (ARG1, P,
    ARG2), one of 1/3, 2/3 or 1. It reads no words, so it says nothing
    about entailment; ``sentence`` keeps the signature of the scorers."""
    filled = sum(
        1 for role in _CORE_ROLES
        if role == PREDICATE_ROLE or role in extraction.role_spans
    )
    return filled / len(_CORE_ROLES)


def semantic_confidence(c: float, sem: float) -> float:
    """Ranking confidence: ``c`` plus log semantic score (the semantic
    score is floored at SEM_FLOOR to avoid -inf). ``c`` is the average-log
    confidence, or 0.0 to rank by the semantic score alone."""
    return c + math.log(max(sem, SEM_FLOOR))


def rerank(extractions: Sequence[Extraction], sentences: Sequence[ParsedSentence],
           scorer: SemScorer, combined: bool) -> list[Extraction]:
    """The extractions with :func:`semantic_confidence` as confidence: ``c``
    is their own when ``combined``, else 0.0. Each is scored with the sentence
    of its ``sentence_id`` in the given order (``tagger.extract``'s output is
    in corpus order, and so are an external scorer's queries)."""
    by_id = {sentence.sentence_id: sentence for sentence in sentences}
    return [replace(e, confidence=semantic_confidence(e.confidence if combined else 0.0,
                                                      scorer.score(e, by_id[e.sentence_id])))
            for e in extractions]


# ---------------------------------------------------------------------------
# Pluggable entailment scorers
# ---------------------------------------------------------------------------


class EntailmentScorer(Protocol):
    """Contract for external scorers: probability in [0, 1] that the
    premise entails the hypothesis, deterministic per pair."""

    def score(self, premise: str, hypothesis: str) -> float: ...


class HttpEntailmentAdapter:
    """Entailment scorer backed by an HTTP service.

    POSTs ``{"premise": ..., "hypothesis": ...}`` as JSON and expects
    ``{"score": p}`` back. HTTP and connection failures raise ``OSError``
    (``urllib.error.URLError``); a reply without a numeric score in [0, 1]
    raises ValidationError.
    """

    def __init__(self, endpoint: str, timeout: float = 30.0):
        # urllib also opens file: and ftp: URLs; only HTTP services score.
        if urllib.parse.urlsplit(endpoint).scheme not in ("http", "https"):
            raise ValidationError(f"adapter endpoint must be an http(s) URL, got {endpoint!r}")
        self.endpoint = endpoint
        self.timeout = timeout

    def score(self, premise: str, hypothesis: str) -> float:
        # Imported here: it loads http.client, ssl and email, which only
        # this adapter needs.
        import urllib.request

        request = urllib.request.Request(
            self.endpoint,
            data=json.dumps({"premise": premise, "hypothesis": hypothesis}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            body = response.read()
        try:
            return _checked_score(json.loads(body)["score"])
        except (KeyError, TypeError, ValueError):
            raise ValidationError(
                f"adapter reply has no numeric 'score': {body[:200]!r}") from None


def _checked_score(value) -> float:
    """``value`` as a float; ValidationError unless it is a number in
    [0, 1] (NaN is not)."""
    try:
        score = float(value)
    except (TypeError, ValueError):
        score = math.nan
    if not 0.0 <= score <= 1.0:
        raise ValidationError(f"score {value!r} is not a number in [0, 1]")
    return score


def _cache_entry(record: dict) -> tuple[tuple[str, str], float]:
    return (record["sentence_id"], record["hypothesis"]), _checked_score(record["score"])


class SemScorer:
    """Semantic-consistency scorer for extractions.

    Without an ``adapter`` it is the role-completeness surrogate
    (:func:`sem_score_surrogate`), which consults no entailment model. Only
    with one does it verbalize the tuple and ask an external
    :class:`EntailmentScorer`, caching results by (sentence id,
    verbalized tuple). The cache persists as a JSON-lines file of
    ``{"sentence_id", "hypothesis", "score"}`` records, and a cached score
    follows the reply's rule (a number in [0, 1]). It is not guarded by a
    lock: oiekit scores on one thread.
    """

    def __init__(self, adapter: Optional[EntailmentScorer] = None, cache_path=None):
        self.adapter = adapter
        self.cache_path = cache_path
        self._cache: dict[tuple[str, str], float] = {}
        if cache_path is not None:
            try:
                self._cache = dict(read_jsonl(cache_path, _cache_entry))
            except FileNotFoundError:
                pass

    def save_cache(self):
        if self.cache_path is not None:
            write_jsonl(({"sentence_id": sid, "hypothesis": hypothesis, "score": value}
                         for (sid, hypothesis), value in sorted(self._cache.items())),
                        self.cache_path)

    def score(self, extraction: Extraction, sentence: ParsedSentence) -> float:
        if self.adapter is None:
            return sem_score_surrogate(extraction, sentence)
        hypothesis = verbalize(extraction, sentence)
        key = (sentence.sentence_id, hypothesis)
        if key in self._cache:
            return self._cache[key]
        value = self.adapter.score(sentence.text, hypothesis)
        self._cache[key] = value
        return value


def make_sem_scorer(spec: str, cache_path=None) -> SemScorer:
    """Build a scorer from a CLI-style spec: ``surrogate`` or
    ``adapter:<endpoint-url>``."""
    if spec == "surrogate":
        return SemScorer()
    if spec.startswith("adapter:"):
        return SemScorer(HttpEntailmentAdapter(spec[len("adapter:"):]), cache_path=cache_path)
    raise ValidationError(f"unknown scorer spec {spec!r}")
