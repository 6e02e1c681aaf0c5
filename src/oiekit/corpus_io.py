"""Corpus input/output and the package's plain-text formats: CoNLL-U
parses, gold tuples (TSV), JSON-lines records, ``key = value`` files, and a
deterministic synthetic corpus generator.

JSON-lines files (extractions, tagged instances, training metrics) hold one
JSON object per line with sorted keys; every one is written by
:func:`write_jsonl` and read by :func:`read_jsonl`. ``key = value`` files
(command configs and pattern tables) are read by :func:`read_key_values`.
Every file the package writes goes through :func:`atomic_write`, so an
interrupted write leaves the previous file in place.
"""

from __future__ import annotations

import json
import logging
import os
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, TypeVar

import numpy as np

from oiekit.core import (
    Extraction,
    NonTreeParse,
    OiekitError,
    ParsedSentence,
    TaggedInstance,
    TagSequence,
    Token,
    ValidationError,
)

log = logging.getLogger(__name__)

T = TypeVar("T")

# CoNLL-U column layout.
ID, FORM, LEMMA, UPOS, XPOS, FEATS, HEAD, DEPREL, DEPS, MISC = range(10)


class ParseError(OiekitError):
    """Malformed input data; carries the offending line number when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def read_key_values(path) -> dict[str, str]:
    """Plain ``key = value`` file: one pair per line, blank lines and ``#``
    comments skipped, keys and values stripped, later keys win."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ParseError("expected 'key = value'", line_no)
            values[key.strip()] = value.strip()
    return values


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Handle on a temporary file beside ``path`` that replaces it when the
    block ends; if the block raises, ``path`` keeps its old contents and the
    temporary file is removed. Links are followed; a path that exists but
    is not a regular file (``/dev/null``, a pipe) is written in place."""
    encoding = None if "b" in mode else "utf-8"
    # Tested on the path as given: the real path of a pipe is "pipe:[N]".
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, mode, encoding=encoding) as handle:
            yield handle
        return
    target = os.path.realpath(path)
    temporary = f"{target}.{uuid.uuid4().hex[:12]}.tmp"
    try:
        with open(temporary, mode.replace("w", "x"), encoding=encoding) as handle:
            yield handle
        os.replace(temporary, target)
    except BaseException:
        if os.path.exists(temporary):
            os.unlink(temporary)
        raise


def write_jsonl(records: Iterable[dict], path) -> None:
    """One JSON object per line, keys sorted."""
    with atomic_write(path) as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")


def read_jsonl(path, parse: Callable[[dict], T]) -> list[T]:
    """``parse`` applied to the JSON object on each non-blank line. A line
    that is not a JSON object, or whose object ``parse`` rejects (a
    KeyError, TypeError, ValueError or :class:`OiekitError`), raises
    :class:`ParseError` with its line number."""
    out = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise TypeError(f"expected a JSON object, got {type(record).__name__}")
                out.append(parse(record))
            except (KeyError, TypeError, ValueError, OiekitError) as exc:
                raise ParseError(f"bad record: {exc!r}", line_no) from None
    return out


@dataclass(frozen=True)
class GoldTuple:
    """A reference tuple identified by syntactic head indices.

    ``surfaces`` holds display strings per role and never affects matching.
    """

    sentence_id: str
    predicate_head: int
    role_heads: Mapping[str, int]
    surfaces: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "role_heads", dict(self.role_heads))
        object.__setattr__(self, "surfaces", dict(self.surfaces))


# ---------------------------------------------------------------------------
# CoNLL-U
# ---------------------------------------------------------------------------


def read_conllu(path) -> list[ParsedSentence]:
    """Read a CoNLL-U file into parsed sentences.

    Uses the ID, FORM, UPOS, HEAD and DEPREL columns. Multiword-token
    ranges (IDs like ``3-4``) and empty nodes (IDs like ``3.1``) are
    skipped. ``# sent_id = ...`` comments name the sentence when present;
    the n-th sentence without one is named ``s{n}``. A sentence id that an
    earlier sentence already has, given or generated, raises
    :class:`ParseError` at the line that ends the second sentence.
    """
    sentences = []
    ends: dict[str, int] = {}  # sentence id -> line that ended it
    tokens: list[Token] = []
    sent_id: Optional[str] = None
    text = ""

    def flush(line_no):
        nonlocal tokens, sent_id, text
        if not tokens:
            return
        sid = sent_id if sent_id is not None else f"s{len(sentences) + 1}"
        if sid in ends:
            raise ParseError(f"sentence id {sid!r} repeats the sentence ending at line "
                             f"{ends[sid]}", line_no)
        ends[sid] = line_no
        try:
            sentences.append(ParsedSentence(sentence_id=sid, tokens=tuple(tokens), text=text))
        except OiekitError as exc:
            raise type(exc)(f"sentence ending at line {line_no}: {exc}") from exc
        tokens = []
        sent_id = None
        text = ""

    with open(path, "r", encoding="utf-8") as handle:
        line_no = 0
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                flush(line_no)
                continue
            if line.startswith("#"):
                comment = line[1:].strip()
                if comment.startswith("sent_id"):
                    _, _, value = comment.partition("=")
                    sent_id = value.strip()
                elif comment.startswith("text"):
                    _, _, value = comment.partition("=")
                    text = value.strip()
                continue
            cols = line.split("\t")
            if len(cols) != 10:
                raise ParseError(f"expected 10 tab-separated columns, got {len(cols)}", line_no)
            if "-" in cols[ID] or "." in cols[ID]:
                continue
            try:
                index = int(cols[ID])
                head = int(cols[HEAD])
            except ValueError:
                raise ParseError(f"non-integer ID or HEAD in {cols[ID]!r}/{cols[HEAD]!r}", line_no)
            if head == index:
                raise NonTreeParse(f"line {line_no}: token {index} is its own head")
            try:
                tokens.append(
                    Token(index=index, surface=cols[FORM], upos=cols[UPOS], head=head, deprel=cols[DEPREL])
                )
            except OiekitError as exc:
                raise type(exc)(f"line {line_no}: {exc}") from exc
        flush(line_no)
    return sentences


def _conllu_block(sent: ParsedSentence) -> str:
    """The sentence's lines; ValidationError unless :func:`read_conllu`
    would read them back as written."""
    lines = [f"# sent_id = {sent.sentence_id}", f"# text = {sent.text}"] + [
        f"{tok.index}\t{tok.surface}\t_\t{tok.upos}\t_\t_\t{tok.head}\t{tok.deprel}\t_\t_"
        for tok in sent.tokens]
    block = "\n".join(lines) + "\n\n"
    if ("\r" in block or block.count("\n") != len(lines) + 1
            or block.count("\t") != 9 * len(sent.tokens)
            or sent.sentence_id != sent.sentence_id.strip() or sent.text != sent.text.strip()):
        raise ValidationError(f"sentence {sent.sentence_id!r} would not read back as written")
    return block


def write_conllu(sentences: Iterable[ParsedSentence], path) -> None:
    """Raises ValidationError, before anything is written, on a sentence
    with a tab or line break in any field or whitespace around its id or
    text, or with the id of an earlier sentence, so that
    :func:`read_conllu` reads back what was written."""
    blocks, seen = [], set()
    for sent in sentences:
        if sent.sentence_id in seen:
            raise ValidationError(f"sentence id {sent.sentence_id!r} repeats an earlier one")
        seen.add(sent.sentence_id)
        blocks.append(_conllu_block(sent))
    with atomic_write(path) as handle:
        handle.writelines(blocks)


# ---------------------------------------------------------------------------
# Gold tuples (TSV, one row per role filler)
# ---------------------------------------------------------------------------


def read_gold(path, sentences: Optional[Mapping[str, ParsedSentence]] = None) -> list[GoldTuple]:
    """Read a gold TSV with columns
    ``sentence_id  predicate_head  role  role_head  [surface]``.

    Rows are grouped by (sentence_id, predicate_head). When ``sentences``
    is given, rows referencing unknown sentence ids are reported and
    skipped, and out-of-bounds head indices raise :class:`ParseError`.
    """
    grouped: dict[tuple[str, int], dict] = {}
    order: list[tuple[str, int]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            cols = line.split("\t")
            if len(cols) < 4:
                raise ParseError("expected at least 4 tab-separated columns", line_no)
            sid, pred_raw, role, head_raw = cols[0], cols[1], cols[2], cols[3]
            surface = cols[4] if len(cols) > 4 else ""
            try:
                pred_head = int(pred_raw)
                role_head = int(head_raw)
            except ValueError:
                raise ParseError(f"non-integer head index in {pred_raw!r}/{head_raw!r}", line_no)
            if sentences is not None:
                if sid not in sentences:
                    log.warning("gold line %d references unknown sentence %r; skipped", line_no, sid)
                    continue
                m = len(sentences[sid])
                if not (1 <= pred_head <= m) or not (1 <= role_head <= m):
                    raise ParseError(f"head index outside sentence {sid!r} of length {m}", line_no)
            key = (sid, pred_head)
            if key not in grouped:
                grouped[key] = {"role_heads": {}, "surfaces": {}}
                order.append(key)
            if role in grouped[key]["role_heads"]:
                raise ParseError(f"duplicate role {role!r} for predicate {pred_head} in {sid!r}", line_no)
            grouped[key]["role_heads"][role] = role_head
            if surface:
                grouped[key]["surfaces"][role] = surface
    return [
        GoldTuple(sentence_id=sid, predicate_head=pred, role_heads=grouped[(sid, pred)]["role_heads"],
                  surfaces=grouped[(sid, pred)]["surfaces"])
        for sid, pred in order
    ]


def write_gold(golds: Iterable[GoldTuple], path) -> None:
    """One row per role head, with its surface when non-empty (the file
    keeps no other surfaces). A tuple that :func:`read_gold` would not read
    back raises ValidationError before anything is written: a tab or line
    break in a field, a sentence id starting with ``#`` (a comment), no
    roles, or the (sentence id, predicate head) of an earlier tuple."""
    blocks, seen = [], set()
    for gold in golds:
        key, rows = (gold.sentence_id, gold.predicate_head), len(gold.role_heads)
        block = "".join(f"{key[0]}\t{key[1]}\t{role}\t{head}\t{gold.surfaces.get(role, '')}\n"
                        for role, head in gold.role_heads.items())
        if ("\r" in block or block.count("\n") != rows or block.count("\t") != 4 * rows
                or not rows or key in seen or gold.sentence_id.startswith("#")):
            raise ValidationError(f"gold tuple {key} would not read back as written")
        seen.add(key)
        blocks.append(block)
    with atomic_write(path) as handle:
        handle.writelines(blocks)


# ---------------------------------------------------------------------------
# Extraction files (JSON lines)
# ---------------------------------------------------------------------------


def extraction_to_dict(extraction: Extraction) -> dict:
    return {
        "sentence_id": extraction.sentence_id,
        "predicate_span": list(extraction.predicate_span),
        "role_spans": {role: list(span) for role, span in sorted(extraction.role_spans.items())},
        "confidence": extraction.confidence,
    }


def extraction_from_dict(record: dict) -> Extraction:
    return Extraction(
        sentence_id=record["sentence_id"],
        predicate_span=tuple(record["predicate_span"]),
        role_spans={role: tuple(span) for role, span in record["role_spans"].items()},
        confidence=record["confidence"],
    )


def write_extractions(extractions: Iterable[Extraction], path) -> None:
    write_jsonl((extraction_to_dict(e) for e in extractions), path)


def read_extractions(path) -> list[Extraction]:
    return read_jsonl(path, extraction_from_dict)


# ---------------------------------------------------------------------------
# Tagged-instance files (JSON lines, parses embedded)
# ---------------------------------------------------------------------------


def sentence_to_dict(sentence: ParsedSentence) -> dict:
    return {
        "sentence_id": sentence.sentence_id,
        "text": sentence.text,
        "tokens": [
            {"index": t.index, "surface": t.surface, "upos": t.upos, "head": t.head, "deprel": t.deprel}
            for t in sentence.tokens
        ],
    }


def sentence_from_dict(record: dict) -> ParsedSentence:
    return ParsedSentence(
        sentence_id=record["sentence_id"],
        tokens=tuple(Token(**tok) for tok in record["tokens"]),
        text=record.get("text", ""),
    )


def _instance_from_dict(record: dict) -> TaggedInstance:
    return TaggedInstance(
        sentence=sentence_from_dict(record["sentence"]),
        predicate_index=record["predicate_index"],
        tags=TagSequence(tuple(record["labels"])),
    )


def write_instances(instances: Iterable[TaggedInstance], path) -> None:
    write_jsonl(({"sentence": sentence_to_dict(inst.sentence),
                  "predicate_index": inst.predicate_index,
                  "labels": list(inst.tags.labels)} for inst in instances), path)


def read_instances(path) -> list[TaggedInstance]:
    return read_jsonl(path, _instance_from_dict)


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------

_NOUNS = (
    "farmer", "cat", "dog", "teacher", "student", "piano", "garden", "letter",
    "coach", "robot", "driver", "nurse", "painter", "violin", "ball", "book",
    "singer", "pilot", "horse", "wagon", "baker", "kite", "poem", "engine",
)
_VERBS = (
    "feeds", "walks", "paints", "carries", "greets", "teaches", "lifts",
    "repairs", "watches", "praises", "pushes", "holds", "draws", "cleans",
    "guards", "follows",
)
_DITRANS_VERBS = ("gives", "sends", "offers", "shows", "brings", "hands")
_ADJECTIVES = ("old", "young", "tall", "small", "happy", "clever", "tired", "busy")
_PLACES = ("barn", "park", "school", "yard", "hall", "field", "cafe", "tower")
_PREPOSITIONS = ("in", "near", "behind", "beside")


class _Node:
    __slots__ = ("surface", "upos", "deprel", "parent", "index")

    def __init__(self, surface, upos, deprel, parent):
        self.surface = surface
        self.upos = upos
        self.deprel = deprel
        self.parent = parent
        self.index = 0


def _noun_phrase(rng: np.random.Generator, noun: str, deprel: str, parent: Optional[_Node]):
    """Determiner [adjective] noun, returning (nodes, head node)."""
    head = _Node(noun, "NOUN", deprel, parent)
    nodes = [_Node(str(rng.choice(["the", "a"])), "DET", "det", head)]
    if rng.random() < 0.3:
        nodes.append(_Node(str(rng.choice(_ADJECTIVES)), "ADJ", "amod", head))
    nodes.append(head)
    return nodes, head


def _realize(sentence_id: str, nodes: list[_Node]) -> ParsedSentence:
    for pos, node in enumerate(nodes, start=1):
        node.index = pos
    tokens = tuple(
        Token(
            index=node.index,
            surface=node.surface,
            upos=node.upos,
            head=node.parent.index if node.parent is not None else 0,
            deprel=node.deprel,
        )
        for node in nodes
    )
    return ParsedSentence(sentence_id=sentence_id, tokens=tokens)


def _sample_nouns(rng, pool, k):
    picks = rng.choice(len(pool), size=k, replace=False)
    return [pool[int(i)] for i in picks]


def _build_svo(rng, sentence_id):
    n1, n2 = _sample_nouns(rng, _NOUNS, 2)
    verb = _Node(str(rng.choice(_VERBS)), "VERB", "root", None)
    subj_nodes, subj = _noun_phrase(rng, n1, "nsubj", verb)
    obj_nodes, obj = _noun_phrase(rng, n2, "obj", verb)
    nodes = subj_nodes + [verb] + obj_nodes + [_Node(".", "PUNCT", "punct", verb)]
    sent = _realize(sentence_id, nodes)
    gold = [GoldTuple(sentence_id, verb.index,
                      {"ARG1": subj.index, "ARG2": obj.index},
                      {"P": verb.surface, "ARG1": subj.surface, "ARG2": obj.surface})]
    return sent, gold


def _build_svo_pp(rng, sentence_id):
    n1, n2 = _sample_nouns(rng, _NOUNS, 2)
    verb = _Node(str(rng.choice(_VERBS)), "VERB", "root", None)
    subj_nodes, subj = _noun_phrase(rng, n1, "nsubj", verb)
    obj_nodes, obj = _noun_phrase(rng, n2, "obj", verb)
    # The place phrase modifies the object noun, keeping its subtree intact.
    place = _Node(str(rng.choice(_PLACES)), "NOUN", "nmod", obj)
    prep = _Node(str(rng.choice(_PREPOSITIONS)), "ADP", "case", place)
    det = _Node("the", "DET", "det", place)
    nodes = subj_nodes + [verb] + obj_nodes + [prep, det, place, _Node(".", "PUNCT", "punct", verb)]
    sent = _realize(sentence_id, nodes)
    gold = [GoldTuple(sentence_id, verb.index,
                      {"ARG1": subj.index, "ARG2": obj.index},
                      {"P": verb.surface, "ARG1": subj.surface, "ARG2": obj.surface})]
    return sent, gold


def _build_ditrans(rng, sentence_id):
    n1, n2, n3 = _sample_nouns(rng, _NOUNS, 3)
    verb = _Node(str(rng.choice(_DITRANS_VERBS)), "VERB", "root", None)
    subj_nodes, subj = _noun_phrase(rng, n1, "nsubj", verb)
    iobj_nodes, iobj = _noun_phrase(rng, n2, "iobj", verb)
    obj_nodes, obj = _noun_phrase(rng, n3, "obj", verb)
    nodes = subj_nodes + [verb] + iobj_nodes + obj_nodes + [_Node(".", "PUNCT", "punct", verb)]
    sent = _realize(sentence_id, nodes)
    gold = [GoldTuple(sentence_id, verb.index,
                      {"ARG1": subj.index, "ARG2": obj.index, "ARG3": iobj.index},
                      {"P": verb.surface, "ARG1": subj.surface, "ARG2": obj.surface,
                       "ARG3": iobj.surface})]
    return sent, gold


def _build_coord_vp(rng, sentence_id):
    """Two verbs sharing a subject; only the first verb governs it."""
    n1, n2, n3 = _sample_nouns(rng, _NOUNS, 3)
    v1_surface, v2_surface = (str(v) for v in rng.choice(_VERBS, size=2, replace=False))
    v1 = _Node(v1_surface, "VERB", "root", None)
    subj_nodes, subj = _noun_phrase(rng, n1, "nsubj", v1)
    obj1_nodes, obj1 = _noun_phrase(rng, n2, "obj", v1)
    v2 = _Node(v2_surface, "VERB", "conj", v1)
    cc = _Node("and", "CCONJ", "cc", v2)
    obj2_nodes, obj2 = _noun_phrase(rng, n3, "obj", v2)
    nodes = subj_nodes + [v1] + obj1_nodes + [cc, v2] + obj2_nodes + [_Node(".", "PUNCT", "punct", v1)]
    sent = _realize(sentence_id, nodes)
    gold = [
        GoldTuple(sentence_id, v1.index, {"ARG1": subj.index, "ARG2": obj1.index},
                  {"P": v1.surface, "ARG1": subj.surface, "ARG2": obj1.surface}),
        GoldTuple(sentence_id, v2.index, {"ARG1": subj.index, "ARG2": obj2.index},
                  {"P": v2.surface, "ARG1": subj.surface, "ARG2": obj2.surface}),
    ]
    return sent, gold


_BUILDERS = {
    "svo": _build_svo,
    "svo_pp": _build_svo_pp,
    "ditrans": _build_ditrans,
    "coord_vp": _build_coord_vp,
}

TEMPLATE_NAMES = tuple(_BUILDERS)


def _normalize_templates(template_set) -> tuple[list[str], list[float]]:
    items = []
    for entry in template_set:
        if isinstance(entry, str):
            items.append((entry, 1.0))
        else:
            name, weight = entry
            items.append((name, float(weight)))
    names = [name for name, _ in items]
    weights = [weight for _, weight in items]
    for name in names:
        if name not in _BUILDERS:
            raise ValueError(f"unknown template {name!r}; known: {sorted(_BUILDERS)}")
    total = sum(weights)
    if total <= 0:
        raise ValueError("template weights must sum to a positive value")
    return names, [w / total for w in weights]


def gen_synthetic(template_set=TEMPLATE_NAMES, n: int = 100, seed: int = 0):
    """Generate ``n`` parsed sentences plus gold tuples known by construction.

    ``template_set`` is a sequence of template names or (name, weight)
    pairs. Output is deterministic for a fixed seed.
    """
    names, weights = _normalize_templates(template_set)
    rng = np.random.default_rng(seed)
    sentences: list[ParsedSentence] = []
    golds: list[GoldTuple] = []
    for i in range(n):
        name = names[int(rng.choice(len(names), p=weights))]
        sentence_id = f"syn{i:05d}-{name}"
        sent, gold = _BUILDERS[name](rng, sentence_id)
        sentences.append(sent)
        golds.extend(gold)
    return sentences, golds


def template_of(sentence_id: str) -> str:
    """Template name embedded in a synthetic sentence id."""
    return sentence_id.rsplit("-", 1)[-1]
