"""Corpus input/output and the package's plain-text formats: CoNLL-U
parses, gold tuples (TSV), JSON-lines records, ``key = value`` files, and a
deterministic synthetic corpus generator.

JSON-lines files (extractions, tagged instances, training metrics, the
scorer cache, the eval report) hold one JSON object per line with sorted keys,
written by :func:`write_jsonl` and read by :func:`read_jsonl`. ``key = value``
files (command configs and pattern tables) are read by :func:`read_key_values`.
Every text reader decodes its lines in one place, so a file that is not
UTF-8 raises :class:`ParseError` with its path and line.
Every file the package writes goes through :func:`atomic_write`, so an
interrupted write leaves the previous file in place. This module owns the
generator's template spec of ``name[:weight]`` entries (:func:`gen_synthetic`).

A synthetic template is only its tree wiring: its builder draws a clause
with ``_clause`` (a verb and one noun phrase per relation), adds its extra
nodes, and names each predicate's role heads. :func:`gen_synthetic` numbers
the nodes and builds every sentence and gold tuple from them.
"""

from __future__ import annotations

import json
import logging
import os
import re
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Mapping, Optional, TypeVar

import numpy as np

from oiekit.core import (
    ARGUMENT_ROLES,
    Extraction,
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
    """Malformed input data, as ``path: line N: message`` when both are known."""

    def __init__(self, message: str, line: Optional[int] = None, path=None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line


def checked_utf8(line: str, line_no: int, path) -> str:
    """``line``, decoded with ``errors="surrogateescape"``, which maps each byte
    that is not UTF-8 to U+DC80..U+DCFF; such a byte raises :class:`ParseError`
    naming it."""
    bad = None if line.isascii() else re.search("[\udc80-\udcff]", line)
    if bad:
        raise ParseError(f"not UTF-8 text: byte 0x{ord(bad.group()) - 0xDC00:02x} "
                         f"at column {bad.start() + 1}", line_no, path)
    return line


def _text_lines(path):
    """(number from 1, line) for each line of the text file at ``path``; a
    line that is not UTF-8 raises :class:`ParseError` naming its first bad byte."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, line in enumerate(handle, start=1):
            yield line_no, checked_utf8(line, line_no, path)


def read_key_values(path) -> dict[str, str]:
    """Plain ``key = value`` file: one pair per line, blank lines and ``#``
    comments skipped, keys and values stripped, later keys win."""
    values: dict[str, str] = {}
    for line_no, raw in _text_lines(path):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError("expected 'key = value'", line_no, path)
        values[key.strip()] = value.strip()
    return values


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Handle on a temporary file beside ``path`` that replaces it when the
    block ends; if the block raises, ``path`` keeps its old contents and the
    temporary file is removed. An OSError about the temporary file (a
    missing directory, say) is raised again naming ``path``. Links are
    followed; a path that exists but is not a regular file (``/dev/null``,
    a pipe) is written in place."""
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
    except BaseException as exc:
        if os.path.exists(temporary):
            os.unlink(temporary)
        if isinstance(exc, OSError) and exc.filename == temporary:
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def _field_values(value) -> dict:
    """A dataclass value as the JSON object of its fields (json.dumps calls
    this for each value it cannot encode; a non-dataclass is a TypeError)."""
    return {f.name: getattr(value, f.name) for f in fields(value)}


def write_jsonl(records: Iterable, path) -> None:
    """One JSON object per line, keys sorted at every level; a file may hold one
    record (the eval report). A dataclass record or value is written as its fields."""
    with atomic_write(path) as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True, default=_field_values))
            handle.write("\n")


def read_jsonl(path, parse: Callable[[dict], T]) -> list[T]:
    """``parse`` applied to the JSON object on each non-blank line. A line
    that is not a JSON object, or whose object ``parse`` rejects (a
    KeyError, TypeError, ValueError or :class:`OiekitError`), raises
    :class:`ParseError` with the path, its line number and the plain message."""
    out = []
    for line_no, raw in _text_lines(path):
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise TypeError(f"expected a JSON object, got {type(record).__name__}")
            out.append(parse(record))
        except KeyError as exc:
            raise ParseError(f"bad record: missing key {exc.args[0]!r}", line_no,
                             path) from None
        except (TypeError, ValueError, OiekitError) as exc:
            raise ParseError(f"bad record: {exc}", line_no, path) from None
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
    skipped. Only the comments ``# sent_id = ...`` and ``# text = ...`` are
    read, by exact key (``# text_en = ...`` is not the text). The sent_id
    names the sentence when present; the n-th sentence without one is
    named ``s{n}``. Every defect raises :class:`ParseError` with the path and
    a line: a malformed line or a token that :class:`Token` refuses (its own
    head, say) at that line; a sentence that :class:`ParsedSentence` refuses
    (not a single-rooted tree, say), or whose id an earlier sentence already
    has, given or generated, at the line that ends it.
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
                             f"{ends[sid]}", line_no, path)
        ends[sid] = line_no
        sentences.append(ParsedSentence(sentence_id=sid, tokens=tuple(tokens), text=text))
        tokens, sent_id, text = [], None, ""

    line_no = 0
    try:
        for line_no, raw in _text_lines(path):
            line = raw.rstrip("\n").rstrip("\r")
            if not line:
                flush(line_no)
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                if key.strip() == "sent_id":
                    sent_id = value.strip()
                elif key.strip() == "text":
                    text = value.strip()
                continue
            cols = line.split("\t")
            if len(cols) != 10:
                raise ParseError(f"expected 10 tab-separated columns, got {len(cols)}",
                                 line_no, path)
            if "-" in cols[ID] or "." in cols[ID]:
                continue
            try:
                index = int(cols[ID])
                head = int(cols[HEAD])
            except ValueError:
                raise ParseError(f"non-integer ID or HEAD in {cols[ID]!r}/{cols[HEAD]!r}",
                                 line_no, path) from None
            tokens.append(Token(index=index, surface=cols[FORM], upos=cols[UPOS], head=head,
                                deprel=cols[DEPREL]))
        flush(line_no)
    except ValidationError as exc:
        raise ParseError(str(exc), line_no, path) from None
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

    Rows are grouped by (sentence_id, predicate_head), in first-seen order.
    A role outside ``ARGUMENT_ROLES``, a head below 1 or a role head equal to the predicate
    head raises :class:`ParseError`. A head beyond its sentence needs the sentences: with
    ``sentences`` it raises ParseError and rows of unknown sentence ids are reported and
    skipped; without them it is read, and its tuple can never match.
    """
    grouped: dict[tuple[str, int], tuple[dict, dict]] = {}  # -> (role heads, surfaces)
    for line_no, raw in _text_lines(path):
        line = raw.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        cols = line.split("\t")
        if len(cols) < 4:
            raise ParseError("expected at least 4 tab-separated columns", line_no, path)
        sid, pred_raw, role, head_raw = cols[0], cols[1], cols[2], cols[3]
        surface = cols[4] if len(cols) > 4 else ""
        try:
            pred_head = int(pred_raw)
            role_head = int(head_raw)
        except ValueError:
            raise ParseError(f"non-integer head index in {pred_raw!r}/{head_raw!r}", line_no,
                             path)
        if role not in ARGUMENT_ROLES:
            raise ParseError(f"unknown role {role!r}; known: {', '.join(ARGUMENT_ROLES)}",
                             line_no, path)
        for name, head in (("predicate", pred_head), ("role", role_head)):
            if head < 1:
                raise ParseError(f"{name} head must be >= 1, got {head}", line_no, path)
        if role_head == pred_head:
            raise ParseError(f"role head {role_head} is the predicate head", line_no, path)
        if sentences is not None:
            if sid not in sentences:
                log.warning("%s: line %d references unknown sentence %r; skipped", path, line_no,
                            sid)
                continue
            m = len(sentences[sid])
            if pred_head > m or role_head > m:
                raise ParseError(f"head index outside sentence {sid!r} of length {m}", line_no,
                                 path)
        role_heads, surfaces = grouped.setdefault((sid, pred_head), ({}, {}))
        if role in role_heads:
            raise ParseError(f"duplicate role {role!r} for predicate {pred_head} in {sid!r}",
                             line_no, path)
        role_heads[role] = role_head
        if surface:
            surfaces[role] = surface
    return [GoldTuple(sid, pred, role_heads, surfaces)
            for (sid, pred), (role_heads, surfaces) in grouped.items()]


def write_gold(golds: Iterable[GoldTuple], path) -> None:
    """One row per role head, with its surface when non-empty (the file
    keeps no other surfaces). A tuple that :func:`read_gold` would not read
    back raises ValidationError before anything is written: a tab or line
    break in a field, a sentence id starting with ``#`` (a comment), no role
    or one outside ``ARGUMENT_ROLES``, a head below 1, a role head equal to the
    predicate head, or the key of an earlier tuple."""
    blocks, seen = [], set()
    for gold in golds:
        key, rows = (gold.sentence_id, gold.predicate_head), len(gold.role_heads)
        block = "".join(f"{key[0]}\t{key[1]}\t{role}\t{head}\t{gold.surfaces.get(role, '')}\n"
                        for role, head in gold.role_heads.items())
        if ("\r" in block or block.count("\n") != rows or block.count("\t") != 4 * rows
                or not rows or key in seen or gold.sentence_id.startswith("#")
                or not set(gold.role_heads) <= set(ARGUMENT_ROLES)
                or min(key[1], *gold.role_heads.values()) < 1
                or key[1] in gold.role_heads.values()):
            raise ValidationError(f"gold tuple {key} would not read back as written")
        seen.add(key)
        blocks.append(block)
    with atomic_write(path) as handle:
        handle.writelines(blocks)


# ---------------------------------------------------------------------------
# Extraction files (JSON lines)
# ---------------------------------------------------------------------------


def _span(value, name: str) -> tuple[int, int]:
    if not (isinstance(value, list) and len(value) == 2 and all(type(i) is int for i in value)):
        raise ValidationError(f"{name} {value!r} is not two integers")
    return tuple(value)


def extraction_from_dict(record: dict) -> Extraction:
    """ValidationError naming a field of the wrong type, or a non-finite confidence."""
    sid, roles, confidence = record["sentence_id"], record["role_spans"], record["confidence"]
    if not isinstance(sid, str):
        raise ValidationError(f"sentence_id {sid!r} is not a string")
    if not isinstance(roles, dict):
        raise ValidationError(f"role_spans {roles!r} is not an object")
    if type(confidence) not in (int, float) or not -np.inf < confidence < np.inf:
        raise ValidationError(f"confidence {confidence!r} is not a finite number")
    spans = {role: _span(span, f"role_spans[{role!r}]") for role, span in roles.items()}
    return Extraction(sid, _span(record["predicate_span"], "predicate_span"), spans, confidence)


def write_extractions(extractions: Iterable[Extraction], path) -> None:
    write_jsonl(extractions, path)


def read_extractions(path) -> list[Extraction]:
    return read_jsonl(path, extraction_from_dict)


# ---------------------------------------------------------------------------
# Tagged-instance files (JSON lines, parses embedded)
# ---------------------------------------------------------------------------


def sentence_from_dict(record: dict) -> ParsedSentence:
    return ParsedSentence(
        sentence_id=record["sentence_id"],
        tokens=tuple(Token(**tok) for tok in record["tokens"]),
        text=record.get("text", ""),
    )


def _instance_from_dict(record: dict) -> TaggedInstance:
    sentence = sentence_from_dict(record["sentence"])
    predicate, labels = record["predicate_index"], record["labels"]
    where = f"instance for {sentence.sentence_id!r}"
    if type(predicate) is not int:
        raise ValidationError(f"{where}: predicate_index {predicate!r} is not an integer")
    for pos, label in enumerate(labels, start=1):
        if not isinstance(label, str):
            raise ValidationError(f"{where}: labels: position {pos}: {label!r} is not a string")
    return TaggedInstance(sentence=sentence, predicate_index=predicate, tags=TagSequence(tuple(labels)))


def write_instances(instances: Iterable[TaggedInstance], path) -> None:
    write_jsonl(({"sentence": inst.sentence,
                  "predicate_index": inst.predicate_index,
                  "labels": inst.tags.labels} for inst in instances), path)


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


def _pick(rng: np.random.Generator, words):
    """One of ``words``, from the draw ``rng.choice(words)`` makes, without
    the overhead of ``Generator.choice``."""
    return words[int(rng.integers(len(words)))]


def _noun_phrase(rng: np.random.Generator, noun: str, deprel: str, parent: Optional[_Node]):
    """Determiner [adjective] noun, returning (nodes, head node)."""
    head = _Node(noun, "NOUN", deprel, parent)
    nodes = [_Node(_pick(rng, ("the", "a")), "DET", "det", head)]
    if rng.random() < 0.3:
        nodes.append(_Node(_pick(rng, _ADJECTIVES), "ADJ", "amod", head))
    nodes.append(head)
    return nodes, head


_ROLES = {"nsubj": "ARG1", "obj": "ARG2", "iobj": "ARG3"}


def _clause(rng: np.random.Generator, verbs, deprels):
    """A root verb from ``verbs`` with one noun phrase per relation in
    ``deprels``, over distinct nouns; the first phrase precedes the verb and
    the rest follow it. Returns (nodes, verb, {role: head node})."""
    nouns = rng.choice(len(_NOUNS), size=len(deprels), replace=False)
    verb = _Node(_pick(rng, verbs), "VERB", "root", None)
    nodes, roles = [], {}
    for i, deprel in zip(nouns, deprels):
        phrase, roles[_ROLES[deprel]] = _noun_phrase(rng, _NOUNS[int(i)], deprel, verb)
        nodes += phrase if nodes else phrase + [verb]
    return nodes, verb, roles


# Each builder returns (nodes in sentence order, [(predicate node, {role: head node})]).


def _build_svo(rng):
    nodes, verb, roles = _clause(rng, _VERBS, ("nsubj", "obj"))
    return nodes + [_Node(".", "PUNCT", "punct", verb)], [(verb, roles)]


def _build_svo_pp(rng):
    nodes, verb, roles = _clause(rng, _VERBS, ("nsubj", "obj"))
    # The place phrase modifies the object noun, keeping its subtree intact.
    place = _Node(_pick(rng, _PLACES), "NOUN", "nmod", roles["ARG2"])
    prep = _Node(_pick(rng, _PREPOSITIONS), "ADP", "case", place)
    det = _Node("the", "DET", "det", place)
    return nodes + [prep, det, place, _Node(".", "PUNCT", "punct", verb)], [(verb, roles)]


def _build_ditrans(rng):
    nodes, verb, roles = _clause(rng, _DITRANS_VERBS, ("nsubj", "iobj", "obj"))
    return nodes + [_Node(".", "PUNCT", "punct", verb)], [(verb, roles)]


def _build_coord_vp(rng):
    """Two verbs sharing a subject; only the first verb governs it."""
    n1, n2, n3 = (_NOUNS[int(i)] for i in rng.choice(len(_NOUNS), size=3, replace=False))
    v1_surface, v2_surface = (_VERBS[int(i)]
                              for i in rng.choice(len(_VERBS), size=2, replace=False))
    v1 = _Node(v1_surface, "VERB", "root", None)
    subj_nodes, subj = _noun_phrase(rng, n1, "nsubj", v1)
    obj1_nodes, obj1 = _noun_phrase(rng, n2, "obj", v1)
    v2 = _Node(v2_surface, "VERB", "conj", v1)
    cc = _Node("and", "CCONJ", "cc", v2)
    obj2_nodes, obj2 = _noun_phrase(rng, n3, "obj", v2)
    nodes = subj_nodes + [v1] + obj1_nodes + [cc, v2] + obj2_nodes + [_Node(".", "PUNCT", "punct", v1)]
    return nodes, [(v1, {"ARG1": subj, "ARG2": obj1}), (v2, {"ARG1": subj, "ARG2": obj2})]


_BUILDERS = {
    "svo": _build_svo,
    "svo_pp": _build_svo_pp,
    "ditrans": _build_ditrans,
    "coord_vp": _build_coord_vp,
}

TEMPLATE_NAMES = tuple(_BUILDERS)


def _template_weights(templates) -> tuple[list[str], list[float]]:
    """Names and normalised weights of :func:`gen_synthetic`'s entries."""
    names, weights = [], []
    for entry in templates:
        if not isinstance(entry, str):
            raise ValidationError(f"template entry {entry!r}: expected 'name' or 'name:weight'")
        name, sep, text = (part.strip() for part in entry.partition(":"))
        if name not in _BUILDERS:
            raise ValidationError(f"template entry {entry!r}: unknown template; known: "
                                  f"{', '.join(TEMPLATE_NAMES)}")
        try:
            weight = float(text) if sep else 1.0
        except ValueError:
            weight = np.nan
        if not 0.0 <= weight < np.inf:
            raise ValidationError(f"template entry {entry!r}: weight is not finite and non-negative")
        names.append(name)
        weights.append(weight)
    total = sum(weights)
    if not 0.0 < total < np.inf:
        raise ValidationError(f"template entries {','.join(templates)!r}: weights must sum to "
                              "a positive, finite value")
    return names, [weight / total for weight in weights]


def gen_synthetic(templates=TEMPLATE_NAMES, n: int = 100, seed: int = 0):
    """Generate ``n`` parsed sentences plus gold tuples known by construction.

    ``templates`` holds ``name`` or ``name:weight`` entries, such as
    :data:`TEMPLATE_NAMES` (weight 1 when left out, spaces ignored). A
    negative ``n`` or ``seed``, an entry of another form or an unknown
    name, a weight that is not finite and non-negative, or weights not
    summing to a positive finite value raise ValidationError naming the
    value, before anything is generated. Output is deterministic for a fixed seed.
    """
    if n < 0:
        raise ValidationError(f"n = {n}: the sentence count must be >= 0")
    if seed < 0:
        raise ValidationError(f"seed = {seed}: the seed must be >= 0")
    names, weights = _template_weights(templates)
    rng = np.random.default_rng(seed)
    sentences: list[ParsedSentence] = []
    golds: list[GoldTuple] = []
    for i in range(n):
        name = names[int(rng.choice(len(names), p=weights))]
        sentence_id = f"syn{i:05d}-{name}"
        nodes, frames = _BUILDERS[name](rng)
        for pos, node in enumerate(nodes, start=1):
            node.index = pos
        sentences.append(ParsedSentence(sentence_id=sentence_id, tokens=tuple(
            Token(index=node.index, surface=node.surface, upos=node.upos, deprel=node.deprel,
                  head=node.parent.index if node.parent is not None else 0)
            for node in nodes)))
        for predicate, roles in frames:
            heads, surfaces = {}, {"P": predicate.surface}
            for role in sorted(roles):
                heads[role], surfaces[role] = roles[role].index, roles[role].surface
            golds.append(GoldTuple(sentence_id, predicate.index, heads, surfaces))
    return sentences, golds
