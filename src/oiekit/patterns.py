"""Dependency-pattern labelling functions: detect predicates by POS,
match argument headwords through predicate-to-child relations, expand
heads to phrase spans, and emit noisy BIO training instances.

One cut rule turns a head into its span (:func:`generate_instances`): the
envelope of the head's subtree, cut on each side at the nearest taken
position."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from oiekit.core import (
    ARGUMENT_ROLES,
    OUTSIDE,
    ParsedSentence,
    TaggedInstance,
    TagSequence,
    ValidationError,
)
from oiekit.corpus_io import ParseError, read_key_values

# Dependents with these relations are auxiliaries, not content predicates.
AUX_DEPRELS = frozenset({"aux", "auxpass", "aux:pass", "cop"})

# Both classic Stanford and Universal Dependencies relation spellings.
DEFAULT_ROLE_PATTERNS: Mapping[str, frozenset[str]] = {
    "ARG1": frozenset({"nsubj", "nsubjpass", "nsubj:pass"}),
    "ARG2": frozenset({"dobj", "obj", "xcomp", "ccomp", "nmod", "obl"}),
    "ARG3": frozenset({"iobj", "dative"}),
}


@dataclass(frozen=True)
class PatternTable:
    """Role-to-relation patterns plus the POS tags counted as predicates."""

    role_patterns: Mapping[str, frozenset[str]] = field(
        default_factory=lambda: dict(DEFAULT_ROLE_PATTERNS)
    )
    predicate_pos: frozenset[str] = frozenset({"VERB"})

    def __post_init__(self):
        object.__setattr__(
            self, "role_patterns", {r: frozenset(v) for r, v in self.role_patterns.items()}
        )
        object.__setattr__(self, "predicate_pos", frozenset(self.predicate_pos))
        unknown = set(self.role_patterns) - set(ARGUMENT_ROLES)
        if unknown:
            raise ValidationError(f"unknown roles in pattern table: {sorted(unknown)}")
        roles = sorted(self.role_patterns)
        for i, role_a in enumerate(roles):
            for role_b in roles[i + 1 :]:
                shared = self.role_patterns[role_a] & self.role_patterns[role_b]
                if shared:
                    raise ValidationError(
                        f"relations {sorted(shared)} assigned to both {role_a} and {role_b}"
                    )


DEFAULT_TABLE = PatternTable()


def load_pattern_table(path) -> PatternTable:
    """Load a table from a ``key = value`` file (see
    :func:`oiekit.corpus_io.read_key_values`).

    Keys are ``predicate_pos`` or role names; values are comma-separated
    labels, e.g. ``ARG2 = dobj, obj, xcomp``. A table that
    :class:`PatternTable` refuses is a ParseError naming ``path``.
    """
    role_patterns: dict[str, frozenset[str]] = {}
    predicate_pos = frozenset({"VERB"})
    for key, value in read_key_values(path).items():
        values = frozenset(v.strip() for v in value.split(",") if v.strip())
        if key == "predicate_pos":
            predicate_pos = values
        else:
            role_patterns[key] = values
    try:
        return PatternTable(role_patterns=role_patterns, predicate_pos=predicate_pos)
    except ValidationError as exc:
        raise ParseError(str(exc), path=path) from None


def identify_predicates(sentence: ParsedSentence, table: PatternTable = DEFAULT_TABLE) -> list[int]:
    """Indices of predicate tokens: POS in ``predicate_pos``, auxiliaries excluded."""
    return [
        tok.index
        for tok in sentence.tokens
        if tok.upos in table.predicate_pos and tok.deprel not in AUX_DEPRELS
    ]


def match_argument_heads(
    sentence: ParsedSentence, predicate: int, table: PatternTable = DEFAULT_TABLE
) -> dict[str, int]:
    """For each role, the first child of the predicate (by surface order)
    attached via one of the role's relations."""
    heads: dict[str, int] = {}
    for child in sentence.children_of(predicate):
        deprel = sentence.token(child).deprel
        for role, relations in table.role_patterns.items():
            if deprel in relations and role not in heads:
                heads[role] = child
    return heads


def generate_instances(
    sentence: ParsedSentence, table: PatternTable = DEFAULT_TABLE
) -> list[TaggedInstance]:
    """One noisy BIO instance per detected predicate.

    The predicate token gets B-P, and predicates with no matched arguments
    are dropped. A role's span is the envelope of its head's subtree, cut
    on each side at the nearest taken position. A taken position is the
    predicate, another role's head, or a span assigned earlier in
    ``ARGUMENT_ROLES`` order. So the spans hold their heads, are pairwise
    disjoint and never cover the predicate.
    """
    instances = []
    for predicate in identify_predicates(sentence, table):
        heads = match_argument_heads(sentence, predicate, table)
        if not heads:
            continue
        labels = [OUTSIDE] * len(sentence)
        labels[predicate - 1] = "B-P"
        occupied = {predicate}
        for role in ARGUMENT_ROLES:
            if role not in heads:
                continue
            head = heads[role]
            subtree = sentence.subtree(head)
            cuts = occupied.union(heads.values())  # the head's own position cuts nothing
            lo = max([subtree[0]] + [p + 1 for p in cuts if p < head])
            hi = min([subtree[-1]] + [p - 1 for p in cuts if p > head])
            labels[lo - 1] = f"B-{role}"
            for pos in range(lo + 1, hi + 1):
                labels[pos - 1] = f"I-{role}"
            occupied.update(range(lo, hi + 1))
        instances.append(
            TaggedInstance(
                sentence=sentence,
                predicate_index=predicate,
                tags=TagSequence(tuple(labels)),
            )
        )
    return instances
