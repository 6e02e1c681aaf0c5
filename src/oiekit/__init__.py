"""Weakly supervised open information extraction toolkit.

Pipeline stages: dependency-pattern labelling functions produce noisy BIO
training instances, a recurrent tagger is pretrained on them by maximum
likelihood, and a policy-gradient stage generalizes the tagger using a
reward that combines a syntactic headword constraint with a semantic
consistency score. Extractions are evaluated against gold tuples with the
headword-match criterion and precision-recall curves.
"""

from oiekit.core import (
    ARGUMENT_ROLES,
    Extraction,
    LABELS,
    OiekitError,
    OUTSIDE,
    ParsedSentence,
    PREDICATE_ROLE,
    ROLES,
    Span,
    TaggedInstance,
    TagSequence,
    Token,
    ValidationError,
    spans_from_tags,
)

__version__ = "0.1.0"
