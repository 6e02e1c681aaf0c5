"""The vectorised k-best decoder against the string-based beam search it
replaced, kept here verbatim as the reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oiekit.core import DEFAULT_ROLES, OUTSIDE, TagSequence, ValidationError, bio_labels, label_index
from oiekit.tagger import allowed_labels, beam_decode

from conftest import decode_alone


def reference_beam_decode(distributions: np.ndarray, beam_size: int, predicate: int,
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


def make_table(rng, kind, m, n_labels):
    """One item's (m, L) table: plain random, rounded to thirds (many ties,
    some zeros), random with zeroed entries, or all 0/1."""
    raw = rng.uniform(0.05, 1.0, (m, n_labels))
    table = raw / raw.sum(axis=1, keepdims=True)
    if kind == "thirds":
        return np.round(table * 3.0) / 3.0
    if kind == "zeros":
        return np.where(rng.random((m, n_labels)) < 0.4, 0.0, table)
    if kind == "zero_one":
        return rng.integers(0, 2, (m, n_labels)).astype(float)
    return table


@st.composite
def batches(draw):
    labels = bio_labels(draw(st.sampled_from([("P",), DEFAULT_ROLES])))
    kind = draw(st.sampled_from(["random", "thirds", "zeros", "zero_one"]))
    beam_size = draw(st.integers(1, 5))
    lengths = draw(st.lists(st.integers(1, 7), min_size=1, max_size=5))
    places = draw(st.lists(st.sampled_from(["first", "middle", "last"]),
                           min_size=len(lengths), max_size=len(lengths)))
    predicates = [{"first": 1, "middle": (m + 1) // 2, "last": m}[place]
                  for m, place in zip(lengths, places)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tables = [make_table(rng, kind, m, len(labels)) for m in lengths]
    return labels, beam_size, lengths, predicates, tables


@settings(max_examples=300, deadline=None)
@given(batches())
def test_batch_decode_equals_reference_per_item(batch):
    labels, beam_size, lengths, predicates, tables = batch
    # NaN padding: a result that read a padded row would show it.
    probs = np.full((max(lengths), len(tables), len(labels)), np.nan)
    for b, table in enumerate(tables):
        probs[: len(table), b] = table
    decoded = beam_decode(probs, lengths, predicates, beam_size, labels)
    assert len(decoded) == len(tables)
    for got, table, predicate in zip(decoded, tables, predicates):
        expected = reference_beam_decode(table, beam_size, predicate, labels)
        assert [s.labels for s in got] == [s.labels for s in expected]
        assert [s.log_prob for s in got] == [s.log_prob for s in expected]
        assert decode_alone(table, beam_size, predicate, labels) == got


def test_beam_size_below_one_rejected():
    with pytest.raises(ValidationError):
        beam_decode(np.full((2, 1, 9), 1.0 / 9.0), [2], [1], 0)
