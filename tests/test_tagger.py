import itertools
import json
import math

import numpy as np
import pytest

from oiekit.core import bio_labels, validate_bio, ValidationError
from oiekit.corpus_io import ParseError, gen_synthetic
from oiekit.patterns import identify_predicates
from oiekit.reward import make_sem_scorer, sem_score_surrogate
from oiekit.tagger import (
    EXTRACT_BATCH,
    TaggerConfig,
    build_vocab,
    embed,
    enumerate_valid_sequences,
    extract,
    forward,
    init_model,
    load_model,
    save_model,
)

from conftest import decode_alone, flat_sentence

TINY = TaggerConfig(embedding_dim=6, indicator_dim=3, hidden_dim=5,
                    num_encoder_layers=2, rng_seed=3)


def tiny_model(sentence, config=TINY):
    return init_model(config, build_vocab([sentence]))


# -- oracle: brute-force enumeration, independent of the decoder ------------


def oracle_valid(seq, predicate):
    prev = "O"
    p_spans = 0
    for pos, lab in enumerate(seq, start=1):
        if lab == "O":
            prev = lab
            continue
        kind, role = lab[0], lab[2:]
        if kind == "B":
            if role == "P":
                if pos != predicate:
                    return False
                p_spans += 1
        else:
            if prev == "O" or prev[2:] != role:
                return False
        prev = lab
    return p_spans <= 1


def oracle_rank(table, predicate, labels):
    logs = np.log(table)
    index = {lab: i for i, lab in enumerate(labels)}
    scored = []
    for seq in itertools.product(labels, repeat=table.shape[0]):
        if not oracle_valid(seq, predicate):
            continue
        score = 0.0
        for pos, lab in enumerate(seq):
            score = score + logs[pos, index[lab]]
        scored.append((score, seq))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return scored


def random_table(rng, m, n_labels):
    raw = rng.uniform(0.05, 1.0, (m, n_labels))
    return raw / raw.sum(axis=1, keepdims=True)


class TestEmbed:
    def test_exactly_one_position_carries_indicator(self):
        sentence = flat_sentence(3)
        model = tiny_model(sentence)
        x = embed(sentence, 2, model)
        indicator = model.params["embed.indicator"]
        assert np.array_equal(x[1, 6:], indicator[1])
        assert np.array_equal(x[0, 6:], indicator[0])
        assert np.array_equal(x[2, 6:], indicator[0])

    def test_predicate_choice_changes_only_indicator_channel(self):
        sentence = flat_sentence(4)
        model = tiny_model(sentence)
        a = embed(sentence, 1, model)
        b = embed(sentence, 3, model)
        assert np.array_equal(a[:, :6], b[:, :6])
        assert not np.array_equal(a[:, 6:], b[:, 6:])

    def test_unknown_word_uses_reserved_vector(self):
        model = tiny_model(flat_sentence(2))
        other = flat_sentence(2)
        unseen = flat_sentence(3)  # w3 not in the 2-token vocab
        x = embed(unseen, 1, model)
        assert np.array_equal(x[2, :6], model.params["embed.word"][0])


class TestLabelDistribution:
    def test_zero_classifier_gives_uniform(self):
        sentence = flat_sentence(3)
        model = tiny_model(sentence)
        model.params["cls.w"][...] = 0.0
        model.params["cls.b"][...] = 0.0
        probs, _ = forward([(sentence, 1)], model)
        assert np.allclose(probs, 1.0 / len(model.labels))

    def test_large_bias_dominates(self):
        sentence = flat_sentence(2)
        model = tiny_model(sentence)
        model.params["cls.w"][...] = 0.0
        model.params["cls.b"][...] = 0.0
        model.params["cls.b"][0] = 10.0
        probs, _ = forward([(sentence, 1)], model)
        # softmax(10 vs eight 0s): e^10 / (e^10 + 8) > 0.999
        assert (probs[..., 0] > 0.999).all()

    def test_rows_sum_to_one(self):
        sentence = flat_sentence(5)
        model = tiny_model(sentence)
        probs, _ = forward([(sentence, 3)], model)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6)


class TestBeamDecode:
    def test_certain_distribution_single_beam(self):
        labels = bio_labels()
        table = np.zeros((2, len(labels)))
        table[0, labels.index("B-ARG1")] = 1.0
        table[1, labels.index("B-P")] = 1.0
        result = decode_alone(table, 1, predicate=2, labels=labels)
        assert len(result) == 1
        assert result[0].labels == ("B-ARG1", "B-P")
        assert result[0].log_prob == 0.0

    def test_uniform_restricted_labels_returns_every_valid_sequence(self):
        labels = bio_labels(("P",))  # O, B-P, I-P
        table = np.full((3, 3), 1.0 / 3.0)
        result = decode_alone(table, 27, predicate=1, labels=labels)
        expected = {("O", "O", "O"), ("B-P", "O", "O"),
                    ("B-P", "I-P", "O"), ("B-P", "I-P", "I-P")}
        assert {r.labels for r in result} == expected
        for r in result:
            assert r.log_prob == pytest.approx(3 * math.log(1.0 / 3.0), abs=1e-12)

    @pytest.mark.parametrize("m,predicate", [(2, 1), (3, 2), (4, 1), (4, 3)])
    def test_full_set_matches_oracle_ranking(self, m, predicate):
        labels = bio_labels()
        rng = np.random.default_rng(100 + m + predicate)
        table = random_table(rng, m, len(labels))
        oracle = oracle_rank(table, predicate, labels)
        result = decode_alone(table, len(oracle), predicate, labels)
        assert [r.labels for r in result] == [seq for _, seq in oracle]
        for r, (score, _) in zip(result, oracle):
            assert r.log_prob == pytest.approx(score, abs=1e-9)

    def test_top3_matches_oracle_on_random_tables(self):
        labels = bio_labels()
        rng = np.random.default_rng(42)
        for trial in range(50):
            m = int(rng.integers(2, 5))
            predicate = int(rng.integers(1, m + 1))
            table = random_table(rng, m, len(labels))
            oracle = oracle_rank(table, predicate, labels)[:3]
            result = decode_alone(table, 3, predicate, labels)
            assert [r.labels for r in result] == [seq for _, seq in oracle], f"trial {trial}"
            # extract decodes at width 1: its top-1 is the top-1 of any width.
            assert decode_alone(table, 1, predicate, labels)[0].labels == oracle[0][1]

    def test_every_beam_sequence_is_bio_valid(self):
        labels = bio_labels()
        rng = np.random.default_rng(7)
        table = random_table(rng, 5, len(labels))
        for r in decode_alone(table, 10, predicate=3, labels=labels):
            assert validate_bio(r.labels) == []
            assert oracle_valid(r.labels, 3)

    def test_enumerator_counts(self):
        # Restricted to the predicate role there are exactly 4 sequences.
        assert len(enumerate_valid_sequences(3, 1, bio_labels(("P",)))) == 4


class TestConfidence:
    """The extraction confidence is the width-1 decode's summed log
    probability over the sentence length; each table makes the listed tags
    the top-1."""

    @staticmethod
    def confidence(table, predicate, labels):
        best = decode_alone(table, 1, predicate, labels)[0]
        return best.labels, best.log_prob / table.shape[0]

    def test_probability_one_gives_zero(self):
        labels = bio_labels()
        table = np.zeros((2, len(labels)))
        table[0, labels.index("B-ARG1")] = 1.0
        table[1, labels.index("B-P")] = 1.0
        assert self.confidence(table, 2, labels) == (("B-ARG1", "B-P"), 0.0)

    def test_two_halves(self):
        labels = bio_labels(("P",))  # O, B-P, I-P
        table = np.array([[0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
        tags, conf = self.confidence(table, 1, labels)
        assert tags == ("B-P", "I-P")
        assert conf == pytest.approx(math.log(0.5), abs=1e-12)

    def test_mixed_probabilities(self):
        labels = bio_labels(("P",))
        # B-P has probability 0 at the predicate, and away from it only O may
        # follow O: O O O is the one sequence of finite score.
        table = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
        tags, conf = self.confidence(table, 1, labels)
        expected = (0.0 + math.log(0.5) + math.log(0.25)) / 3
        assert tags == ("O", "O", "O")
        assert conf == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-0.6931471805599453, abs=1e-9)

    def test_length_invariance_at_equal_probability(self):
        labels = bio_labels(("P",))
        for m in (2, 5, 9):
            table = np.tile([0.5, 0.25, 0.25], (m, 1))
            tags, conf = self.confidence(table, 1, labels)
            assert tags == ("O",) * m
            assert conf == pytest.approx(math.log(0.5))


class TestDeterminismAndSerialization:
    def test_init_deterministic(self):
        sentence = flat_sentence(3)
        a = tiny_model(sentence)
        b = tiny_model(sentence)
        assert a.params.keys() == b.params.keys()
        for name in a.params:
            assert np.array_equal(a.params[name], b.params[name])

    def test_checkpoint_round_trip_bit_exact(self, tmp_path):
        sentence = flat_sentence(4)
        model = tiny_model(sentence)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert loaded.vocab == model.vocab
        assert loaded.params.keys() == model.params.keys()
        for name in model.params:
            assert loaded.params[name].tobytes() == model.params[name].tobytes()

    @pytest.mark.parametrize("damage", ["truncate", "append", "list header", "no arrays"])
    def test_damaged_checkpoint_raises_parse_error(self, tmp_path, damage):
        path = tmp_path / "model.ckpt"
        save_model(tiny_model(flat_sentence(4)), path)
        header, arrays = path.read_bytes().split(b"\n", 1)
        if damage == "truncate":
            arrays = arrays[:-3]
        elif damage == "append":
            arrays += b"\0"
        elif damage == "list header":
            header = b"[1, 2]"
        else:
            header = header.replace(b'"arrays"', b'"arrayz"')
        path.write_bytes(header + b"\n" + arrays)
        with pytest.raises(ParseError):
            load_model(path)

    def test_checkpoint_with_stored_beam_size_loads(self, tmp_path):
        model = tiny_model(flat_sentence(4))
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        header, arrays = path.read_bytes().split(b"\n", 1)
        old_header = json.loads(header)
        old_header["config"]["beam_size"] = 3
        path.write_bytes(json.dumps(old_header, sort_keys=True).encode("utf-8") + b"\n" + arrays)
        loaded = load_model(path)
        assert loaded.config == model.config
        for name in model.params:
            assert loaded.params[name].tobytes() == model.params[name].tobytes()

    def test_loaded_model_decodes_identically(self, tmp_path):
        sentence = flat_sentence(4)
        model = tiny_model(sentence)
        path = tmp_path / "model.ckpt"
        save_model(model, path)
        loaded = load_model(path)
        probs_a, _ = forward([(sentence, 2)], model)
        probs_b, _ = forward([(sentence, 2)], loaded)
        assert np.array_equal(probs_a, probs_b)


class TestExtract:
    def test_extractions_respect_core_invariants(self, parragon):
        model = init_model(TINY, build_vocab([parragon]))
        extractions = extract([parragon], model)
        assert len(extractions) <= 2
        for e in extractions:
            assert e.sentence_id == "parragon"
            spans = [e.predicate_span] + list(e.role_spans.values())
            for start, end in spans:
                assert 1 <= start <= end <= len(parragon)

    @pytest.mark.parametrize("rerank", ["none", "combined"])
    def test_batched_pass_matches_one_call_per_sentence(self, rerank):
        # Sentences of several templates, in no length order: more than two
        # length-sorted chunks, each returned to sentence order.
        sentences, _ = gen_synthetic(n=2 * EXTRACT_BATCH + 1, seed=5)
        items = sum(len(identify_predicates(sentence)) for sentence in sentences)
        lengths = [len(sentence) for sentence in sentences]
        assert items > 2 * EXTRACT_BATCH
        assert lengths != sorted(lengths)
        model = init_model(TINY, build_vocab(sentences))
        model.params["cls.b"][model.labels.index("B-P")] += 2.0
        scorer = make_sem_scorer("surrogate") if rerank != "none" else None
        batched = extract(sentences, model, sem_scorer=scorer, rerank=rerank)
        single = [e for s in sentences for e in extract([s], model, sem_scorer=scorer,
                                                        rerank=rerank)]
        key = lambda e: (e.sentence_id, e.predicate_span, e.role_spans)  # noqa: E731
        assert len(single) > 16
        assert [key(e) for e in batched] == [key(e) for e in single]
        for a, b in zip(batched, single):
            assert abs(a.confidence - b.confidence) <= 1e-12

    def test_confidence_is_the_mean_log_probability_of_the_decoded_labels(self):
        sentences, _ = gen_synthetic(n=20, seed=6)
        model = init_model(TINY, build_vocab(sentences))
        model.params["cls.b"][model.labels.index("B-P")] += 2.0
        by_id = {s.sentence_id: s for s in sentences}
        extractions = extract(sentences, model)
        assert len(extractions) > 16
        for e in extractions:
            sentence, predicate = by_id[e.sentence_id], e.predicate_span[0]
            probs = forward([(sentence, predicate)], model)[0][:, 0]
            best = decode_alone(probs, 1, predicate, model.labels)[0]
            logs = [math.log(probs[i, model.labels.index(label)])
                    for i, label in enumerate(best.labels)]
            assert abs(e.confidence - sum(logs) / len(logs)) <= 1e-12

    def test_rerank_needs_scorer(self, parragon):
        model = init_model(TINY, build_vocab([parragon]))
        with pytest.raises(ValidationError):
            extract([parragon], model, rerank="combined")

    def test_rerank_confidences_follow_the_formula(self, parragon, ditrans):
        scorer = make_sem_scorer("surrogate")
        for sentence in (parragon, ditrans):
            model = init_model(TINY, build_vocab([sentence]))
            # Favour B-P so that every predicate decodes to an extraction.
            model.params["cls.b"][model.labels.index("B-P")] += 5.0
            plain = extract([sentence], model)
            sem_only = extract([sentence], model, sem_scorer=scorer, rerank="sem")
            combined = extract([sentence], model, sem_scorer=scorer, rerank="combined")
            assert plain
            assert len(sem_only) == len(combined) == len(plain)
            for base, by_sem, by_both in zip(plain, sem_only, combined):
                log_sem = math.log(max(sem_score_surrogate(base, sentence), 1e-12))
                assert by_sem.confidence == log_sem
                assert by_both.confidence == base.confidence + log_sem
                for reranked in (by_sem, by_both):
                    assert reranked.predicate_span == base.predicate_span
                    assert reranked.role_spans == base.role_spans
