import json
import math
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oiekit import tagger
from oiekit.core import LABELS, TaggedInstance, ValidationError
from oiekit.corpus_io import ParseError, gen_synthetic
from oiekit.mle import TrainConfig, pretrain
from oiekit.patterns import generate_instances, identify_predicates
from oiekit.reward import make_sem_scorer, rerank, sem_score_surrogate
from oiekit.tagger import (
    EXTRACT_BATCH,
    TaggerConfig,
    build_vocab,
    embed,
    extract,
    forward,
    init_model,
    load_model,
    save_model,
)

from conftest import build_sentence, decode_alone, flat_sentence
from oracles import candidate_dlogits, oracle_rank, oracle_valid, valid_sequences

TINY = TaggerConfig(embedding_dim=6, indicator_dim=3, hidden_dim=5,
                    num_encoder_layers=2, rng_seed=3)


def tiny_model(sentence, config=TINY):
    return init_model(config, build_vocab([sentence]))


def random_table(rng, m, n_labels):
    raw = rng.uniform(0.05, 1.0, (m, n_labels))
    return raw / raw.sum(axis=1, keepdims=True)


P_COLUMNS = [LABELS.index(label) for label in ("O", "B-P", "I-P")]


def p_only(rows):
    """An (m, L) table holding ``rows`` in the O, B-P and I-P columns and
    zero in every argument-role column."""
    table = np.zeros((len(rows), len(LABELS)))
    table[:, P_COLUMNS] = rows
    return table


class TestEmbed:
    def test_exactly_one_position_carries_indicator(self):
        sentence = flat_sentence(3)
        model = tiny_model(sentence)
        x = embed([(sentence, 2)], model)[0][:, 0]
        indicator = model.params["embed.indicator"]
        assert np.array_equal(x[1, 6:], indicator[1])
        assert np.array_equal(x[0, 6:], indicator[0])
        assert np.array_equal(x[2, 6:], indicator[0])

    def test_predicate_choice_changes_only_indicator_channel(self):
        sentence = flat_sentence(4)
        model = tiny_model(sentence)
        a = embed([(sentence, 1)], model)[0][:, 0]
        b = embed([(sentence, 3)], model)[0][:, 0]
        assert np.array_equal(a[:, :6], b[:, :6])
        assert not np.array_equal(a[:, 6:], b[:, 6:])

    def test_unknown_word_uses_reserved_vector(self):
        model = tiny_model(flat_sentence(2))
        other = flat_sentence(2)
        unseen = flat_sentence(3)  # w3 not in the 2-token vocab
        x = embed([(unseen, 1)], model)[0][:, 0]
        assert np.array_equal(x[2, :6], model.params["embed.word"][0])


class TestLabelDistribution:
    def test_zero_classifier_gives_uniform(self):
        sentence = flat_sentence(3)
        model = tiny_model(sentence)
        model.params["cls.w"][...] = 0.0
        model.params["cls.b"][...] = 0.0
        probs, _ = forward([(sentence, 1)], model)
        assert np.allclose(probs, 1.0 / len(LABELS))

    def test_large_bias_dominates(self):
        sentence = flat_sentence(2)
        model = tiny_model(sentence)
        model.params["cls.w"][...] = 0.0
        model.params["cls.b"][...] = 0.0
        model.params["cls.b"][0] = 10.0
        probs, _ = forward([(sentence, 1)], model)
        # softmax(10 vs eight 0s): e^10 / (e^10 + 8) > 0.999
        assert (probs[..., 0] > 0.999).all()

    @pytest.mark.parametrize("predicate", [0, 4])
    def test_predicate_outside_its_sentence_is_refused(self, predicate):
        longer = flat_sentence(5)
        model = tiny_model(longer)
        with pytest.raises(ValidationError, match="outside sentence of length 3"):
            forward([(longer, 5), (flat_sentence(3), predicate)], model)

    def test_rows_sum_to_one(self):
        sentence = flat_sentence(5)
        model = tiny_model(sentence)
        probs, _ = forward([(sentence, 3)], model)
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6)


class TestBeamDecode:
    def test_certain_distribution_single_beam(self):
        table = np.zeros((2, len(LABELS)))
        table[0, LABELS.index("B-ARG1")] = 1.0
        table[1, LABELS.index("B-P")] = 1.0
        result = decode_alone(table, 1, predicate=2)
        assert len(result) == 1
        assert result[0].labels == ("B-ARG1", "B-P")
        assert result[0].log_prob == 0.0

    def test_uniform_restricted_labels_returns_every_valid_sequence(self):
        # Uniform over O, B-P and I-P; the argument roles have probability 0,
        # so every sequence that uses one scores -inf and ranks last.
        table = p_only(np.full((3, 3), 1.0 / 3.0))
        result = decode_alone(table, 27, predicate=1)
        finite = [r for r in result if r.log_prob > -math.inf]
        expected = {("O", "O", "O"), ("B-P", "O", "O"),
                    ("B-P", "I-P", "O"), ("B-P", "I-P", "I-P")}
        assert len(result) == 27
        assert len(finite) == 4 and {r.labels for r in finite} == expected
        assert result[:4] == finite
        for r in finite:
            assert r.log_prob == pytest.approx(3 * math.log(1.0 / 3.0), abs=1e-12)

    @pytest.mark.parametrize("m,predicate", [(2, 1), (3, 2), (4, 1), (4, 3)])
    def test_full_set_matches_oracle_ranking(self, m, predicate):
        rng = np.random.default_rng(100 + m + predicate)
        table = random_table(rng, m, len(LABELS))
        oracle = oracle_rank(table, predicate)
        result = decode_alone(table, len(oracle), predicate)
        assert [r.labels for r in result] == [seq for _, seq in oracle]
        for r, (score, _) in zip(result, oracle):
            assert r.log_prob == pytest.approx(score, abs=1e-9)

    def test_top3_matches_oracle_on_random_tables(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            m = int(rng.integers(2, 5))
            predicate = int(rng.integers(1, m + 1))
            table = random_table(rng, m, len(LABELS))
            oracle = oracle_rank(table, predicate)[:3]
            result = decode_alone(table, 3, predicate)
            assert [r.labels for r in result] == [seq for _, seq in oracle], f"trial {trial}"
            # extract decodes at width 1: its top-1 is the top-1 of any width.
            assert decode_alone(table, 1, predicate)[0].labels == oracle[0][1]

    def test_every_beam_sequence_is_bio_valid(self):
        rng = np.random.default_rng(7)
        table = random_table(rng, 5, len(LABELS))
        for r in decode_alone(table, 10, predicate=3):
            TaggedInstance(flat_sentence(5), 3, r)
            assert oracle_valid(r.labels, 3)

    def test_enumerator_counts(self):
        # Predicate at position 1 of 3. Position 1 takes O or a B- label
        # (B-P, B-ARG1..3): 1 prefix ends in O and 4 elsewhere. A later
        # position takes O or B-ARG1..3, plus the matching I- label after a
        # label other than O. Prefixes ending (in O, elsewhere) go from (o, x)
        # to (o + x, 3o + 4x): (1, 4) -> (5, 19) -> (24, 91), 115 in all.
        sequences = valid_sequences(3, 1)
        assert len(sequences) == 115
        # Of them, exactly 4 use only the predicate role.
        assert sum(set(seq) <= {"O", "B-P", "I-P"} for seq in sequences) == 4


class TestConfidence:
    """The extraction confidence is the width-1 decode's summed log
    probability over the sentence length; each table makes the listed tags
    the top-1."""

    @staticmethod
    def confidence(table, predicate):
        best = decode_alone(table, 1, predicate)[0]
        return best.labels, best.log_prob / table.shape[0]

    def test_probability_one_gives_zero(self):
        table = np.zeros((2, len(LABELS)))
        table[0, LABELS.index("B-ARG1")] = 1.0
        table[1, LABELS.index("B-P")] = 1.0
        assert self.confidence(table, 2) == (("B-ARG1", "B-P"), 0.0)

    def test_two_halves(self):
        table = p_only([[0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
        tags, conf = self.confidence(table, 1)
        assert tags == ("B-P", "I-P")
        assert conf == pytest.approx(math.log(0.5), abs=1e-12)

    def test_mixed_probabilities(self):
        # B-P has probability 0 at the predicate, and away from it only O of
        # nonzero probability may follow O: O O O is the one sequence of
        # finite score.
        table = p_only([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
        tags, conf = self.confidence(table, 1)
        expected = (0.0 + math.log(0.5) + math.log(0.25)) / 3
        assert tags == ("O", "O", "O")
        assert conf == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-0.6931471805599453, abs=1e-9)

    def test_length_invariance_at_equal_probability(self):
        for m in (2, 5, 9):
            table = p_only(np.tile([0.5, 0.25, 0.25], (m, 1)))
            tags, conf = self.confidence(table, 1)
            assert tags == ("O",) * m
            assert conf == pytest.approx(math.log(0.5))


def test_vocabulary_holds_unk_then_each_other_surface_once():
    # A token spelled like UNK reads as the unknown word, not a second entry.
    first = build_sentence("a", [("<unk>", "NOUN", 2, "nsubj"), ("runs", "VERB", 0, "root")])
    second = build_sentence("b", [("dogs", "NOUN", 2, "nsubj"), ("runs", "VERB", 0, "root")])
    vocab = build_vocab([first, second])
    assert vocab == [tagger.UNK, "runs", "dogs"]
    assert init_model(TINY, vocab).token_id("<unk>") == 0


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

    @pytest.mark.parametrize("damage", ["truncate", "append", "list header", "no vocab"])
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
            header = header.replace(b'"vocab"', b'"vocaz"')
        path.write_bytes(header + b"\n" + arrays)
        with pytest.raises(ParseError):
            load_model(path)

    def test_header_claiming_a_billion_layers_is_refused_within_the_bytes_it_holds(
            self, tmp_path):
        # The layout is read array by array, so refusing a short file costs
        # what the file holds, not what its header claims.
        header = {"config": dict(vars(TINY), num_encoder_layers=10**9),
                  "format": "oiekit-checkpoint-2", "vocab": [tagger.UNK, "w"]}
        path = tmp_path / "deep.ckpt"
        path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + bytes(64))
        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(ParseError, match="'embed.word' has 64 of 96 bytes"):
                load_model(path)
            elapsed = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 1_000_000

    # Words a JSON header must escape, non-ASCII words and the empty word.
    @given(st.builds(TaggerConfig, st.integers(1, 4), st.integers(1, 3), st.integers(1, 4),
                     st.integers(1, 3), st.integers(0, 2**32)),
           st.lists(st.text(st.sampled_from('a"\\\n\té\u2028日😀'), max_size=3), unique=True,
                    max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_checkpoint_is_its_header_line_then_the_arrays_in_layout_order(self, config, words):
        model = init_model(config, [tagger.UNK, *words])
        shapes = dict(tagger._param_shapes(config, len(model.vocab)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            save_model(model, path)
            data = path.read_bytes()
            loaded = load_model(path)
        header, arrays = data.split(b"\n", 1)
        assert json.loads(header) == {"config": vars(config), "format": "oiekit-checkpoint-2",
                                      "vocab": model.vocab}
        assert len(arrays) == sum(8 * math.prod(shape) for shape in shapes.values())
        assert arrays == b"".join(model.params[name].tobytes() for name in shapes)
        assert (loaded.config, loaded.vocab, list(loaded.params)) == (
            config, model.vocab, list(shapes))
        for name, shape in shapes.items():
            assert loaded.params[name].shape == shape
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

    @pytest.mark.parametrize("mode", ["none", "combined"])
    def test_batched_pass_matches_one_call_per_sentence(self, mode):
        # Sentences of several templates, in no length order: more than two
        # length-sorted chunks, each returned to sentence order.
        sentences, _ = gen_synthetic(n=2 * EXTRACT_BATCH + 1, seed=5)
        items = sum(len(identify_predicates(sentence)) for sentence in sentences)
        lengths = [len(sentence) for sentence in sentences]
        assert items > 2 * EXTRACT_BATCH
        assert lengths != sorted(lengths)
        model = init_model(TINY, build_vocab(sentences))
        model.params["cls.b"][LABELS.index("B-P")] += 2.0
        batched = extract(sentences, model)
        single = [e for s in sentences for e in extract([s], model)]
        if mode == "combined":
            scorer = make_sem_scorer("surrogate")
            batched = rerank(batched, sentences, scorer, combined=True)
            single = rerank(single, sentences, scorer, combined=True)
        key = lambda e: (e.sentence_id, e.predicate_span, e.role_spans)  # noqa: E731
        assert len(single) > 16
        assert [key(e) for e in batched] == [key(e) for e in single]
        for a, b in zip(batched, single):
            assert abs(a.confidence - b.confidence) <= 1e-12

    def test_confidence_is_the_mean_log_probability_of_the_decoded_labels(self):
        sentences, _ = gen_synthetic(n=20, seed=6)
        model = init_model(TINY, build_vocab(sentences))
        model.params["cls.b"][LABELS.index("B-P")] += 2.0
        by_id = {s.sentence_id: s for s in sentences}
        extractions = extract(sentences, model)
        assert len(extractions) > 16
        # The reference pass is extract's own: its float32-encoder copy of the model.
        inference = tagger.float32_encoder(model)
        for e in extractions:
            sentence, predicate = by_id[e.sentence_id], e.predicate_span[0]
            probs = forward([(sentence, predicate)], inference)[0][:, 0]
            best = decode_alone(probs, 1, predicate)[0]
            logs = [math.log(probs[i, LABELS.index(label)])
                    for i, label in enumerate(best.labels)]
            assert abs(e.confidence - sum(logs) / len(logs)) <= 1e-12

    def test_float32_encoder_shares_the_embedding_tables(self):
        # Casting only the gathered rows gives the bits of a copy whose
        # tables are cast whole, forward and backward.
        sentences, _ = gen_synthetic(n=12, seed=6)
        model = init_model(TINY, build_vocab(sentences))
        items = [(s, p) for s in sentences for p in identify_predicates(s)][:16]
        tables = ("embed.word", "embed.indicator")
        shared = tagger.float32_encoder(model)
        assert all(shared.params[name] is model.params[name] for name in tables)
        cast = tagger.float32_encoder(model)
        cast.params = {**cast.params,
                       **{name: model.params[name].astype(np.float32) for name in tables}}
        passes = []
        for encoder in (shared, cast):
            probs, cache = forward(items, encoder, backprop=True)
            dlogits = probs.copy()
            for b, (sentence, _) in enumerate(items):
                dlogits[len(sentence):, b] = 0.0
            passes.append((probs, tagger.backward_from_dlogits(encoder, cache, dlogits)))
        (probs, grads), (cast_probs, cast_grads) = passes
        assert len(items) == 16 and np.array_equal(probs, cast_probs)
        assert grads.keys() == cast_grads.keys()
        for name in grads:
            assert np.array_equal(grads[name], cast_grads[name]), name

    @pytest.mark.parametrize("mode", ["none", "combined"])
    def test_float32_encoder_matches_the_float64_pass(self, monkeypatch, mode):
        # A short-pretrained model, so confidences are not all near-uniform.
        train, _ = gen_synthetic(n=60, seed=8)
        held_out, _ = gen_synthetic(n=80, seed=9)
        model = init_model(TINY, build_vocab(train))
        pretrain(model, [inst for s in train for inst in generate_instances(s)],
                 TrainConfig(epochs=3, step_size=0.05, dev_fraction=0.0))
        extractions = extract(held_out, model)
        monkeypatch.setattr(tagger, "float32_encoder", lambda model: model)
        reference = extract(held_out, model)
        if mode == "combined":
            scorer = make_sem_scorer("surrogate")
            extractions = rerank(extractions, held_out, scorer, combined=True)
            reference = rerank(reference, held_out, scorer, combined=True)
        key = lambda e: (e.sentence_id, e.predicate_span, e.role_spans)  # noqa: E731
        assert len(reference) > 30
        assert [key(e) for e in extractions] == [key(e) for e in reference]
        deviation = max(abs(a.confidence - b.confidence)
                        for a, b in zip(extractions, reference))
        assert 0.0 < deviation <= 1e-6

    def test_extract_leaves_the_caller_parameters_unchanged(self, parragon):
        model = tiny_model(parragon)
        model.params["cls.b"][LABELS.index("B-P")] += 5.0
        before = {name: arr.copy() for name, arr in model.params.items()}
        arrays = dict(model.params)
        assert extract([parragon], model)
        assert model.params.keys() == before.keys()
        for name, arr in model.params.items():
            assert arr is arrays[name]
            assert arr.dtype == np.float64
            assert np.array_equal(arr, before[name]), name

    def test_rerank_confidences_follow_the_formula(self, parragon, ditrans):
        scorer = make_sem_scorer("surrogate")
        for sentence in (parragon, ditrans):
            model = init_model(TINY, build_vocab([sentence]))
            # Favour B-P so that every predicate decodes to an extraction.
            model.params["cls.b"][LABELS.index("B-P")] += 5.0
            plain = extract([sentence], model)
            sem_only = rerank(plain, [sentence], scorer, combined=False)
            combined = rerank(plain, [sentence], scorer, combined=True)
            assert plain
            assert len(sem_only) == len(combined) == len(plain)
            for base, by_sem, by_both in zip(plain, sem_only, combined):
                log_sem = math.log(max(sem_score_surrogate(base, sentence), 1e-12))
                assert by_sem.confidence == log_sem
                assert by_both.confidence == base.confidence + log_sem
                for reranked in (by_sem, by_both):
                    assert reranked.predicate_span == base.predicate_span
                    assert reranked.role_spans == base.role_spans


# A checkpoint header is JSON: 64.0 and true must not pass for dimensions.
@pytest.mark.parametrize("field,value,low", [("hidden_dim", 64.0, 1), ("embedding_dim", True, 1),
                                             ("num_encoder_layers", 0, 1),
                                             ("rng_seed", -1, 0), ("rng_seed", 13.0, 0)])
def test_config_field_that_is_not_an_integer_in_range_is_refused(field, value, low):
    with pytest.raises(ValidationError,
                       match=f"^{field} must be an integer >= {low}, got {value!r}$"):
        TaggerConfig(**{field: value})


# -- the one update rule: its logit gradient, pinned to the plain oracle -----


@pytest.mark.parametrize("batched", [True, False], ids=["one-batch", "one-at-a-time"])
def test_weighted_dlogits_is_the_plain_oracle_bit_for_bit(batched):
    # Pattern labels at weight -1/m (pretraining, one item per batch), and
    # beam candidates plus the pattern label at free weights (RL), one of
    # them zero. Bytes compare the signs of zero too.
    sentences, _ = gen_synthetic(n=30, seed=4)
    instances = [inst for s in sentences for inst in generate_instances(s)]
    model = init_model(TINY, build_vocab(sentences))
    rng = np.random.default_rng(0)
    for group in [instances] if batched else [[inst] for inst in instances]:
        probs, _ = forward([(inst.sentence, inst.predicate_index) for inst in group], model)
        labels = tagger.weighted_dlogits(
            probs, [[(inst.tags, -1.0 / len(inst.tags))] for inst in group])
        beams = tagger.beam_decode(probs, [len(inst.tags) for inst in group],
                                   [inst.predicate_index for inst in group], 3)
        rows = [[(seq, float(w)) for seq, w in zip(beam + [inst.tags],
                                                   rng.normal(size=len(beam) + 1))]
                for beam, inst in zip(beams, group)]
        rows[0][-1] = (group[0].tags, 0.0)
        candidates = tagger.weighted_dlogits(probs, rows)
        for b, inst in enumerate(group):
            m = len(inst.tags)
            expected = candidate_dlogits(probs[:m, b], [(inst.tags.labels, -1.0 / m)])
            assert labels[:m, b].tobytes() == expected.tobytes()
            expected = candidate_dlogits(probs[:m, b], [(seq.labels, w) for seq, w in rows[b]])
            assert candidates[:m, b].tobytes() == expected.tobytes()
            assert not labels[m:, b].any() and not candidates[m:, b].any()
    assert len(instances) > 30
