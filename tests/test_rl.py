import math
from collections import Counter

import numpy as np
import pytest

from oiekit import nn, tagger
from oiekit.core import LABELS, TaggedInstance, TagSequence, ValidationError
from oiekit.corpus_io import gen_synthetic
from oiekit.evaluate import evaluate
from oiekit.patterns import identify_predicates
from oiekit.reward import SemScorer
from oiekit.rl import (
    RLConfig,
    _sample_sequences,
    candidate_reward,
    explore,
    reinforce_step,
    train_rl,
)
from oiekit.tagger import (
    TaggerConfig,
    allowed_labels,
    build_vocab,
    extract,
    forward,
    init_model,
)

from conftest import decode_alone, flat_sentence
from oracles import (exact_policy_gradient, expected_reward_oracle,
                     max_central_difference_error, valid_sequences)

TINY = TaggerConfig(embedding_dim=6, indicator_dim=3, hidden_dim=5,
                    num_encoder_layers=2, rng_seed=3)


def params_snapshot(model):
    return {name: arr.copy() for name, arr in model.params.items()}


def params_equal(a, b):
    return all(np.array_equal(a[name], b[name]) for name in a)


def bias_only_model(sentence, probs_by_label):
    """Zero classifier weights plus a log-probability bias make every
    position's label distribution equal to ``probs_by_label`` over O, B-P
    and I-P; a bias of -inf gives every argument-role label probability 0."""
    model = init_model(TINY, build_vocab([sentence]))
    model.params["cls.w"][...] = 0.0
    model.params["cls.b"][...] = -math.inf
    for label, p in zip(("O", "B-P", "I-P"), probs_by_label):
        model.params["cls.b"][LABELS.index(label)] = math.log(p)
    return model


class TestExplore:
    def test_beam_mode_equals_beam_decode(self):
        sentence = flat_sentence(4)
        model = init_model(TINY, build_vocab([sentence]))
        probs = forward([(sentence, 2)], model)[0][:, 0]
        assert explore(probs, 2, 3) == decode_alone(probs, 3, 2)

    def test_sampling_mode_yields_valid_sequences(self):
        sentence = flat_sentence(5)
        model = init_model(TINY, build_vocab([sentence]))
        rng = np.random.default_rng(4)
        probs = forward([(sentence, 3)], model)[0][:, 0]
        for seq in explore(probs, 3, 4, mode="sample", rng=rng):
            TaggedInstance(sentence, 3, seq)

    def test_sampling_deterministic_per_seed(self):
        sentence = flat_sentence(5)
        model = init_model(TINY, build_vocab([sentence]))
        probs = forward([(sentence, 3)], model)[0][:, 0]
        a = explore(probs, 3, 4, mode="sample", rng=np.random.default_rng(4))
        b = explore(probs, 3, 4, mode="sample", rng=np.random.default_rng(4))
        assert a == b


def test_sampler_follows_the_locally_renormalised_distribution():
    # Each position draws from the table's row renormalised over the labels
    # the constraints allow after the previous one.
    m, predicate = 3, 2
    table = np.random.default_rng(0).uniform(0.05, 1.0, (m, len(LABELS)))
    table /= table.sum(axis=1, keepdims=True)
    expected = {}
    for seq in valid_sequences(m, predicate):
        p, prev = 1.0, "O"
        for position, label in enumerate(seq, start=1):
            allowed = [LABELS.index(a) for a in allowed_labels(prev, position, predicate)]
            p *= table[position - 1, LABELS.index(label)] / table[position - 1, allowed].sum()
            prev = label
        expected[seq] = p
    assert sum(expected.values()) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(7)
    draws = 4000
    counts = Counter(seq.labels for _ in range(draws)
                     for seq in _sample_sequences(table, 1, predicate, rng))
    assert set(counts) <= set(expected)
    assert max(abs(counts[seq] / draws - p) for seq, p in expected.items()) <= 0.03


class TestReinforceStep:
    def test_zero_reward_single_candidate_baseline_off(self):
        sentence = flat_sentence(3)
        model = init_model(TINY, build_vocab([sentence]))
        optimizer = nn.Adam(model.params)
        before = params_snapshot(model)
        probs, cache = forward([(sentence, 2)], model, backprop=True)
        candidates = explore(probs[:, 0], 2, 1)
        norm = reinforce_step(model, optimizer, sentence, cache, candidates, [0.0],
                              baseline_mode="off")
        assert norm == 0.0
        assert params_equal(before, model.params)

    def test_equal_rewards_mean_baseline_cancel(self):
        sentence = flat_sentence(3)
        model = init_model(TINY, build_vocab([sentence]))
        optimizer = nn.Adam(model.params)
        before = params_snapshot(model)
        probs, cache = forward([(sentence, 2)], model, backprop=True)
        candidates = explore(probs[:, 0], 2, 2)
        norm = reinforce_step(model, optimizer, sentence, cache, candidates, [0.7, 0.7],
                              baseline_mode="mean")
        assert norm == 0.0
        assert params_equal(before, model.params)

    def test_single_candidate_mean_baseline_is_frozen(self):
        sentence = flat_sentence(3)
        model = init_model(TINY, build_vocab([sentence]))
        optimizer = nn.Adam(model.params)
        before = params_snapshot(model)
        probs, cache = forward([(sentence, 2)], model, backprop=True)
        candidates = explore(probs[:, 0], 2, 1)
        reinforce_step(model, optimizer, sentence, cache, candidates, [0.9],
                       baseline_mode="mean")
        assert params_equal(before, model.params)

    def test_nonzero_advantage_moves_parameters(self):
        sentence = flat_sentence(3)
        model = init_model(TINY, build_vocab([sentence]))
        optimizer = nn.Adam(model.params)
        before = params_snapshot(model)
        probs, cache = forward([(sentence, 2)], model, backprop=True)
        candidates = explore(probs[:, 0], 2, 2)
        norm = reinforce_step(model, optimizer, sentence, cache, candidates, [1.0, -1.0],
                              baseline_mode="mean")
        assert norm > 0.0
        assert not params_equal(before, model.params)


class TestExpectedRewardOracle:
    # Distribution (O .2, B-P .5, I-P .3, every argument role 0) at both
    # positions, predicate 1. Valid sequences of nonzero probability:
    #   [O, O]      .2 * .2 = .04
    #   [B-P, O]    .5 * .2 = .10
    #   [B-P, I-P]  .5 * .3 = .15

    def reward_table(self, seq):
        # The sequences with an argument role have probability 0 (reward 0).
        return {("O", "O"): 0.0, ("B-P", "O"): 0.5,
                ("B-P", "I-P"): -0.25}.get(seq.labels, 0.0)

    def test_constant_one_gives_valid_mass(self):
        sentence = flat_sentence(2)
        model = bias_only_model(sentence, (0.2, 0.5, 0.3))
        mass = expected_reward_oracle(model, sentence, 1, lambda seq: 1.0)
        assert mass == pytest.approx(0.29, abs=1e-12)

    def test_constant_zero(self):
        sentence = flat_sentence(2)
        model = bias_only_model(sentence, (0.2, 0.5, 0.3))
        assert expected_reward_oracle(model, sentence, 1, lambda seq: 0.0) == 0.0

    def test_hand_arithmetic(self):
        sentence = flat_sentence(2)
        model = bias_only_model(sentence, (0.2, 0.5, 0.3))
        # .04*0 + .10*.5 + .15*(-.25) = .05 - .0375 = .0125
        value = expected_reward_oracle(model, sentence, 1, self.reward_table)
        assert value == pytest.approx(0.0125, abs=1e-9)

    def test_enumeration_bound(self):
        sentence = flat_sentence(7)
        model = init_model(TINY, build_vocab([sentence]))
        with pytest.raises(Exception):
            expected_reward_oracle(model, sentence, 1, lambda seq: 1.0)


def hand_reward(seq):
    """Deterministic, label-dependent reward spreading over [-1, 1]."""
    total = sum((i + 1) * len(lab) for i, lab in enumerate(seq.labels))
    return (total % 7) / 3.0 - 1.0


class TestPolicyGradientCorrectness:
    @pytest.mark.parametrize("predicate", [1, 2])
    def test_score_function_matches_finite_differences(self, predicate):
        sentence = flat_sentence(3)
        model = init_model(TINY, build_vocab([sentence]))
        analytic = exact_policy_gradient(model, sentence, predicate, hand_reward)
        worst = max_central_difference_error(
            lambda: expected_reward_oracle(model, sentence, predicate, hand_reward),
            model.params, analytic, np.random.default_rng(17), samples_per_array=4)
        assert worst < 1e-3


class TestTrainRl:
    def small_pretrained(self):
        sentences, _ = gen_synthetic(("svo", "coord_vp"), 30, seed=21)
        model = init_model(TaggerConfig(embedding_dim=8, indicator_dim=4, hidden_dim=8,
                                        num_encoder_layers=2, rng_seed=9),
                           build_vocab(sentences))
        return model, sentences

    def test_deterministic_per_seed(self):
        runs = []
        for _ in range(2):
            model, sentences = self.small_pretrained()
            metrics = train_rl(model, sentences, SemScorer(),
                               RLConfig(epochs=2, rng_seed=3))
            runs.append((metrics, params_snapshot(model)))
        assert runs[0][0] == runs[1][0]
        assert params_equal(runs[0][1], runs[1][1])

    def test_beam_one_with_mean_baseline_never_updates(self):
        model, sentences = self.small_pretrained()
        before = params_snapshot(model)
        train_rl(model, sentences, SemScorer(),
                 RLConfig(epochs=1, beam_size=1, baseline_mode="mean", rng_seed=3))
        assert params_equal(before, model.params)

    def test_logs_reward_components(self):
        model, sentences = self.small_pretrained()
        metrics = train_rl(model, sentences, SemScorer(), RLConfig(epochs=1, rng_seed=3))
        row = metrics[0]
        assert set(row) == {"epoch", "mean_reward", "mean_syn", "mean_sem",
                            "dev_mean_reward", "dev_f1"}
        assert -1.0 <= row["mean_reward"] <= 1.0

    def test_dev_metrics_when_gold_given(self):
        model, sentences = self.small_pretrained()
        dev_sentences, dev_gold = gen_synthetic(("svo",), 8, seed=77)
        metrics = train_rl(model, sentences, SemScorer(),
                           RLConfig(epochs=1, rng_seed=3),
                           dev=(dev_sentences, dev_gold))
        assert metrics[0]["dev_mean_reward"] is not None
        assert metrics[0]["dev_f1"] is not None

    @pytest.mark.parametrize("with_dev", [False, True])
    def test_one_forward_per_sentence_and_predicate(self, monkeypatch, with_dev):
        model, sentences = self.small_pretrained()
        dev_sentences, dev_gold = gen_synthetic(("svo", "coord_vp"), 8, seed=77)
        calls = Counter()
        real_forward = tagger.forward

        def counting_forward(items, model, **kwargs):
            for sentence, predicate in items:
                calls[sentence.sentence_id, predicate] += 1
            return real_forward(items, model, **kwargs)

        # train_rl runs each item as a batch of one, so this counts every encoded item.
        monkeypatch.setattr(tagger, "forward", counting_forward)
        train_rl(model, sentences, SemScorer(), RLConfig(epochs=2, rng_seed=3),
                 dev=(dev_sentences, dev_gold) if with_dev else None)
        expected = Counter()
        for sentence in sentences + (dev_sentences if with_dev else []):
            for predicate in identify_predicates(sentence):
                expected[sentence.sentence_id, predicate] += 2  # once per epoch
        assert calls == expected

    def test_epoch_matches_two_forward_reference(self):
        config = RLConfig(epochs=1, baseline_mode="off", rng_seed=3)
        dev_sentences, dev_gold = gen_synthetic(("svo", "coord_vp"), 8, seed=77)
        model, sentences = self.small_pretrained()
        metrics = train_rl(model, sentences, SemScorer(), config,
                           dev=(dev_sentences, dev_gold))
        reference, ref_sentences = self.small_pretrained()
        ref_row = reference_epoch(reference, ref_sentences, SemScorer(), config,
                                  dev_sentences, dev_gold)
        assert metrics == [ref_row]
        assert reference.params.keys() == model.params.keys()
        for name, arr in model.params.items():
            assert arr.tobytes() == reference.params[name].tobytes(), name


def reference_epoch(model, sentences, scorer, config, dev_sentences, dev_gold):
    """One epoch of policy-gradient training written out step by step, with
    a forward pass for exploration and another for the update, and a dev
    reward from a forward pass of its own per dev predicate."""
    rng = np.random.default_rng(config.rng_seed)
    optimizer = nn.Adam(model.params, step_size=config.step_size)
    rewards = []
    for idx in rng.permutation(len(sentences)):
        sentence = sentences[idx]
        for predicate in identify_predicates(sentence):
            probs = forward([(sentence, predicate)], model)[0][:, 0]
            candidates = decode_alone(probs, config.beam_size, predicate)
            breakdowns = [candidate_reward(c, sentence, predicate, scorer) for c in candidates]
            _, cache = forward([(sentence, predicate)], model, backprop=True)
            reinforce_step(model, optimizer, sentence, cache, candidates,
                           [b.total for b in breakdowns], config.baseline_mode)
            rewards.extend(breakdowns)
    dev_total = 0.0
    dev_count = 0
    for sentence in dev_sentences:
        for predicate in identify_predicates(sentence):
            probs = forward([(sentence, predicate)], model)[0][:, 0]
            best = decode_alone(probs, 3, predicate)[0]
            dev_total += candidate_reward(best, sentence, predicate, scorer).total
            dev_count += 1
    preds = [e for sentence in dev_sentences for e in extract([sentence], model)]
    mean = lambda values: sum(values, 0.0) / len(values)  # noqa: E731
    return {
        "epoch": 1,
        "mean_reward": mean([b.total for b in rewards]),
        "mean_syn": mean([b.syn for b in rewards]),
        "mean_sem": mean([b.sem for b in rewards]),
        "dev_mean_reward": dev_total / dev_count,
        "dev_f1": evaluate(preds, dev_gold).best_f1,
    }


@pytest.mark.parametrize("field,value", [("baseline_mode", "median"), ("explore_mode", "greedy"),
                                         ("beam_size", 0), ("rng_seed", -1)])
def test_out_of_range_config_is_a_validation_error(field, value):
    with pytest.raises(ValidationError, match=field.split("_")[0]):
        RLConfig(**{field: value})


def test_candidate_without_predicate_span_gets_zero_reward(parragon):
    candidate = TagSequence(tuple(["O"] * 11))
    breakdown = candidate_reward(candidate, parragon, 2, SemScorer())
    assert breakdown.syn == -1
    assert breakdown.sem == 0.0
    assert breakdown.total == 0.0
