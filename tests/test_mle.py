import math

import numpy as np
import pytest

from oiekit import nn
from oiekit.core import TaggedInstance, TagSequence
from oiekit.corpus_io import gen_synthetic
from oiekit.evaluate import evaluate
from oiekit.mle import (
    NonFiniteLoss,
    TrainConfig,
    grad_check,
    instance_grads,
    mle_loss,
    pretrain,
)
from oiekit.patterns import generate_instances
from oiekit.tagger import TaggerConfig, build_vocab, extract, init_model

from conftest import build_sentence, flat_sentence

TINY = TaggerConfig(embedding_dim=6, indicator_dim=3, hidden_dim=5,
                    num_encoder_layers=2, rng_seed=3)


@pytest.fixture
def svo_instance():
    sentence = build_sentence("svo", [
        ("alice", "NOUN", 2, "nsubj"),
        ("feeds", "VERB", 0, "root"),
        ("cats", "NOUN", 2, "obj"),
        (".", "PUNCT", 2, "punct"),
    ])
    return TaggedInstance(sentence, 2, TagSequence(("B-ARG1", "B-P", "B-ARG2", "O")))


def zeroed_classifier(model):
    model.params["cls.w"][...] = 0.0
    model.params["cls.b"][...] = 0.0
    return model


class TestMleLoss:
    def test_certain_model_has_zero_loss(self):
        sentence = flat_sentence(4)
        model = zeroed_classifier(init_model(TINY, build_vocab([sentence])))
        model.params["cls.b"][0] = 1000.0  # label column 0 is O
        instance = TaggedInstance(sentence, 1, TagSequence(("O", "O", "O", "O")))
        assert mle_loss(model, instance) == 0.0

    def test_uniform_model_loss_is_m_log_l(self):
        sentence = flat_sentence(5)
        model = zeroed_classifier(init_model(TINY, build_vocab([sentence])))
        instance = TaggedInstance(sentence, 2, TagSequence(("O", "B-P", "O", "O", "O")))
        assert mle_loss(model, instance) == pytest.approx(5 * math.log(9), abs=1e-9)

    def test_hand_set_distribution_table(self):
        # Bias log([2,1,...,1]) makes every position's distribution
        # (0.2, 0.1 x 8); gold labels O then B-P give -(log .2 + log .1).
        sentence = flat_sentence(2)
        model = zeroed_classifier(init_model(TINY, build_vocab([sentence])))
        model.params["cls.b"][0] = math.log(2.0)
        instance = TaggedInstance(sentence, 2, TagSequence(("O", "B-P")))
        expected = -(math.log(0.2) + math.log(0.1))
        assert mle_loss(model, instance) == pytest.approx(expected, abs=1e-9)

    def test_loss_nonnegative_for_random_models(self, svo_instance):
        for seed in range(5):
            config = TaggerConfig(embedding_dim=6, indicator_dim=3, hidden_dim=5,
                                  num_encoder_layers=2, rng_seed=seed)
            model = init_model(config, build_vocab([svo_instance.sentence]))
            assert mle_loss(model, svo_instance) >= 0.0

    def test_zero_probability_clamped_with_warning(self):
        sentence = flat_sentence(2)
        model = zeroed_classifier(init_model(TINY, build_vocab([sentence])))
        model.params["cls.b"][0] = 1000.0
        instance = TaggedInstance(sentence, 2, TagSequence(("O", "B-P")))
        with pytest.warns(RuntimeWarning):
            loss = mle_loss(model, instance)
        assert math.isfinite(loss)


class TestGradCheck:
    def test_analytic_matches_finite_differences(self, svo_instance):
        model = init_model(TINY, build_vocab([svo_instance.sentence]))
        worst = grad_check(model, svo_instance, epsilon=1e-4,
                           rng=np.random.default_rng(0), samples_per_array=6)
        assert worst < 1e-3

    def test_loss_reproduced_exactly_without_perturbation(self, svo_instance):
        model = init_model(TINY, build_vocab([svo_instance.sentence]))
        assert mle_loss(model, svo_instance) == mle_loss(model, svo_instance)

    def test_gradients_cover_every_parameter(self, svo_instance):
        model = init_model(TINY, build_vocab([svo_instance.sentence]))
        _, grads = instance_grads(model, svo_instance)
        assert set(grads) == set(model.params)


class TestPretrain:
    def small_corpus(self):
        sentences, _ = gen_synthetic(("svo",), 40, seed=5)
        return [inst for s in sentences for inst in generate_instances(s)]

    def test_identical_trajectories_per_seed(self, tmp_path):
        corpus = self.small_corpus()
        runs = []
        for _ in range(2):
            model = init_model(TaggerConfig(embedding_dim=8, indicator_dim=4,
                                            hidden_dim=8, num_encoder_layers=2,
                                            rng_seed=5),
                               build_vocab(corpus))
            runs.append(pretrain(model, corpus, TrainConfig(epochs=3, rng_seed=5)))
        assert runs[0] == runs[1]

    def test_different_seed_changes_trajectory(self):
        corpus = self.small_corpus()
        losses = []
        for seed in (5, 6):
            model = init_model(TaggerConfig(embedding_dim=8, indicator_dim=4,
                                            hidden_dim=8, num_encoder_layers=2,
                                            rng_seed=seed),
                               build_vocab(corpus))
            metrics = pretrain(model, corpus, TrainConfig(epochs=2, rng_seed=seed))
            losses.append([row["train_loss"] for row in metrics])
        assert losses[0] != losses[1]

    def test_zero_dev_fraction_trains_on_every_instance(self, monkeypatch, svo_instance):
        other = TaggedInstance(flat_sentence(3, "other"), 1, TagSequence(("B-P", "O", "O")))
        corpus = [svo_instance, other]
        steps = []
        real_step = nn.Adam.step

        def counting_step(optimizer, grads):
            steps.append(optimizer.t)
            real_step(optimizer, grads)

        monkeypatch.setattr(nn.Adam, "step", counting_step)
        model = init_model(TINY, build_vocab(corpus))
        metrics = pretrain(model, corpus, TrainConfig(epochs=1, batch_size=1, dev_fraction=0.0))
        assert len(steps) == 2
        assert metrics[0]["dev_loss"] is None
        assert metrics[0]["dev_f1"] is None

    def test_empty_corpus_rejected(self):
        model = init_model(TINY, ["<unk>"])
        with pytest.raises(Exception):
            pretrain(model, [], TrainConfig(epochs=1))

    def test_nonfinite_parameters_abort(self):
        corpus = self.small_corpus()
        model = init_model(TINY, build_vocab(corpus))
        model.params["cls.w"][0, 0] = float("nan")
        with pytest.raises(NonFiniteLoss, match="epoch 1, sentence '"):
            pretrain(model, corpus, TrainConfig(epochs=1))

    def test_zero_probability_warning_names_the_sentence(self):
        sentence = flat_sentence(2, sentence_id="clamped")
        model = zeroed_classifier(init_model(TINY, build_vocab([sentence])))
        model.params["cls.b"][0] = 1000.0
        instance = TaggedInstance(sentence, 2, TagSequence(("O", "B-P")))
        with pytest.warns(RuntimeWarning, match="sentence 'clamped'"):
            pretrain(model, [instance], TrainConfig(epochs=1), dev=[instance])

    def test_training_reaches_high_heldout_f1_in_pattern(self):
        train_sentences, _ = gen_synthetic(("svo", "svo_pp", "ditrans"), 300, seed=11)
        dev_sentences, dev_gold = gen_synthetic(("svo", "svo_pp", "ditrans"), 60, seed=99)
        corpus = [inst for s in train_sentences for inst in generate_instances(s)]
        model = init_model(TaggerConfig(rng_seed=13), build_vocab(corpus))
        pretrain(model, corpus, TrainConfig(epochs=15, rng_seed=13))
        preds = [e for s in dev_sentences for e in extract([s], model)]
        assert evaluate(preds, dev_gold).best_f1 >= 0.9
