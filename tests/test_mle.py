import math

import numpy as np
import pytest

from oiekit import mle, nn, tagger
from oiekit.core import (NonFiniteValue, NoPredicateSpan, TaggedInstance, TagSequence,
                         ValidationError, spans_from_tags)
from oiekit.corpus_io import gen_synthetic
from oiekit.evaluate import evaluate, gold_from_instance
from oiekit.mle import TrainConfig, instance_grads, mle_loss, pretrain
from oiekit.patterns import generate_instances
from oiekit.tagger import (TaggerConfig, build_vocab, extract, init_model, load_model,
                           save_model)

from conftest import build_sentence, decode_alone, flat_sentence
from oracles import max_central_difference_error, relative_error

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
        _, grads = instance_grads(model, svo_instance)
        worst = max_central_difference_error(lambda: mle_loss(model, svo_instance), model.params,
                                             grads, np.random.default_rng(0), samples_per_array=6)
        assert worst < 1e-3

    def test_loss_reproduced_exactly_without_perturbation(self, svo_instance):
        model = init_model(TINY, build_vocab([svo_instance.sentence]))
        assert mle_loss(model, svo_instance) == mle_loss(model, svo_instance)

    def test_gradients_cover_every_parameter(self, svo_instance):
        model = init_model(TINY, build_vocab([svo_instance.sentence]))
        _, grads = instance_grads(model, svo_instance)
        assert set(grads) == set(model.params)


def _adam_and_grads():
    """An Adam that has taken one step (so its moments are non-zero), and
    a finite gradient for its next step."""
    rng = np.random.default_rng(0)
    params = {"w": rng.normal(size=(3, 4)), "b": rng.normal(size=4)}
    optimizer = nn.Adam(params, step_size=0.1)
    optimizer.step({name: rng.normal(size=arr.shape) for name, arr in params.items()})
    return optimizer, {name: rng.normal(size=arr.shape) for name, arr in params.items()}


def _adam_state(optimizer):
    return optimizer.t, [{name: arr.tobytes() for name, arr in arrays.items()}
                         for arrays in (optimizer.params, optimizer.m, optimizer.v)]


# One NaN, one infinity, one finite entry whose square overflows, and finite
# squares (1e308 each) whose sum overflows.
@pytest.mark.parametrize("entries,value", [(1, float("nan")), (1, float("inf")), (1, 1e200),
                                           (12, 1e154)], ids=["nan", "inf", "square", "sum"])
def test_adam_step_with_a_non_finite_norm_changes_nothing(entries, value):
    optimizer, grads = _adam_and_grads()
    grads["w"].reshape(-1)[:entries] = value
    before = _adam_state(optimizer)
    assert not math.isfinite(optimizer.step(grads))
    assert _adam_state(optimizer) == before


def test_adam_step_returns_the_squared_gradient_norm():
    optimizer, grads = _adam_and_grads()
    expected = sum(float((grad * grad).sum()) for grad in grads.values())
    before = _adam_state(optimizer)
    assert optimizer.step(grads) == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert _adam_state(optimizer) != before and optimizer.t == 2


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
            return real_step(optimizer, grads)

        monkeypatch.setattr(nn.Adam, "step", counting_step)
        model = init_model(TINY, build_vocab(corpus))
        metrics = pretrain(model, corpus, TrainConfig(epochs=1, batch_size=1, dev_fraction=0.0))
        assert len(steps) == 2
        assert metrics[0]["dev_loss"] is None
        assert metrics[0]["dev_f1"] is None

    def test_early_stopping_restores_the_best_epoch(self, monkeypatch, svo_instance):
        # Dev loss improves once and then worsens: with patience 2, training
        # stops after epoch 4 and restores the parameters of epoch 2.
        dev_losses = iter([1.0, 0.5, 0.7, 0.9, 0.4])
        seen = []

        def scripted_dev_metrics(model, dev, batch_size):
            seen.append({name: arr.copy() for name, arr in model.params.items()})
            return next(dev_losses), 0.0

        monkeypatch.setattr(mle, "_dev_metrics", scripted_dev_metrics)
        model = init_model(TINY, build_vocab([svo_instance.sentence]))
        metrics = pretrain(model, [svo_instance], TrainConfig(epochs=5, patience=2),
                           dev=[svo_instance])
        assert [row["dev_loss"] for row in metrics] == [1.0, 0.5, 0.7, 0.9]
        assert not np.array_equal(seen[3]["cls.w"], seen[1]["cls.w"])
        for name, arr in model.params.items():
            assert arr.tobytes() == seen[1][name].tobytes(), name

    def test_parameters_adam_and_checkpoint_stay_float64(self, monkeypatch, tmp_path):
        optimizers = []
        real_step = nn.Adam.step

        def recording_step(optimizer, grads):
            optimizers.append(optimizer)
            return real_step(optimizer, grads)

        monkeypatch.setattr(nn.Adam, "step", recording_step)
        corpus = self.small_corpus()
        model = init_model(TINY, build_vocab(corpus))
        arrays = dict(model.params)
        pretrain(model, corpus, TrainConfig(epochs=2))
        assert optimizers
        for name, arr in model.params.items():
            assert arr is arrays[name], name
            assert arr.dtype == np.float64, name
            assert optimizers[-1].m[name].dtype == optimizers[-1].v[name].dtype == np.float64
        save_model(model, tmp_path / "model.ckpt")
        loaded = load_model(tmp_path / "model.ckpt")
        for name, arr in model.params.items():
            assert loaded.params[name].dtype == np.float64, name
            assert np.array_equal(loaded.params[name], arr), name

    def test_float32_pretraining_agrees_with_the_float64_path(self, monkeypatch):
        # The float64 path is the same code with the float32 encoder copy
        # replaced by the model itself.
        train, _ = gen_synthetic(n=60, seed=8)
        held_out, _ = gen_synthetic(n=80, seed=9)
        corpus = [inst for s in train for inst in generate_instances(s)]
        runs = []
        for encoder in (tagger.float32_encoder, lambda model: model):
            monkeypatch.setattr(tagger, "float32_encoder", encoder)
            model = init_model(TINY, build_vocab(corpus))
            rows = pretrain(model, corpus, TrainConfig(epochs=3, step_size=0.05))
            runs.append((model, [row["dev_f1"] for row in rows]))
        monkeypatch.undo()
        (model32, f1s32), (model64, f1s64) = runs
        assert f1s32 == f1s64
        key = lambda e: (e.sentence_id, e.predicate_span, e.role_spans)  # noqa: E731
        reference = extract(held_out, model64)
        assert len(reference) > 30
        assert [key(e) for e in extract(held_out, model32)] == [key(e) for e in reference]
        errors = {name: relative_error(model32.params[name], model64.params[name])
                  for name in model64.params}
        assert 0.0 < max(errors.values()) <= 1e-4, errors

    def test_dev_f1_is_the_best_f1_of_the_top1_decodes(self, monkeypatch):
        # The statistic rl-train reports: the best F1 over the confidence
        # sweep, here above the F1 of the full prediction set.
        train, _ = gen_synthetic(n=60, seed=8)
        corpus = [inst for s in train for inst in generate_instances(s)]
        dev = corpus[:40]
        dev_params = []
        real_dev_metrics = mle._dev_metrics

        def recording_dev_metrics(model, dev, batch_size):
            dev_params.append({name: arr.copy() for name, arr in model.params.items()})
            return real_dev_metrics(model, dev, batch_size)

        monkeypatch.setattr(mle, "_dev_metrics", recording_dev_metrics)
        model = init_model(TINY, build_vocab(corpus))
        rows = pretrain(model, corpus, TrainConfig(epochs=2, step_size=0.1), dev=dev)
        model.params = dev_params[-1]
        preds, golds = [], []
        for inst in dev:
            golds.append(gold_from_instance(inst))
            probs = tagger.forward([(inst.sentence, inst.predicate_index)], model)[0][:, 0]
            best = decode_alone(probs, 1, inst.predicate_index)[0]
            try:
                preds.append(spans_from_tags(TaggedInstance(inst.sentence, inst.predicate_index,
                                                            best)))
            except NoPredicateSpan:
                pass
        report = evaluate(preds, golds)
        recall, precision = report.pr_points[-1]
        assert report.best_f1 > 2 * precision * recall / (precision + recall)
        assert rows[-1]["dev_f1"] == pytest.approx(report.best_f1, abs=1e-12)

    def test_empty_corpus_rejected(self):
        model = init_model(TINY, ["<unk>"])
        with pytest.raises(Exception):
            pretrain(model, [], TrainConfig(epochs=1))

    def test_nonfinite_parameters_abort(self):
        corpus = self.small_corpus()
        model = init_model(TINY, build_vocab(corpus))
        model.params["cls.w"][0, 0] = float("nan")
        with pytest.raises(NonFiniteValue, match="epoch 1, sentence '"):
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


def test_negative_seed_is_refused_by_name():
    with pytest.raises(ValidationError, match="^rng_seed must be >= 0, got -1$"):
        TrainConfig(rng_seed=-1)
