"""The batched encoder pinned to the per-item path it replaced.

The reference below is the unbatched LSTM: one item at a time, vector
state, ``x[::-1]`` for the backward direction. At B = 1 the batched
functions must give the same bits. For a mixed-length batch each item must
match its own B = 1 pass, and the batch gradient the sum of the per-item
gradients, to float tolerance (a (B, H) matrix product rounds differently
from a vector product).
"""

import numpy as np
import pytest

from oiekit import nn, tagger
from oiekit.core import LABELS, TaggedInstance, TagSequence
from oiekit.mle import TrainConfig, instance_grads, pretrain
from oiekit.tagger import (
    TaggerConfig,
    backward_from_dlogits,
    build_vocab,
    embed,
    forward,
    init_model,
)

from conftest import build_sentence
from oracles import relative_error

TOLERANCE = 1e-12


# -- reference: the per-item, vector-state LSTM -----------------------------


def ref_lstm_forward(x, wx, wh, b):
    m = x.shape[0]
    h_dim = wh.shape[0]
    xw = x @ wx + b
    sig_all = np.empty((m, 3 * h_dim))
    g_all = np.empty((m, h_dim))
    c_all = np.empty((m, h_dim))
    tc_all = np.empty((m, h_dim))
    h_all = np.empty((m, h_dim))
    h = np.zeros(h_dim)
    c = np.zeros(h_dim)
    for t in range(m):
        z = xw[t] + h @ wh
        sig = nn.sigmoid(z[: 3 * h_dim])
        g = np.tanh(z[3 * h_dim :])
        i = sig[:h_dim]
        f = sig[h_dim : 2 * h_dim]
        o = sig[2 * h_dim :]
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        sig_all[t], g_all[t] = sig, g
        c_all[t], tc_all[t], h_all[t] = c, tc, h
    return h_all, (x, wx, wh, sig_all, g_all, c_all, tc_all, h_all)


def ref_lstm_backward(dh_out, cache):
    x, wx, wh, sig_all, g_all, c_all, tc_all, h_all = cache
    m, h_dim = dh_out.shape
    dz_all = np.empty((m, 4 * h_dim))
    dh_next = np.zeros(h_dim)
    dc_next = np.zeros(h_dim)
    zeros = np.zeros(h_dim)
    for t in range(m - 1, -1, -1):
        dh = dh_out[t] + dh_next
        sig = sig_all[t]
        i = sig[:h_dim]
        f = sig[h_dim : 2 * h_dim]
        o = sig[2 * h_dim :]
        g = g_all[t]
        tc = tc_all[t]
        dc = dh * o * (1.0 - tc * tc) + dc_next
        c_prev = c_all[t - 1] if t > 0 else zeros
        dz = dz_all[t]
        dz[:h_dim] = dc * g * i * (1.0 - i)
        dz[h_dim : 2 * h_dim] = dc * c_prev * f * (1.0 - f)
        dz[2 * h_dim : 3 * h_dim] = dh * tc * o * (1.0 - o)
        dz[3 * h_dim :] = dc * i * (1.0 - g * g)
        dc_next = dc * f
        dh_next = wh @ dz
    h_prevs = np.vstack([zeros[None, :], h_all[:-1]])
    return dz_all @ wx.T, x.T @ dz_all, h_prevs.T @ dz_all, dz_all.sum(axis=0)


def ref_bilstm_forward(x, params, prefix):
    h_fw, cache_fw = ref_lstm_forward(x, params[f"{prefix}.fw.wx"], params[f"{prefix}.fw.wh"],
                                      params[f"{prefix}.fw.b"])
    h_bw_rev, cache_bw = ref_lstm_forward(x[::-1], params[f"{prefix}.bw.wx"],
                                          params[f"{prefix}.bw.wh"], params[f"{prefix}.bw.b"])
    return np.concatenate([h_fw, h_bw_rev[::-1]], axis=1), (cache_fw, cache_bw)


def ref_bilstm_backward(dh, caches, grads, prefix):
    h_dim = dh.shape[1] // 2
    cache_fw, cache_bw = caches
    dx_fw, *fw = ref_lstm_backward(dh[:, :h_dim], cache_fw)
    dx_bw_rev, *bw = ref_lstm_backward(np.ascontiguousarray(dh[:, h_dim:][::-1]), cache_bw)
    for direction, (dwx, dwh, db) in (("fw", fw), ("bw", bw)):
        grads[f"{prefix}.{direction}.wx"] = dwx
        grads[f"{prefix}.{direction}.wh"] = dwh
        grads[f"{prefix}.{direction}.b"] = db
    return dx_fw + dx_bw_rev[::-1]


def ref_forward(sentence, predicate, model):
    x = embed([(sentence, predicate)], model)[0][:, 0]
    layers = []
    for layer in range(model.config.num_encoder_layers):
        prefix = f"enc.{layer}"
        core, caches = ref_bilstm_forward(x, model.params, prefix)
        out, gate = (nn.highway_forward(x, core, model.params, prefix) if layer > 0
                     else (core, None))
        layers.append((x, core, gate, caches))
        x = out
    logits = x @ model.params["cls.w"] + model.params["cls.b"]
    return nn.softmax_rows(logits), (sentence, predicate, layers, x)


def ref_backward(model, cache, dlogits):
    sentence, predicate, layers, h_top = cache
    params = model.params
    grads = {"cls.w": h_top.T @ dlogits, "cls.b": dlogits.sum(axis=0)}
    dx = dlogits @ params["cls.w"].T
    for layer in range(len(layers) - 1, -1, -1):
        prefix = f"enc.{layer}"
        x, core, gate, caches = layers[layer]
        if gate is not None:
            dx, dcore = nn.highway_backward(dx, x, core, gate, params, grads, prefix)
            dx = dx + ref_bilstm_backward(dcore, caches, grads, prefix)
        else:
            dx = ref_bilstm_backward(dx, caches, grads, prefix)
    cfg = model.config
    ids = np.array([model.token_id(t.surface) for t in sentence.tokens])
    grads["embed.word"] = np.zeros_like(params["embed.word"])
    np.add.at(grads["embed.word"], ids, dx[:, : cfg.embedding_dim])
    flags = np.array([1 if t.index == predicate else 0 for t in sentence.tokens])
    grads["embed.indicator"] = np.zeros_like(params["embed.indicator"])
    np.add.at(grads["embed.indicator"], flags, dx[:, cfg.embedding_dim :])
    return grads


# -- fixtures ---------------------------------------------------------------


SMALL = TaggerConfig(embedding_dim=6, indicator_dim=3, hidden_dim=5,
                     num_encoder_layers=2, rng_seed=3)
DEFAULT = TaggerConfig(rng_seed=7)


def sentence_of(m, tag):
    rows = [(f"{tag}w1", "NOUN", 0, "root")]
    rows += [(f"{tag}w{i}", "NOUN", 1, "dep") for i in range(2, m + 1)]
    return build_sentence(f"s{tag}", rows)


def items_of(lengths):
    """(sentence, predicate) items of the given lengths, predicate inside each."""
    return [(sentence_of(m, k), 1 + (k * 3) % m) for k, m in enumerate(lengths)]


def model_for(items, config=SMALL):
    return init_model(config, build_vocab([s for s, _ in items] + [sentence_of(3, "x")]))


# "static" names the tagger's word-lookup input layer in the test ids below.
INPUT_LAYER = pytest.mark.parametrize("kind", ["static"])


# -- B = 1: the same bits as the reference ----------------------------------


@pytest.mark.parametrize("m", [1, 2, 7, 13])
@pytest.mark.parametrize("in_dim,h_dim", [(9, 5), (40, 64), (128, 64)])
def test_lstm_batch_of_one_is_bit_identical_to_reference(m, in_dim, h_dim):
    rng = np.random.default_rng(m * 100 + h_dim)
    x = rng.normal(size=(m, in_dim))
    wx = rng.uniform(-0.1, 0.1, (in_dim, 4 * h_dim))
    wh = rng.uniform(-0.1, 0.1, (h_dim, 4 * h_dim))
    b = rng.uniform(-0.1, 0.1, 4 * h_dim)
    dh = rng.normal(size=(m, h_dim))
    ref_h, ref_cache = ref_lstm_forward(x, wx, wh, b)
    h, cache = nn.lstm_forward([x[:, None]], [wx], [wh], [b])
    assert h.shape == (m, 1, 1, h_dim) and h.dtype == np.float64
    assert np.array_equal(h[:, 0, 0], ref_h)
    ref_grads = ref_lstm_backward(dh, ref_cache)
    (dx,), (dwx,), (dwh,), (db,) = nn.lstm_backward(dh[:, None, None], cache)
    assert all(grad.dtype == np.float64 for grad in (dx, dwx, dwh, db))
    assert np.array_equal(dx[:, 0], ref_grads[0])
    for got, want in zip((dwx, dwh, db), ref_grads[1:]):
        assert np.array_equal(got, want)


def lstm_case(rng, dtype, lengths, in_dim=40, h_dim=64):
    """Both directions' inputs of a right-padded batch of the given lengths,
    and D = 2 lists of weights (wx, wh, b), all in ``dtype``."""
    m, batch = max(lengths), len(lengths)
    x = rng.normal(size=(m, batch, in_dim)).astype(dtype)
    weights = [[rng.uniform(-0.1, 0.1, shape).astype(dtype) for _ in nn.DIRECTIONS]
               for shape in ((in_dim, 4 * h_dim), (h_dim, 4 * h_dim), (4 * h_dim,))]
    return (x, x[nn._reverse_index(m, lengths)]), weights


def arrays(nested):
    return [a for part in nested for a in (part if isinstance(part, (list, tuple)) else [part])]


@pytest.mark.parametrize("backprop", [True, False])
def test_lstm_runs_in_the_dtype_of_its_input(backprop):
    rng = np.random.default_rng(5)
    xs, weights = lstm_case(rng, np.float64, [9, 9, 9, 9])
    h64, cache64 = nn.lstm_forward(xs, *weights, backprop)
    h32, cache32 = nn.lstm_forward([x.astype(np.float32) for x in xs],
                                   *([w.astype(np.float32) for w in ws] for ws in weights),
                                   backprop)
    assert h64.dtype == np.float64 and h32.dtype == np.float32
    assert np.abs(h32 - h64).max() <= 1e-5
    if not backprop:
        return
    assert all(a.dtype == np.float32 for a in arrays(cache32))
    # Backward follows the cache: float32 in, float32 out, and the float64
    # pass keeps its bits (the reference test above pins them at B = 1).
    dh = rng.normal(size=h64.shape)
    grads64 = arrays(nn.lstm_backward(dh, cache64))
    grads32 = arrays(nn.lstm_backward(dh.astype(np.float32), cache32))
    assert all(grad.dtype == np.float64 for grad in grads64)
    assert all(grad.dtype == np.float32 for grad in grads32)
    for got, want in zip(grads32, grads64):
        assert relative_error(got, want) <= 1e-5


# Each direction keeps its own matrix products, so advancing both in one
# loop changes no bit of either.
@pytest.mark.parametrize("dtype,lengths", [
    (np.float64, [7]),
    (np.float32, [13, 1, 9, 13, 4, 12, 2, 7, 13, 5, 11, 3, 8, 13, 6, 10])],
    ids=["float64-B1", "float32-B16"])
@pytest.mark.parametrize("backprop", [True, False], ids=["cache", "no-cache"])
def test_two_direction_call_is_bit_identical_to_one_direction_calls(dtype, lengths, backprop):
    rng = np.random.default_rng(len(lengths))
    xs, weights = lstm_case(rng, dtype, lengths)
    h, cache = nn.lstm_forward(xs, *weights, backprop)
    alone = [nn.lstm_forward([xs[d]], *([ws[d]] for ws in weights), backprop)
             for d in range(len(xs))]
    assert h.shape == (max(lengths), 2, len(lengths), 64) and h.dtype == dtype
    for d, (h_alone, _) in enumerate(alone):
        assert np.array_equal(h[:, d], h_alone[:, 0])
    if not backprop:
        assert cache is None
        return
    dh = rng.normal(size=h.shape).astype(dtype)
    grads = nn.lstm_backward(dh, cache)
    for d, (_, cache_alone) in enumerate(alone):
        # dx, dwx, dwh and db of direction d.
        for got, want in zip(grads, nn.lstm_backward(dh[:, d : d + 1], cache_alone)):
            assert got[d].dtype == dtype
            assert np.array_equal(got[d], want[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_and_softmax_saturate_without_nan(dtype):
    x = np.array([-100.0, -20.0, 0.0, 20.0, 100.0], dtype=dtype)
    with np.errstate(over="ignore"):
        sig = nn.sigmoid(x)
    assert sig.dtype == dtype
    # float32's exp overflows at 100 and gives exactly 0; float64 gives 3.7e-44.
    assert 0.0 <= sig[0] < 1e-40 and sig[-1] == 1.0 and sig[2] == 0.5
    assert np.all(np.diff(sig) >= 0)
    probs = nn.softmax_rows(np.array([[100.0, -100.0, 0.0], [-100.0, -100.0, -100.0]],
                                     dtype=dtype))
    assert probs.dtype == dtype
    assert not np.isnan(probs).any()
    assert probs[0, 0] == 1.0 and 0.0 <= probs[0, 1] < 1e-40
    assert np.allclose(probs[1], 1.0 / 3.0)


@INPUT_LAYER
@pytest.mark.parametrize("config", [SMALL, DEFAULT], ids=["small", "default"])
def test_tagger_batch_of_one_is_bit_identical_to_reference(kind, config):
    rng = np.random.default_rng(4)
    items = items_of([6, 1, 11])
    model = model_for(items, config)
    for sentence, predicate in items:
        probs, cache = forward([(sentence, predicate)], model, backprop=True)
        ref_probs, ref_cache = ref_forward(sentence, predicate, model)
        assert np.array_equal(probs[:, 0], ref_probs)
        dlogits = rng.normal(size=(len(sentence), len(LABELS)))
        grads = backward_from_dlogits(model, cache, dlogits[:, None])
        ref_grads = ref_backward(model, ref_cache, dlogits)
        assert set(grads) == set(ref_grads) == set(model.params)
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), name


# -- mixed lengths: each item as if alone, gradients add up -----------------


@INPUT_LAYER
def test_mixed_length_batch_matches_items_run_alone(kind):
    rng = np.random.default_rng(9)
    items = items_of([1, 4, 9])
    model = model_for(items)
    probs, cache = forward(items, model, backprop=True)
    n_labels = len(LABELS)
    assert probs.shape == (9, 3, n_labels)
    dlogits = np.zeros_like(probs)
    summed = {}
    for b, (sentence, predicate) in enumerate(items):
        m = len(sentence)
        alone, alone_cache = forward([(sentence, predicate)], model, backprop=True)
        assert relative_error(probs[:m, b], alone[:, 0]) <= TOLERANCE
        dlogits[:m, b] = rng.normal(size=(m, n_labels))
        for name, grad in backward_from_dlogits(model, alone_cache, dlogits[:m, b, None]).items():
            summed[name] = summed.get(name, 0.0) + grad
    grads = backward_from_dlogits(model, cache, dlogits)
    assert set(grads) == set(summed)
    for name in grads:
        assert relative_error(grads[name], summed[name]) <= TOLERANCE, name


@INPUT_LAYER
def test_longer_item_leaves_the_others_unchanged(kind):
    items = items_of([1, 4, 9])
    longer = items_of([2, 2, 2, 12])[3]
    model = model_for(items + [longer])
    before, _ = forward(items, model)
    after, _ = forward([items[0], longer] + items[1:], model)
    for b, (sentence, _) in enumerate(items):
        m = len(sentence)
        column = b if b == 0 else b + 1
        assert relative_error(after[:m, column], before[:m, b]) <= TOLERANCE


# -- inference: no cache, the same bits as a training pass ------------------


@INPUT_LAYER
@pytest.mark.parametrize("lengths", [[7], [1, 4, 9, 4]], ids=["B1", "B4"])
def test_inference_pass_is_bit_identical_to_backprop_pass(kind, lengths):
    items = items_of(lengths)
    model = model_for(items, DEFAULT)
    probs, cache = forward(items, model)
    trained, trained_cache = forward(items, model, backprop=True)
    assert cache is None and trained_cache is not None
    assert np.array_equal(probs, trained)


def pretrain_step_and_oracle(monkeypatch):
    """(the gradients one full-batch pretraining step hands Adam, the mean
    of the float64 per-item token-mean gradients it should follow)."""
    items = items_of([3, 5, 2, 8])
    labels = {3: ("B-P", "O", "B-ARG1"), 5: ("B-ARG1", "I-ARG1", "B-P", "O", "O"),
              2: ("B-P", "B-ARG2"), 8: ("O",) * 5 + ("B-P", "B-ARG2", "I-ARG2")}
    corpus = [TaggedInstance(sentence, labels[len(sentence)].index("B-P") + 1,
                             TagSequence(labels[len(sentence)]))
              for sentence, _ in items]
    model = model_for(items)
    expected = {}
    for instance in corpus:
        _, grads = instance_grads(model, instance, scale=1.0 / len(instance.tags))
        for name, grad in grads.items():
            expected[name] = expected.get(name, 0.0) + grad / len(corpus)
    steps = []
    original = nn.Adam.step

    def recording_step(self, grads):
        steps.append({name: grad.copy() for name, grad in grads.items()})
        return original(self, grads)

    monkeypatch.setattr(nn.Adam, "step", recording_step)
    pretrain(model, corpus, TrainConfig(epochs=1, batch_size=len(corpus)), dev=corpus[:1])
    assert len(steps) == 1
    assert set(steps[0]) == set(expected)
    return steps[0], expected


def test_pretrain_step_is_the_mean_of_token_mean_instance_gradients(monkeypatch):
    # The batching mechanics, on the float64 path: the same code with the
    # float32 encoder copy replaced by the model itself.
    monkeypatch.setattr(tagger, "float32_encoder", lambda model: model)
    step, expected = pretrain_step_and_oracle(monkeypatch)
    for name in expected:
        assert relative_error(step[name], expected[name]) <= TOLERANCE, name


def test_float32_pretrain_step_is_near_the_float64_oracle(monkeypatch):
    # As shipped, the encoder runs in float32: every array differs from the
    # float64 oracle (so the float32 pass ran), by little, and reaches Adam
    # as float64.
    step, expected = pretrain_step_and_oracle(monkeypatch)
    for name in expected:
        assert step[name].dtype == np.float64, name
        assert 0.0 < relative_error(step[name], expected[name]) <= 1e-5, name
