"""The benchmark traces oiekit from outside: bench/tracing.py patches the
functions and methods it names, and bench/selftest.py checks that names
imported with ``from ... import`` are patched too. A refactor that renames
or stops sharing one of them, or that routes work around them, fails here
instead of in a traced run."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oiekit_module(name):
    return importlib.import_module(f"oiekit.{name}")


def test_every_traced_function_exists(tracing):
    for module, attr, *_ in tracing.SPANNED + tracing.COUNTED:
        assert callable(getattr(oiekit_module(module), attr, None)), f"{module}.{attr}"


def test_every_traced_method_exists(tracing):
    for module, cls, attr, _ in tracing.METHODS:
        assert callable(vars(getattr(oiekit_module(module), cls)).get(attr)), \
            f"{module}.{cls}.{attr}"


@pytest.mark.parametrize("holder,owner,name", [
    ("rl", "tagger", "allowed_labels"),
    ("rl", "reward", "syn_score"),
    ("tagger", "patterns", "identify_predicates"),
    ("mle", "core", "spans_from_tags"),
])
def test_imported_names_are_the_traced_functions(holder, owner, name):
    assert getattr(oiekit_module(holder), name) is getattr(oiekit_module(owner), name)


def test_every_encoder_pass_and_decode_is_traced(tracing):
    # Extraction runs EXTRACT_BATCH items per call and a single item is a
    # batch of one, so both must reach the spanned tagger functions.
    from oiekit.corpus_io import gen_synthetic
    from oiekit.patterns import identify_predicates
    from oiekit.tagger import EXTRACT_BATCH, TaggerConfig, build_vocab, init_model
    tagger = oiekit_module("tagger")
    sentences, _ = gen_synthetic(n=EXTRACT_BATCH + 4, seed=5)
    model = init_model(TaggerConfig(embedding_dim=6, indicator_dim=3, hidden_dim=5,
                                    num_encoder_layers=2, rng_seed=3), build_vocab(sentences))
    items = sum(len(identify_predicates(sentence)) for sentence in sentences)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        tagger.extract(sentences, model)
        predicate = identify_predicates(sentences[0])[0]
        probs, _ = tagger.forward([(sentences[0], predicate)], model)
        tagger.beam_decode(probs, [len(sentences[0])], [predicate], 3)
    finally:
        tracing.remove(patches)
    calls = Counter(span[0] for span in tracer.spans)
    chunks = -(-items // EXTRACT_BATCH)
    assert chunks > 1
    assert calls["tagger.forward"] == calls["tagger.beam_decode"] == chunks + 1
    # Every pass enters through the traced input layer.
    embeds = [span for span in tracer.spans if span[0] == "tagger.embed"]
    assert len(embeds) == calls["tagger.forward"]
    assert all(tracer.spans[span[3]][0] == "tagger.forward" for span in embeds)


def test_dev_pass_runs_one_traced_forward_and_decode_per_chunk(tracing):
    # The pretraining dev pass is chunked by EXTRACT_BATCH, as extract is.
    from oiekit.corpus_io import gen_synthetic
    from oiekit.patterns import generate_instances
    from oiekit.tagger import EXTRACT_BATCH, TaggerConfig, build_vocab, init_model
    mle = oiekit_module("mle")
    sentences, _ = gen_synthetic(n=EXTRACT_BATCH, seed=5)
    dev = [inst for sentence in sentences for inst in generate_instances(sentence)]
    dev = dev[: EXTRACT_BATCH + 4]
    assert len(dev) == EXTRACT_BATCH + 4
    model = init_model(TaggerConfig(embedding_dim=6, indicator_dim=3, hidden_dim=5,
                                    num_encoder_layers=2, rng_seed=3), build_vocab(dev))
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        mle._dev_metrics(model, dev)
    finally:
        tracing.remove(patches)
    calls = Counter(span[0] for span in tracer.spans)
    assert calls["tagger.forward"] == calls["tagger.beam_decode"] == 2


def test_encoder_pass_reaches_the_traced_recurrence_once_per_layer(tracing):
    # One call advances both directions of a layer; each step's gates go
    # through the traced nn.sigmoid, as does each highway gate.
    from oiekit.corpus_io import gen_synthetic
    from oiekit.patterns import identify_predicates
    from oiekit.tagger import TaggerConfig, build_vocab, init_model
    tagger = oiekit_module("tagger")
    sentences, _ = gen_synthetic(n=4, seed=5)
    config = TaggerConfig(embedding_dim=6, indicator_dim=3, hidden_dim=5,
                          num_encoder_layers=3, rng_seed=3)
    model = init_model(config, build_vocab(sentences))
    items = [(sentence, identify_predicates(sentence)[0]) for sentence in sentences]
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        probs, cache = tagger.forward(items, model, backprop=True)
        tagger.backward_from_dlogits(model, cache, np.zeros_like(probs))
    finally:
        tracing.remove(patches)
    calls = Counter(span[0] for span in tracer.spans)
    layers = config.num_encoder_layers
    assert calls["nn.lstm_forward"] == calls["nn.lstm_backward"] == layers
    assert calls["tagger.embed"] == 1
    steps = max(len(sentence) for sentence, _ in items)
    assert tracer.counts["nn.sigmoid"] == layers * steps + layers - 1
