"""Per-layer tracing for the benchmark, done entirely from outside oiekit.

`install` replaces the public functions listed in SPANNED, COUNTED and
METHODS with wrappers that record spans (name, start, end, parent, value)
in memory or bump a call counter. A function is replaced in every oiekit
module that holds it, so names imported with ``from ... import`` (for
example ``rl.allowed_labels``, ``rl.syn_score``, ``tagger.identify_predicates``
and the functions ``cli`` reaches) are traced too. `remove` puts the
original objects back. `layer_metrics` turns the spans of one traced pass
into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = ("cli", "core", "corpus_io", "evaluate", "mle", "nn", "patterns",
           "reward", "rl", "tagger")

# (defining module, function, span name, value recorded from the result)
SPANNED = (
    ("nn", "lstm_forward", "nn.lstm_forward", None),
    ("nn", "lstm_backward", "nn.lstm_backward", None),
    ("nn", "highway_forward", "nn.highway_forward", None),
    ("nn", "highway_backward", "nn.highway_backward", None),
    ("nn", "softmax_rows", "nn.softmax_rows", None),
    ("mle", "pretrain", "mle.pretrain", None),
    ("mle", "instance_grads", "mle.instance_grads", None),
    ("mle", "mle_loss", "mle.mle_loss", None),
    ("tagger", "forward", "tagger.forward", None),
    ("tagger", "embed", "tagger.embed", None),
    ("tagger", "backward_from_dlogits", "tagger.backward_from_dlogits", None),
    ("tagger", "beam_decode", "tagger.beam_decode", None),
    ("tagger", "extract", "tagger.extract", len),
    ("tagger", "save_model", "tagger.save_model", None),
    ("tagger", "load_model", "tagger.load_model", None),
    ("rl", "train_rl", "rl.train_rl", None),
    ("rl", "explore", "rl.explore", len),
    ("rl", "reinforce_step", "rl.reinforce_step", lambda norm: float(norm > 0.0)),
    ("rl", "candidate_reward", "rl.candidate_reward", None),
    ("reward", "syn_score", "reward.syn_score", lambda syn: float(syn == 1)),
    ("patterns", "identify_predicates", "patterns.identify_predicates", len),
    ("patterns", "generate_instances", "patterns.generate_instances", len),
    ("core", "spans_from_tags", "core.spans_from_tags", None),
    ("corpus_io", "read_conllu", "corpus_io.read", None),
    ("corpus_io", "read_gold", "corpus_io.read", None),
    ("corpus_io", "read_instances", "corpus_io.read", None),
    ("corpus_io", "read_extractions", "corpus_io.read", None),
    ("corpus_io", "write_conllu", "corpus_io.write", None),
    ("corpus_io", "write_gold", "corpus_io.write", None),
    ("corpus_io", "write_instances", "corpus_io.write", None),
    ("corpus_io", "write_extractions", "corpus_io.write", None),
    ("evaluate", "evaluate", "evaluate.evaluate", lambda report: report.auc),
)

# Called tens of thousands of times per pass: counted, not timed.
COUNTED = (
    ("nn", "sigmoid", "nn.sigmoid"),
    ("tagger", "allowed_labels", "tagger.allowed_labels"),
)

# (module, class, method, span name): patched on the class itself.
METHODS = (
    ("nn", "Adam", "step", "nn.adam_step"),
    ("reward", "SemScorer", "score", "reward.sem_score"),
)

CLI_COMMANDS = ("label", "pretrain", "rl-train", "extract", "eval")


def _module(name):
    return importlib.import_module(f"oiekit.{name}")


class Tracer:
    """In-memory spans and call counts for one traced pass.

    A span is a list ``[name, start, end, parent, value]``; ``parent`` is
    the index of the span open when it started (None at the top level).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name):
        record = [name, perf_counter(), 0.0, self._open[-1] if self._open else None, None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = perf_counter()
            self._open.pop()

    def spanned(self, name, fn, value=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if value is not None:
                record[4] = value(result)
            return result
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def install(tracer: Tracer) -> list[tuple]:
    """Patch every traced name; returns the (owner, attribute, original)
    list that `remove` needs."""
    wrappers = []
    for module, attr, name, value in SPANNED:
        original = getattr(_module(module), attr)
        wrappers.append((original, tracer.spanned(name, original, value)))
    for module, attr, name in COUNTED:
        original = getattr(_module(module), attr)
        wrappers.append((original, tracer.counted(name, original)))
    patches = []
    namespaces = [_module(m) for m in MODULES]
    for original, wrapper in wrappers:
        for namespace in namespaces:
            for attr, held in list(vars(namespace).items()):
                if held is original:
                    patches.append((namespace, attr, original))
                    setattr(namespace, attr, wrapper)
    for module, cls_name, attr, name in METHODS:
        cls = getattr(_module(module), cls_name)
        original = cls.__dict__[attr]
        patches.append((cls, attr, original))
        setattr(cls, attr, tracer.spanned(name, original))
    return patches


def remove(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _has_ancestor(spans, index, name) -> bool:
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see BENCHMARK.json)."""
    spans = tracer.spans
    calls = Counter(s[0] for s in spans)
    inclusive = defaultdict(float)
    self_total = defaultdict(float)
    values = defaultdict(list)
    child_values = defaultdict(float)  # (parent name, child name) -> sum of values
    for index, (name, start, end, parent, value) in enumerate(spans):
        if not _has_ancestor(spans, index, name):
            inclusive[name] += end - start
        if value is not None:
            values[name].append(value)
            if parent is not None:
                child_values[(spans[parent][0], name)] += value
    for (name, *_), own in zip(spans, self_times(spans)):
        self_total[name] += own
    forwards_in_rl = sum(
        1 for index, span in enumerate(spans)
        if span[0] == "tagger.forward" and _has_ancestor(spans, index, "rl.train_rl")
    )
    steps = calls["rl.reinforce_step"]
    extract_preds = child_values[("tagger.extract", "patterns.identify_predicates")]
    label_preds = child_values[("patterns.generate_instances", "patterns.identify_predicates")]

    out = {}
    for name in ("nn.lstm_forward", "nn.lstm_backward", "nn.adam_step", "mle.instance_grads",
                 "tagger.forward", "tagger.backward_from_dlogits", "tagger.beam_decode",
                 "rl.reinforce_step", "reward.syn_score", "reward.sem_score",
                 "core.spans_from_tags"):
        out[f"{name}.calls"] = float(calls[name])
    for name in ("nn.lstm_forward", "nn.lstm_backward", "nn.highway_forward",
                 "nn.highway_backward", "nn.softmax_rows", "nn.adam_step",
                 "mle.instance_grads", "mle.mle_loss", "tagger.forward", "tagger.embed",
                 "tagger.backward_from_dlogits", "tagger.beam_decode", "tagger.extract",
                 "tagger.save_model", "tagger.load_model", "rl.explore", "rl.reinforce_step",
                 "rl.candidate_reward", "reward.syn_score", "reward.sem_score",
                 "patterns.generate_instances", "core.spans_from_tags", "corpus_io.read",
                 "corpus_io.write", "evaluate.evaluate"):
        out[f"{name}.s"] = inclusive[name]
    for _, _, name in COUNTED:
        out[f"{name}.calls"] = float(tracer.counts[name])
    out["mle.pretrain.self_s"] = self_total["mle.pretrain"]
    out["tagger.extract.drop_frac"] = (
        1.0 - _ratio(sum(values["tagger.extract"]), extract_preds) if extract_preds else 0.0)
    out["rl.forward_per_step"] = _ratio(forwards_in_rl, steps)
    out["rl.update_frac"] = _ratio(sum(values["rl.reinforce_step"]), steps)
    out["rl.candidates_per_step"] = _ratio(sum(values["rl.explore"]), len(values["rl.explore"]))
    out["reward.syn_pos_frac"] = _ratio(sum(values["reward.syn_score"]),
                                        len(values["reward.syn_score"]))
    out["patterns.instances_per_predicate"] = _ratio(sum(values["patterns.generate_instances"]),
                                                     label_preds)
    out["evaluate.auc"] = _ratio(sum(values["evaluate.evaluate"]), len(values["evaluate.evaluate"]))
    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = inclusive[f"cli.{command}"]
    return out
