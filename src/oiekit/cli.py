"""Command-line surface binding the pipeline stages into reproducible runs.

Commands: synth, label, pretrain, rl-train, extract, eval. Exit codes:
0 success, 1 usage error, 2 data error, 3 numeric failure. An output pipe
whose reader has gone (``| head``) ends the command quietly with 0, as it
ends when the output fits before the reader goes.

pretrain and rl-train take an optional ``key = value`` config file. Flags
win over it, keys it leaves out keep the defaults of TaggerConfig,
TrainConfig and RLConfig, and a key the command does not read is a data error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from oiekit import corpus_io, evaluate, mle, patterns, rl, tagger
from oiekit.core import OiekitError
from oiekit.corpus_io import ParseError
from oiekit.mle import NonFiniteLoss, TrainConfig
from oiekit.reward import make_sem_scorer
from oiekit.rl import NonFiniteGradient, RLConfig
from oiekit.tagger import TaggerConfig

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

SCORER_ENV = "OIEKIT_SCORER"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# Config-file keys per config dataclass, each with the cast of its value.
# ``seed`` is read by every command and sets each rng_seed.
_TAGGER_KEYS = {"embedding_dim": int, "indicator_dim": int, "hidden_dim": int,
                "num_encoder_layers": int}
_TRAIN_KEYS = {"epochs": int, "batch_size": int, "step_size": float,
               "dev_fraction": float, "patience": int}
_RL_KEYS = {"epochs": int, "beam_size": int, "baseline": str, "step_size": float}
_FIELD_NAMES = {"seed": "rng_seed", "baseline": "baseline_mode"}


def _settings(path, keys: dict, flags: dict) -> dict:
    """The config file at ``path`` (if any) cast by ``keys`` and ``seed``,
    then every flag that was given; an unknown key or a value its cast
    rejects is a ParseError."""
    keys = {"seed": int, **keys}
    config = corpus_io.read_key_values(path) if path else {}
    for key in config:
        if key not in keys:
            raise ParseError(f"config {path}: unknown key {key!r} "
                             f"(known: {', '.join(sorted(keys))})")
    values = {}
    for key, value in config.items():
        try:
            values[key] = keys[key](value)
        except ValueError:
            raise ParseError(f"config {path}: bad value {value!r} for key {key!r}") from None
    values.update((key, value) for key, value in flags.items() if value is not None)
    return values


def _fields(values: dict, keys: dict) -> dict:
    """The seed and the ``keys`` entries of ``values``, by dataclass field name."""
    return {_FIELD_NAMES.get(key, key): value for key, value in values.items()
            if key in keys or key == "seed"}


def _load_table(path):
    return patterns.load_pattern_table(path) if path else patterns.DEFAULT_TABLE


def _parse_templates(spec: str):
    """``name:weight,name:weight`` or comma-separated names."""
    entries = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, weight = chunk.partition(":")
        entries.append((name.strip(), float(weight) if sep else 1.0))
    return entries


def build_parser() -> _Parser:
    parser = _Parser(prog="oiekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic parsed corpus with gold tuples")
    p.add_argument("--templates", default=",".join(corpus_io.TEMPLATE_NAMES),
                   help="comma-separated template names, optionally name:weight")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-conllu", required=True)
    p.add_argument("--out-gold", required=True)
    p.add_argument("--dev-conllu", help="write the held-out slice here")
    p.add_argument("--dev-gold")
    p.add_argument("--dev-fraction", type=float, default=0.2)

    p = sub.add_parser("label", help="run the pattern labelling functions over a parsed corpus")
    p.add_argument("--conllu", required=True)
    p.add_argument("--patterns", help="pattern table file (defaults to the built-in table)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("pretrain", help="train the tagger on labelled instances")
    p.add_argument("--instances", required=True)
    p.add_argument("--config", help="key/value config file; flags win")
    p.add_argument("--out", required=True)
    p.add_argument("--metrics")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)

    p = sub.add_parser("rl-train", help="generalize a pretrained tagger with policy gradients")
    p.add_argument("--model", required=True)
    p.add_argument("--conllu", required=True)
    p.add_argument("--scorer", help="surrogate or adapter:URI "
                   f"(falls back to ${SCORER_ENV}, then surrogate)")
    p.add_argument("--beam", type=int)
    p.add_argument("--baseline", choices=["off", "mean"])
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--patterns")
    p.add_argument("--metrics")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--step-size", type=float)
    p.add_argument("--sample", action="store_true",
                   help="explore with constrained sampling instead of the beam")
    p.add_argument("--dev-conllu", help="frozen dev sentences for per-epoch metrics")
    p.add_argument("--dev-gold", help="gold tuples for per-epoch dev F1")
    p.add_argument("--scorer-cache", help="cache file for adapter scores")

    p = sub.add_parser("extract", help="decode extractions with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--conllu", required=True)
    p.add_argument("--rerank", choices=["none", "sem", "combined"], default="none")
    p.add_argument("--out", required=True)
    p.add_argument("--patterns")
    p.add_argument("--scorer")
    p.add_argument("--scorer-cache")

    p = sub.add_parser("eval", help="score extractions against gold tuples")
    p.add_argument("--extractions", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--pr-out", required=True)
    p.add_argument("--conllu", help="needed only for --overlap-threshold")
    p.add_argument("--overlap-threshold", type=float,
                   help="diagnostic lexical-overlap matching instead of headword matching")

    return parser


def _resolve_scorer(flag_value, cache_path=None):
    spec = flag_value or os.environ.get(SCORER_ENV) or "surrogate"
    return make_sem_scorer(spec, cache_path=cache_path)


def cmd_synth(args) -> int:
    if not 0.0 <= args.dev_fraction < 1.0:
        raise _UsageError(f"--dev-fraction must be in [0, 1), got {args.dev_fraction}")
    sentences, gold = corpus_io.gen_synthetic(_parse_templates(args.templates), args.n, args.seed)
    if args.dev_conllu:
        if not args.dev_gold:
            raise _UsageError("--dev-conllu requires --dev-gold")
        split = int(len(sentences) * (1.0 - args.dev_fraction))
        train_ids = {s.sentence_id for s in sentences[:split]}
        corpus_io.write_conllu(sentences[:split], args.out_conllu)
        corpus_io.write_conllu(sentences[split:], args.dev_conllu)
        corpus_io.write_gold([g for g in gold if g.sentence_id in train_ids], args.out_gold)
        corpus_io.write_gold([g for g in gold if g.sentence_id not in train_ids], args.dev_gold)
        print(f"wrote {split} train and {len(sentences) - split} dev sentences")
    else:
        corpus_io.write_conllu(sentences, args.out_conllu)
        corpus_io.write_gold(gold, args.out_gold)
        print(f"wrote {len(sentences)} sentences, {len(gold)} gold tuples")
    return EXIT_OK


def cmd_label(args) -> int:
    table = _load_table(args.patterns)
    sentences = corpus_io.read_conllu(args.conllu)
    instances = []
    for sentence in sentences:
        instances.extend(patterns.generate_instances(sentence, table))
    corpus_io.write_instances(instances, args.out)
    print(f"sentences: {len(sentences)}")
    print(f"instances: {len(instances)}")
    for role in ("ARG1", "ARG2", "ARG3"):
        covered = sum(1 for inst in instances if any(
            lab.endswith(role) for lab in inst.tags.labels))
        share = covered / len(instances) if instances else 0.0
        print(f"role coverage {role}: {covered} ({share:.1%})")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    values = _settings(args.config, {**_TAGGER_KEYS, **_TRAIN_KEYS},
                       {"seed": args.seed, "epochs": args.epochs})
    instances = corpus_io.read_instances(args.instances)
    model = tagger.init_model(TaggerConfig(**_fields(values, _TAGGER_KEYS)),
                              tagger.build_vocab(instances))
    train_config = TrainConfig(**_fields(values, _TRAIN_KEYS))
    metrics_path = args.metrics or f"{args.out}.metrics.jsonl"
    metrics = mle.pretrain(model, instances, train_config, metrics_path=metrics_path)
    tagger.save_model(model, args.out)
    print(f"trained {len(metrics)} epochs; checkpoint at {args.out}")
    return EXIT_OK


def cmd_rl_train(args) -> int:
    values = _settings(args.config, _RL_KEYS,
                       {"seed": args.seed, "epochs": args.epochs, "beam_size": args.beam,
                        "baseline": args.baseline, "step_size": args.step_size})
    model = tagger.load_model(args.model)
    table = _load_table(args.patterns)
    scorer = _resolve_scorer(args.scorer, args.scorer_cache)
    sentences = corpus_io.read_conllu(args.conllu)
    rl_config = RLConfig(**_fields(values, _RL_KEYS),
                         explore_mode="sample" if args.sample else "beam")
    if args.dev_gold and not args.dev_conllu:
        raise _UsageError("--dev-gold requires --dev-conllu")
    dev = None
    if args.dev_conllu:
        dev_sentences = corpus_io.read_conllu(args.dev_conllu)
        dev_gold = None
        if args.dev_gold:
            dev_gold = corpus_io.read_gold(
                args.dev_gold, {s.sentence_id: s for s in dev_sentences})
        dev = (dev_sentences, dev_gold)
    metrics_path = args.metrics or f"{args.out}.metrics.jsonl"
    metrics = rl.train_rl(model, sentences, scorer, rl_config, table,
                          dev=dev, metrics_path=metrics_path)
    scorer.save_cache()
    tagger.save_model(model, args.out)
    print(f"ran {len(metrics)} epochs; checkpoint at {args.out}")
    return EXIT_OK


def cmd_extract(args) -> int:
    model = tagger.load_model(args.model)
    table = _load_table(args.patterns)
    scorer = None
    if args.rerank != "none":
        scorer = _resolve_scorer(args.scorer, args.scorer_cache)
    sentences = corpus_io.read_conllu(args.conllu)
    extractions = tagger.extract(sentences, model, table, sem_scorer=scorer, rerank=args.rerank)
    if scorer is not None:
        scorer.save_cache()
    corpus_io.write_extractions(extractions, args.out)
    print(f"wrote {len(extractions)} extractions")
    return EXIT_OK


def cmd_eval(args) -> int:
    extractions = corpus_io.read_extractions(args.extractions)
    sentences = None
    matcher = evaluate.match
    if args.overlap_threshold is not None:
        if not args.conllu:
            raise _UsageError("--overlap-threshold requires --conllu for token surfaces")
        sentences = {s.sentence_id: s for s in corpus_io.read_conllu(args.conllu)}
        threshold = args.overlap_threshold

        def matcher(pred, gold):
            return evaluate.lexical_overlap_match(
                pred, gold, sentences[pred.sentence_id], threshold)

    gold = corpus_io.read_gold(args.gold, sentences)
    report = evaluate.evaluate(extractions, gold, matcher)
    evaluate.write_report(report, args.report)
    evaluate.write_pr_points(report.pr_points, args.pr_out)
    print(f"AUC: {report.auc * 100.0:.2f}")
    print(f"best F1: {report.best_f1 * 100.0:.2f}")
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "label": cmd_label,
    "pretrain": cmd_pretrain,
    "rl-train": cmd_rl_train,
    "extract": cmd_extract,
    "eval": cmd_eval,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonFiniteLoss, NonFiniteGradient) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BrokenPipeError:
        return EXIT_OK
    except (OiekitError, OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
