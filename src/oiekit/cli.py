"""Command-line surface binding the pipeline stages into reproducible runs.

Commands: synth, label, pretrain, rl-train, extract, eval. Exit codes:
0 success, 1 usage error, 2 data error, 3 numeric failure. Every usage
error is raised before any file is read, generated or written, so a bad
command line exits 1 whether or not its input files exist. Any other
OiekitError but NonFiniteValue is a data error, and a bad file's error
(``corpus_io.ParseError``) names the file. An output pipe
whose reader has gone (``| head``) ends the command quietly with 0, as it
ends when the output fits before the reader goes.

Each training setting has one way in: pretrain's optional ``key = value``
config file (an unknown key is a data error) or rl-train's flags (a value
RLConfig refuses is a usage error that names the flag); what is left out
keeps its TaggerConfig, TrainConfig or RLConfig default. Both trainers raise
NonFiniteValue, the one numeric failure (exit 3). They write the
per-epoch metrics rows as JSON lines to ``--metrics``, by default
``<--out>.metrics.jsonl``: the commands, not the stages, write files.
``--scorer`` alone picks the semantic scorer (default ``surrogate``; a spec
``reward.make_sem_scorer`` refuses is a usage error). extract takes it only
with ``--rerank sem`` or ``combined``; ``--scorer-cache`` needs an adapter
scorer that scores.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

from oiekit import corpus_io, evaluate, mle, patterns, reward, rl, tagger
from oiekit.core import ARGUMENT_ROLES, NonFiniteValue, OiekitError, ValidationError
from oiekit.corpus_io import ParseError
from oiekit.mle import TrainConfig
from oiekit.rl import RLConfig
from oiekit.tagger import TaggerConfig

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _pretrain_configs(path) -> tuple[TaggerConfig, TrainConfig]:
    """The TaggerConfig and TrainConfig that the config file at ``path`` (if
    any) sets. Its keys are their field names, with ``seed`` for both
    rng_seeds, and a value is cast to the type of its field's default; an
    unknown key, a value the cast rejects or a config that refuses its values
    is a ParseError naming the file."""
    configs = (TaggerConfig, TrainConfig)
    casts = {"seed" if f.name == "rng_seed" else f.name: type(f.default)
             for config in configs for f in dataclasses.fields(config)}
    values = {}
    for key, value in (corpus_io.read_key_values(path) if path else {}).items():
        if key not in casts:
            raise ParseError(f"unknown key {key!r} (known: {', '.join(sorted(casts))})", path=path)
        try:
            values["rng_seed" if key == "seed" else key] = casts[key](value)
        except ValueError:
            raise ParseError(f"bad value {value!r} for key {key!r}", path=path) from None
    try:
        return tuple(config(**{f.name: values[f.name] for f in dataclasses.fields(config)
                               if f.name in values}) for config in configs)
    except ValidationError as exc:
        raise ParseError(str(exc), path=path) from None


def _sem_scorer(spec, cache, cache_needs="an adapter:URI --scorer") -> reward.SemScorer:
    """``reward.make_sem_scorer(spec, cache)``. A spec it refuses, or a cache beside the
    surrogate (which reads no cache), is a usage error raised before any cache is read."""
    try:
        scorer = reward.make_sem_scorer(spec, cache)
    except ValidationError as exc:
        raise _UsageError(f"--scorer: {exc}") from None
    if cache and scorer.adapter is None:
        raise _UsageError(f"--scorer-cache needs {cache_needs}")
    return scorer


def _load_table(path):
    return patterns.load_pattern_table(path) if path else patterns.DEFAULT_TABLE


def build_parser() -> _Parser:
    parser = _Parser(prog="oiekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic parsed corpus with gold tuples")
    p.add_argument("--templates", default=",".join(corpus_io.TEMPLATE_NAMES),
                   help="name[:weight],... (weight 1 when left out)")
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
    p.add_argument("--config", help="key = value file of the tagger and training settings")
    p.add_argument("--out", required=True)
    p.add_argument("--metrics")

    p = sub.add_parser("rl-train", help="generalize a pretrained tagger with policy gradients")
    p.add_argument("--model", required=True)
    p.add_argument("--conllu", required=True)
    p.add_argument("--scorer", default="surrogate", help="surrogate (the default) or adapter:URI")
    p.add_argument("--beam", type=int, default=RLConfig.beam_size)
    p.add_argument("--baseline", choices=["off", "mean"], default=RLConfig.baseline_mode)
    p.add_argument("--out", required=True)
    p.add_argument("--patterns")
    p.add_argument("--metrics")
    p.add_argument("--seed", type=int, default=RLConfig.rng_seed)
    p.add_argument("--epochs", type=int, default=RLConfig.epochs)
    p.add_argument("--step-size", type=float, default=RLConfig.step_size)
    p.add_argument("--sample", action="store_true",
                   help="explore with constrained sampling instead of the beam")
    p.add_argument("--dev-conllu", help="frozen dev sentences for per-epoch metrics")
    p.add_argument("--dev-gold", help="gold tuples for per-epoch dev F1")
    p.add_argument("--scorer-cache", help="JSON-lines cache file for adapter scores")

    p = sub.add_parser("extract", help="decode extractions with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--conllu", required=True)
    p.add_argument("--rerank", choices=["none", "sem", "combined"], default="none")
    p.add_argument("--out", required=True)
    p.add_argument("--patterns")
    p.add_argument("--scorer", help="surrogate (the default) or adapter:URI; needs --rerank "
                   "sem or combined")
    p.add_argument("--scorer-cache")

    p = sub.add_parser("eval", help="score extractions against gold tuples")
    p.add_argument("--extractions", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--pr-out", required=True)
    p.add_argument("--conllu", help="needed only for --overlap-threshold")
    p.add_argument("--overlap-threshold", type=float,
                   help="diagnostic lexical-overlap matching instead of headword matching: "
                   "the share of each gold role's words a span must hold, in (0, 1]")

    return parser


def cmd_synth(args) -> int:
    if not 0.0 <= args.dev_fraction < 1.0:
        raise _UsageError(f"--dev-fraction must be in [0, 1), got {args.dev_fraction}")
    if args.dev_conllu and not args.dev_gold:
        raise _UsageError("--dev-conllu requires --dev-gold")
    if args.dev_gold and not args.dev_conllu:
        raise _UsageError("--dev-gold requires --dev-conllu")
    split = args.n
    if args.dev_conllu:
        split = int(args.n * (1.0 - args.dev_fraction))
        if args.n >= 1 and not 0 < split < args.n:
            raise _UsageError(f"--dev-fraction {args.dev_fraction} of --n {args.n} sentences "
                              f"leaves the {'train' if split == 0 else 'dev'} split empty")
    templates = [chunk for chunk in args.templates.split(",") if chunk.strip()]
    try:
        sentences, gold = corpus_io.gen_synthetic(templates, args.n, args.seed)
    except ValidationError as exc:
        raise _UsageError(f"synth: {exc}") from None
    parts = [(sentences[:split], args.out_conllu, args.out_gold)]
    if args.dev_conllu:
        parts.append((sentences[split:], args.dev_conllu, args.dev_gold))
    for part, conllu_path, gold_path in parts:
        ids = {s.sentence_id for s in part}
        corpus_io.write_conllu(part, conllu_path)
        corpus_io.write_gold([g for g in gold if g.sentence_id in ids], gold_path)
    if args.dev_conllu:
        print(f"wrote {split} train and {len(sentences) - split} dev sentences")
    else:
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
    for role in ARGUMENT_ROLES:
        covered = sum(1 for inst in instances if any(
            lab.endswith(role) for lab in inst.tags.labels))
        share = covered / len(instances) if instances else 0.0
        print(f"role coverage {role}: {covered} ({share:.1%})")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    tagger_config, train_config = _pretrain_configs(args.config)
    instances = corpus_io.read_instances(args.instances)
    model = tagger.init_model(tagger_config, tagger.build_vocab(instances))
    metrics = mle.pretrain(model, instances, train_config)
    corpus_io.write_jsonl(metrics, args.metrics or f"{args.out}.metrics.jsonl")
    tagger.save_model(model, args.out)
    print(f"trained {len(metrics)} epochs; checkpoint at {args.out}")
    return EXIT_OK


# The rl-train flag that sets each RLConfig field a flag value can break.
_RL_FLAGS = {"epochs": "--epochs", "beam_size": "--beam", "step_size": "--step-size",
             "rng_seed": "--seed"}


def cmd_rl_train(args) -> int:
    if args.dev_gold and not args.dev_conllu:
        raise _UsageError("--dev-gold requires --dev-conllu")
    try:
        rl_config = RLConfig(epochs=args.epochs, beam_size=args.beam,
                             baseline_mode=args.baseline, step_size=args.step_size,
                             rng_seed=args.seed, explore_mode="sample" if args.sample else "beam")
    except ValidationError as exc:
        # RLConfig names the field first; the user typed its flag.
        field, _, rest = str(exc).partition(" ")
        raise _UsageError(f"rl-train: {_RL_FLAGS.get(field, field)} {rest}") from None
    scorer = _sem_scorer(args.scorer, args.scorer_cache)
    model = tagger.load_model(args.model)
    table = _load_table(args.patterns)
    sentences = corpus_io.read_conllu(args.conllu)
    dev = None
    if args.dev_conllu:
        dev_sentences = corpus_io.read_conllu(args.dev_conllu)
        dev_gold = None
        if args.dev_gold:
            dev_gold = corpus_io.read_gold(
                args.dev_gold, {s.sentence_id: s for s in dev_sentences})
        dev = (dev_sentences, dev_gold)
    metrics = rl.train_rl(model, sentences, scorer, rl_config, table, dev=dev)
    corpus_io.write_jsonl(metrics, args.metrics or f"{args.out}.metrics.jsonl")
    scorer.save_cache()
    tagger.save_model(model, args.out)
    print(f"ran {len(metrics)} epochs; checkpoint at {args.out}")
    return EXIT_OK


def cmd_extract(args) -> int:
    cache_needs = "--rerank sem/combined and an adapter:URI --scorer"
    scorer = None
    if args.rerank != "none":
        scorer = _sem_scorer("surrogate" if args.scorer is None else args.scorer,
                             args.scorer_cache, cache_needs)
    elif args.scorer_cache:
        raise _UsageError(f"--scorer-cache needs {cache_needs}")
    elif args.scorer is not None:
        raise _UsageError("--scorer needs --rerank sem or combined")
    model = tagger.load_model(args.model)
    table = _load_table(args.patterns)
    sentences = corpus_io.read_conllu(args.conllu)
    extractions = tagger.extract(sentences, model, table)
    if scorer is not None:
        extractions = reward.rerank(extractions, sentences, scorer, args.rerank == "combined")
        scorer.save_cache()
    corpus_io.write_extractions(extractions, args.out)
    print(f"wrote {len(extractions)} extractions")
    return EXIT_OK


def cmd_eval(args) -> int:
    threshold = args.overlap_threshold
    if threshold is not None and not 0.0 < threshold <= 1.0:
        raise _UsageError(f"--overlap-threshold must be a number in (0, 1], got {threshold}")
    if threshold is not None and not args.conllu:
        raise _UsageError("--overlap-threshold requires --conllu for token surfaces")
    sentences = None
    matcher = evaluate.match
    if threshold is not None:
        sentences = {s.sentence_id: s for s in corpus_io.read_conllu(args.conllu)}

        def matcher(pred, gold):
            return evaluate.lexical_overlap_match(
                pred, gold, sentences[pred.sentence_id], threshold)

    extractions = corpus_io.read_extractions(args.extractions, sentences)
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
    except NonFiniteValue as exc:
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
