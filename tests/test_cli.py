"""The command-line surface and its exit codes.

CONTRACT is the one table of command lines and what each must do. Every row
runs through ``cli.main`` in this process; with ``--cli-command`` (split
with shlex, e.g. ``oiekit`` or ``python -m oiekit.cli``) every row and the
pipeline the rows read run through that command in new processes instead.
The tests after the table need a monkeypatch or compare bytes.
"""

import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from types import SimpleNamespace

import pytest

from oiekit import cli, corpus_io, mle, rl, tagger
from oiekit.cli import EXIT_DATA as DATA, EXIT_OK as OK, EXIT_USAGE as USAGE
from oiekit.mle import TrainConfig
from oiekit.rl import RLConfig
from oiekit.tagger import TaggerConfig

PYTHON_M = [sys.executable, "-m", "oiekit.cli"]


def _run(command, argv, cwd):
    """(exit code, stderr) of oiekit run on ``argv`` in ``cwd``: by
    ``cli.main`` in this process when ``command`` is None, else as
    ``command + argv`` in a new process."""
    if command is not None:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        result = subprocess.run([*command, *argv], cwd=cwd, env=env, capture_output=True,
                                encoding="utf-8", errors="replace")
        return result.returncode, result.stderr
    err, home = io.StringIO(), os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stderr(err):
            return cli.main(argv), err.getvalue()
    finally:
        os.chdir(home)


def _fill(text, work, out):
    return text.replace("{work}", str(work)).replace("{out}", str(out))


@pytest.fixture(scope="module")
def cli_command(request):
    spec = request.config.getoption("--cli-command")
    return shlex.split(spec) if spec else None


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, cli_command):
    """synth -> label -> pretrain -> rl-train -> extract -> eval on 30
    synthetic sentences; returns the work directory and each exit code."""
    work = tmp_path_factory.mktemp("cli")
    (work / "pretrain.cfg").write_text(
        "# small and fast\n"
        "embedding_dim = 16\nindicator_dim = 2\nhidden_dim = 16\n"
        "num_encoder_layers = 1\nbatch_size = 4\nstep_size = 0.05\nepochs = 2\n",
        encoding="utf-8")
    (work / "patterns.txt").write_text(
        "predicate_pos = VERB\nARG1 = nsubj\nARG2 = obj, dobj\nARG3 = iobj\n",
        encoding="utf-8")
    steps = [
        "synth --n 30 --seed 4 --out-conllu {work}/train.conllu --out-gold {work}/train.gold "
        "--dev-conllu {work}/dev.conllu --dev-gold {work}/dev.gold",
        "label --conllu {work}/train.conllu --out {work}/train.inst",
        "pretrain --instances {work}/train.inst --config {work}/pretrain.cfg --out {work}/mle.ckpt",
        "rl-train --model {work}/mle.ckpt --conllu {work}/train.conllu --scorer surrogate "
        "--epochs 1 --beam 2 --out {work}/rl.ckpt",
        "extract --model {work}/rl.ckpt --conllu {work}/dev.conllu --patterns {work}/patterns.txt "
        "--rerank combined --scorer surrogate --out {work}/out.jsonl",
        "eval --extractions {work}/out.jsonl --gold {work}/dev.gold --report {work}/report.json "
        "--pr-out {work}/pr.tsv",
    ]
    codes = {}
    for step in steps:
        argv = [_fill(word, work, work) for word in shlex.split(step)]
        codes[argv[0]] = _run(cli_command, argv, work)[0]
    return work, codes


# A traceback or an exception's repr is never how a command reports a failure.
NEVER_IN_STDERR = ("Traceback", "Error(")


def row(argv, code, *err, files=(), inputs=None, process=False):
    """``oiekit argv`` run in a fresh empty directory ``{out}`` exits ``code``,
    prints each of ``err`` and none of NEVER_IN_STDERR to stderr, and leaves
    exactly the non-empty ``files`` in ``{out}``. ``{work}`` is the pipeline's
    directory; both are filled in ``argv`` and ``err``. ``inputs`` maps a file
    name in ``{work}`` to its text or to a function ``(work, path)`` that
    writes it first. A ``process`` row runs in a new
    process even without --cli-command."""
    return SimpleNamespace(argv=argv, code=code, err=err, files=sorted(files),
                           inputs=inputs or {}, process=process)


@pytest.fixture
def check(pipeline, cli_command, tmp_path_factory):
    work, _ = pipeline

    def check_row(row):
        out = tmp_path_factory.mktemp("out")
        for name, content in row.inputs.items():
            if callable(content):
                content(work, work / name)
            else:
                # surrogateescape writes a lone \udcXX as the raw byte 0xXX.
                (work / name).write_text(content, encoding="utf-8", errors="surrogateescape")
        argv = [_fill(word, work, out) for word in shlex.split(row.argv)]
        code, err = _run(cli_command or (PYTHON_M if row.process else None), argv, out)
        assert code == row.code, err
        for text in row.err:
            assert _fill(text, work, out) in err
        for text in NEVER_IN_STDERR:
            assert text not in err
        assert sorted(path.name for path in out.iterdir()) == row.files
        assert all(path.stat().st_size for path in out.iterdir())

    return check_row


def _instance(line, edit):
    """train.inst with ``edit`` applied to the record on ``line``."""
    def write(work, path):
        lines = (work / "train.inst").read_text(encoding="utf-8").splitlines(keepends=True)
        record = json.loads(lines[line - 1])
        edit(record)
        lines[line - 1] = json.dumps(record) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
    return write


def _checkpoint(edit):
    """rl.ckpt with ``edit`` applied to its bytes."""
    return lambda work, path: path.write_bytes(edit((work / "rl.ckpt").read_bytes()))


def _header(edit):
    """rl.ckpt with ``edit`` applied to its JSON header."""
    def edited(data):
        header, arrays = data.split(b"\n", 1)
        header = json.loads(header)
        edit(header)
        return json.dumps(header).encode("utf-8") + b"\n" + arrays
    return _checkpoint(edited)


def _config(**values):
    return _header(lambda header: header["config"].update(values))


def _hidden_dim(header):
    header["config"]["hidden_dim"] *= 2


def _short_vocab(header):
    header["vocab"] = header["vocab"][:5]


def _vocab(edit):
    def edited(header):
        header["vocab"] = edit(header["vocab"])
    return _header(edited)


def _nonfinite(value):
    def write(work, path):
        model = tagger.load_model(work / "mle.ckpt")
        model.params["enc.0.fw.wh"][1, 2] = value
        tagger.save_model(model, path)
    return write


def _unknown_label(record):
    record["labels"][record["predicate_index"] - 1] = "B-ARG9"


def _orphan_inside(record):
    record["labels"][record["predicate_index"] - 1] = "I-P"


def _second_predicate_span(record):
    record["labels"][record["labels"].index("O")] = "B-P"


def _predicate_moved(record):
    record["predicate_index"] = record["predicate_index"] % len(record["labels"]) + 1


def _label_as_list(record):
    record["labels"][2] = [record["labels"][2]]


def _predicate_as_string(record):
    record["predicate_index"] = str(record["predicate_index"])


def _labels_missing(record):
    del record["labels"]


def _sentence(field, value):
    def edit(record):
        record["sentence"][field] = value
    return edit


def _first_token(field, value):
    def edit(record):
        record["sentence"]["tokens"][0][field] = value
    return edit


_EXTRACTION = {"sentence_id": "s1", "predicate_span": [2, 2], "role_spans": {"ARG1": [1, 1]},
               "confidence": -0.5}
_TOKEN = {"index": 1, "surface": "runs", "upos": "VERB", "head": 0, "deprel": "root"}

LABEL = "label --conllu {work}/train.conllu --out {out}/l.inst"
PRETRAIN = "pretrain --instances {work}/train.inst --out {out}/m.ckpt"
INSTANCES = "pretrain --out {out}/m.ckpt --instances"
EVAL = "eval --report {out}/r.json --pr-out {out}/p.tsv --gold {work}/dev.gold --extractions"
RL = "rl-train --model {work}/mle.ckpt --conllu {work}/train.conllu --out {out}/r.ckpt"
# The two commands that read a checkpoint, each ending in --model.
READERS = {"extract": "extract --conllu {work}/dev.conllu --out {out}/o.jsonl --model",
           "rl-train": "rl-train --conllu {work}/dev.conllu --out {out}/r.ckpt --model"}
EXTRACT = READERS["extract"]
MISSING_RL = "rl-train --model missing.ckpt --conllu missing.conllu --out r.ckpt"
MISSING_EXTRACT = "extract --model missing.ckpt --conllu missing.conllu --out o.jsonl"
SCORER_CACHE = "--scorer-cache needs --rerank sem/combined and an adapter:URI --scorer"

# Test name -> its rows: one row or a tuple run in turn, or a dict of
# parametrised cases by id.
CONTRACT = {
    "test_process_exit_status": {
        "ok": row("synth --n 5 --out-conllu t.conllu --out-gold t.gold", OK,
                  files=["t.conllu", "t.gold"], process=True),
        "usage": row("synth --n 5 --out-conllu t.conllu", USAGE, "usage error:", process=True),
        "data": row("eval --extractions missing.jsonl --gold t.gold --report r.json --pr-out p.tsv",
                    DATA, "data error:", process=True)},
    "test_other_training_and_rerank_modes_exit_ok": {
        "rl-baseline-off": row(RL + " --scorer surrogate --epochs 1 --baseline off", OK,
                               files=["r.ckpt", "r.ckpt.metrics.jsonl"]),
        "extract-rerank-sem": row(EXTRACT + " {work}/rl.ckpt --rerank sem --scorer surrogate", OK,
                                  files=["o.jsonl"])},
    "test_missing_required_flag_is_a_usage_error": row(
        "label --conllu {work}/train.conllu", USAGE, "the following arguments are required: --out"),
    "test_config_line_without_equals_is_a_data_error": row(
        PRETRAIN + " --config {work}/bad.cfg", DATA, "{work}/bad.cfg: line 2",
        inputs={"bad.cfg": "epochs = 1\nhidden_dim 4\n"}),
    "test_pattern_line_without_equals_is_a_data_error": row(
        LABEL + " --patterns {work}/bad.patterns", DATA, "{work}/bad.patterns: line 1",
        inputs={"bad.patterns": "ARG1 nsubj\n"}),
    "test_pattern_table_it_refuses_names_its_file": {
        case: row(LABEL + " --patterns {work}/refused.patterns", DATA,
                  "data error: {work}/refused.patterns: " + message,
                  inputs={"refused.patterns": lines})
        for case, lines, message in [
            ("unknown-role", "ARG9 = nsubj\n", "unknown roles in pattern table: ['ARG9']"),
            ("shared-relation", "ARG1 = nsubj\nARG2 = obj, nsubj\n",
             "relations ['nsubj'] assigned to both ARG1 and ARG2")]},
    "test_non_object_json_line_is_a_data_error": {
        case: row(argv + " {work}/list.jsonl", DATA,
                  "{work}/list.jsonl: line 1: bad record: expected a JSON object, got list",
                  inputs={"list.jsonl": "[1, 2]\n"})
        for case, argv in [("argv0", EVAL), ("argv1", INSTANCES)]},
    "test_unknown_config_key_is_a_data_error": {
        f"pretrain-{key}": row(PRETRAIN + " --config {work}/typo.cfg", DATA, repr(key),
                               inputs={"typo.cfg": f"epochs = 1\n{key} = {value}\n"})
        for key, value in [("hidden_dimm", 4), ("beam_size", 4), ("use_indicator", "false"),
                           ("rng_seed", 4)]},
    "test_batch_size_below_one_is_a_data_error": {
        line: row(PRETRAIN + " --config {work}/batch.cfg", DATA, "batch_size must be >= 1",
                  inputs={"batch.cfg": f"epochs = 1\n{line}\n"})
        for line in ["batch_size = -4", "batch_size = 0"]},
    "test_config_value_that_does_not_cast_names_its_key": {
        f"pretrain-{line}": row(PRETRAIN + " --config {work}/cast.cfg", DATA,
                                repr(line.split(" = ")[0]), "{work}/cast.cfg",
                                inputs={"cast.cfg": f"epochs = 1\n{line}\n"})
        for line in ["hidden_dim = abc", "step_size = fast"]},
    "test_out_of_range_pretrain_setting_is_a_data_error": {
        line: row(PRETRAIN + " --config {work}/range.cfg", DATA, line.split(" = ")[0],
                  inputs={"range.cfg": f"{line}\n"})
        for line in ["epochs = -2", "epochs = 0", "step_size = -0.1", "step_size = 0",
                     "step_size = nan", "step_size = inf", "dev_fraction = 1.0",
                     "dev_fraction = -0.5", "hidden_dim = 0", "num_encoder_layers = 0",
                     "patience = 0", "patience = -3"]},
    "test_out_of_range_rl_setting_is_a_usage_error": {
        f"{flag}-{value}": row(f"{RL} {flag} {value}", USAGE,
                               f"usage error: rl-train: {flag} must be")
        for flag, value in [("--epochs", "-2"), ("--epochs", "0"), ("--step-size", "-0.1"),
                            ("--step-size", "nan"), ("--beam", "0")]},
    "test_instance_breaking_an_invariant_names_its_line": row(
        INSTANCES + " {work}/long.inst", DATA, "{work}/long.inst: line 1", "2 tags for 1 tokens",
        inputs={"long.inst": json.dumps({"sentence": {"sentence_id": "x", "text": "runs",
                                                      "tokens": [_TOKEN]},
                                         "predicate_index": 1, "labels": ["B-P", "O"]}) + "\n"}),
    "test_instance_breaking_the_bio_rule_stops_pretrain_before_training": {
        f"{edit.__name__}-{message}": row(INSTANCES + " {work}/bio.inst", DATA,
                                          "{work}/bio.inst: line 2", message,
                                          inputs={"bio.inst": _instance(2, edit)})
        for edit, message in [(_unknown_label, "unknown label 'B-ARG9'"),
                              (_orphan_inside, "I-P may not follow"),
                              (_second_predicate_span, "B-P may not follow"),
                              (_predicate_moved, "B-P may not follow")]},
    "test_bad_record_is_reported_in_plain_words": {
        case: row(INSTANCES + " {work}/plain.inst", DATA, "{work}/plain.inst: line 1", message,
                  inputs={"plain.inst": _instance(1, edit)})
        for case, edit, message in [
            ("unknown-label", _unknown_label, "position 3: unknown label 'B-ARG9'"),
            ("label-list", _label_as_list, "labels: position 3: ["),
            ("predicate-string", _predicate_as_string, "predicate_index '3' is not an integer"),
            ("missing-key", _labels_missing, "bad record: missing key 'labels'"),
            ("bool-index", _first_token("index", True),
             "bad record: token index must be of type int, got True"),
            ("float-head", _first_token("head", 2.0),
             "bad record: token head must be of type int, got 2.0"),
            ("list-sentence-id", _sentence("sentence_id", ["x"]),
             "bad record: sentence sentence_id must be of type str, got ['x']"),
            ("integer-sentence-id", _sentence("sentence_id", 7),
             "bad record: sentence sentence_id must be of type str, got 7"),
            ("list-text", _sentence("text", ["x"]),
             "bad record: sentence text must be of type str, got ['x']"),
            ("no-tokens", lambda record: record["sentence"].update(sentence_id="a", tokens=[]),
             "bad record: sentence 'a': no tokens"),
            ("predicate-outside", lambda record: record.update(
                sentence={"sentence_id": "a", "tokens": [_TOKEN]}, predicate_index=3,
                labels=["O"]), "bad record: predicate index 3 outside sentence 'a'")]},
    # An ID or HEAD that is not an integer, or one that Token or
    # ParsedSentence refuses.
    "test_conllu_id_or_head_that_is_not_an_integer_is_a_data_error": {
        case: row("label --conllu {work}/noint.conllu --out {out}/l.inst", DATA,
                  f"{{work}}/noint.conllu: line {line}{message}", inputs={"noint.conllu": rows})
        for case, rows, line, message in [
            ("head", "1\ta\t_\tVERB\t_\t_\tx\troot\t_\t_\n", 1, ""),
            ("id", "1\ta\t_\tVERB\t_\t_\t0\troot\t_\t_\nb\tb\t_\tNOUN\t_\t_\t1\tobj\t_\t_\n", 2,
             ""),
            ("index-zero", "0\ta\t_\tVERB\t_\t_\t0\troot\t_\t_\n", 1,
             ": token index must be >= 1, got 0"),
            ("negative-head", "1\ta\t_\tVERB\t_\t_\t-1\troot\t_\t_\n", 1,
             ": token head must be >= 0, got -1"),
            ("head-beyond", "# sent_id = s1\n1\ta\t_\tVERB\t_\t_\t5\troot\t_\t_\n", 2,
             ": sentence 's1': token 1 has head 5 beyond sentence length 1"),
            ("index-skipped", "# sent_id = s1\n1\ta\t_\tVERB\t_\t_\t0\troot\t_\t_\n"
             "3\tb\t_\tNOUN\t_\t_\t1\tobj\t_\t_\n", 3,
             ": sentence 's1': token index 3 at position 2 (indices must be 1..2 in order)")]},
    "test_empty_corpus_is_a_data_error": {
        "pretrain": row(INSTANCES + " {work}/empty.inst", DATA,
                        "pretraining needs a non-empty corpus", inputs={"empty.inst": ""}),
        "rl-train": row("rl-train --model {work}/mle.ckpt --conllu {work}/empty.conllu "
                        "--out {out}/r.ckpt", DATA,
                        "reinforcement learning needs a non-empty corpus",
                        inputs={"empty.conllu": ""})},
    "test_repeated_sentence_id_is_a_data_error": row(
        "extract --model {work}/rl.ckpt --conllu {work}/twice.conllu --out {out}/o.jsonl", DATA,
        "repeats", inputs={"twice.conllu": lambda work, path: path.write_text(
            2 * ((work / "dev.conllu").read_text(encoding="utf-8").split("\n\n")[0] + "\n\n"),
            encoding="utf-8")}),
    "test_malformed_gold_is_a_data_error": {
        case: row("eval --extractions {work}/out.jsonl --gold {work}/bad.gold "
                  "--report {out}/r.json --pr-out {out}/p.tsv", DATA,
                  f"{{work}}/bad.gold: line {line}: {message}", inputs={"bad.gold": rows})
        for case, rows, message, line in [
            ("short-row", "a\t2\tARG1\n", "expected at least 4 tab-separated columns", 1),
            ("head", "a\t2\tARG1\tone\n", "non-integer head index", 1),
            ("repeated-role", "a\t2\tARG1\t1\na\t2\tARG1\t3\n", "duplicate role 'ARG1'", 2),
            ("lower-case-role", "a\t2\tARG2\t3\na\t2\targ1\t1\n", "unknown role 'arg1'", 2),
            ("predicate-role", "a\t2\tP\t2\n", "unknown role 'P'", 1),
            ("predicate-head-zero", "a\t0\tARG1\t1\n", "predicate head must be >= 1, got 0", 1),
            ("negative-role-head", "a\t2\tARG1\t1\na\t2\tARG2\t-3\n",
             "role head must be >= 1, got -3", 2),
            # A role span never overlaps its predicate span, so this tuple never matches.
            ("role-head-is-predicate-head", "a\t2\tARG2\t3\na\t3\tARG1\t3\n",
             "role head 3 is the predicate head", 2),
            ("not-utf8", "a\t2\tARG1\t1\na\t2\tARG2\t3\tm\udcfcde\n",
             "not UTF-8 text: byte 0xfc at column 13", 2)]},
    "test_extraction_record_of_the_wrong_type_names_its_field": {
        case: row(EVAL + " {work}/typed.jsonl", DATA,
                  f"{{work}}/typed.jsonl: line 2: bad record: {field}",
                  inputs={"typed.jsonl": json.dumps(_EXTRACTION) + "\n"
                          + json.dumps({**_EXTRACTION, field: value}) + "\n"})
        for case, field, value in [
            ("string-confidence", "confidence", "high"),
            ("nan-confidence", "confidence", float("nan")),
            ("infinite-confidence", "confidence", float("inf")),
            ("null-confidence", "confidence", None), ("string-span", "predicate_span", "12"),
            ("three-ends", "predicate_span", [3, 3, 4]),
            ("float-end", "predicate_span", [2.0, 2]),
            ("float-role-end", "role_spans", {"ARG1": [1.5, 2]}),
            ("role-span-list", "role_spans", [[1, 1]]), ("integer-id", "sentence_id", 7)]},
    # P is the predicate span, not a role.
    "test_extraction_record_with_an_unknown_role_names_its_line": {
        role: row(EVAL + " {work}/roles.jsonl", DATA,
                  f"{{work}}/roles.jsonl: line 2: bad record: unknown role {role!r}",
                  inputs={"roles.jsonl": json.dumps(_EXTRACTION) + "\n" + json.dumps(
                      {**_EXTRACTION, "role_spans": {role: span}}) + "\n"})
        for role, span in [("ARG9", [1, 1]), ("P", [3, 3])]},
    # A bad command line is a usage error whether or not its input file exists.
    # Headword matching is eval's one matcher; the lenient overlap matcher's
    # flags are gone, and naming one leaves no report behind.
    "test_overlap_matcher_flag_is_an_unrecognized_argument": {
        case: row(argv, USAGE, f"unrecognized arguments: {argv.split()[-2]}")
        for case, argv in [
            ("overlap-threshold", EVAL + " {work}/out.jsonl --overlap-threshold 0.5"),
            ("conllu", EVAL + " {work}/out.jsonl --conllu missing.conllu")]},
    "test_rl_dev_gold_without_dev_conllu_is_a_usage_error": tuple(
        row(f"rl-train --model {model} --conllu {{work}}/train.conllu "
            "--dev-gold {work}/dev.gold --out {out}/r.ckpt", USAGE,
            "--dev-gold requires --dev-conllu")
        for model in ["missing.ckpt", "{work}/mle.ckpt"]),
    "test_checkpoint_of_another_format_is_a_data_error": row(
        EXTRACT + " {work}/format.ckpt", DATA,
        "{work}/format.ckpt: checkpoint format is not 'oiekit-checkpoint-2'",
        inputs={"format.ckpt": _header(lambda h: h.update(format="oiekit-checkpoint-1"))}),
    "test_truncated_checkpoint_is_a_data_error": row(
        EXTRACT + " {work}/cut.ckpt", DATA, "{work}/cut.ckpt: checkpoint",
        inputs={"cut.ckpt": _checkpoint(lambda data: data[:-5])}),
    "test_checkpoint_cut_inside_its_header_is_reported_in_plain_words": row(
        EXTRACT + " {work}/header.ckpt", DATA, "bad header: Unterminated string",
        inputs={"header.ckpt": _checkpoint(
            lambda data: data[: data.index(b"oiekit-checkpoint") + 3])}),
    "test_checkpoint_header_that_is_not_utf8_is_a_data_error": row(
        EXTRACT + " {work}/latin.ckpt", DATA,
        "{work}/latin.ckpt: line 1: not UTF-8 text: byte 0xdf at column 1",
        inputs={"latin.ckpt": _checkpoint(lambda data: b"\xdf\xff" + data)}),
    "test_checkpoint_with_a_non_finite_parameter_is_a_data_error": {
        f"{value}-{command}": row(f"{argv} {{work}}/nonfinite.ckpt", DATA,
                                  "'enc.0.fw.wh' holds a non-finite value",
                                  inputs={"nonfinite.ckpt": _nonfinite(float(value))})
        for value in ["inf", "nan"] for command, argv in READERS.items()},
    # The header's config and vocabulary are the arrays' one layout, so a
    # header that disagrees with them meets too few bytes or too many; one
    # asking for far more than the file holds allocates none of it.
    "test_checkpoint_shape_disagreeing_with_its_config_is_a_data_error": {
        f"{case}-{command}": row(f"{argv} {{work}}/shape.ckpt", DATA,
                                 "{work}/shape.ckpt: checkpoint " + message,
                                 inputs={"shape.ckpt": _header(edit)})
        for case, edit, message in [
            ("hidden-dim", _hidden_dim, "array 'enc.0.fw.wh' has "),
            ("short-vocab", _short_vocab, "has trailing bytes after the last array"),
            ("huge-hidden-dim", lambda header: header["config"].update(hidden_dim=10**12),
             "array 'enc.0.fw.wx' has ")]
        for command, argv in READERS.items()},
    "test_checkpoint_vocabulary_of_other_than_distinct_words_is_a_data_error": {
        f"{case}-{command}": row(f"{argv} {{work}}/vocab.ckpt", DATA,
                                 "{work}/vocab.ckpt: checkpoint bad header: vocabulary " + message,
                                 inputs={"vocab.ckpt": _vocab(edit)})
        for case, edit, message in [
            ("first-word-list", lambda vocab: vocab[:1] + [["x"]] + vocab[2:],
             "entries must be distinct strings"),
            ("one-string", lambda vocab: "x" * len(vocab), "must be a list starting"),
            ("repeated-word", lambda vocab: vocab[:2] + vocab[1:-1], "entries must be distinct")]
        for command, argv in READERS.items()},
    "test_checkpoint_naming_another_input_layer_is_a_data_error": {
        case: row(EXTRACT + " {work}/layer.ckpt", DATA, repr(key),
                  inputs={"layer.ckpt": _config(**{key: value})})
        for case, key, value in [("use_indicator-False", "use_indicator", False),
                                 ("embedder_kind-external-contextual", "embedder_kind",
                                  "external-contextual"), ("roles-P", "roles", ["P"])]},
    "test_checkpoint_dimension_its_config_refuses_names_the_file": {
        case: row(EXTRACT + " {work}/dim.ckpt", DATA, "{work}/dim.ckpt: checkpoint bad header: "
                  f"hidden_dim must be an integer >= 1, got {value!r}",
                  inputs={"dim.ckpt": _config(hidden_dim=value)})
        for case, value in [("float", 64.0), ("bool", True), ("zero", 0)]},
    "test_checkpoint_with_a_float_dimension_exits_2_without_a_traceback": row(
        EXTRACT + " {work}/float.ckpt", DATA,
        "{work}/float.ckpt: checkpoint bad header: hidden_dim",
        inputs={"float.ckpt": _config(hidden_dim=64.0)}, process=True),
    # Headers written before the decoder width left TaggerConfig held it.
    "test_checkpoint_header_holding_beam_size_is_a_bad_header": row(
        EXTRACT + " {work}/beam.ckpt", DATA, "{work}/beam.ckpt: checkpoint bad header: ",
        "'beam_size'", inputs={"beam.ckpt": _config(beam_size=3)}),
    # A negative seed is refused by its field's name before any input is read.
    "test_negative_seed_is_refused_by_name_before_any_file_is_read": {
        "synth": row("synth --n 5 --seed -1 --out-conllu t.conllu --out-gold t.gold", USAGE,
                     "seed = -1: the seed must be >= 0"),
        "rl-train": row(MISSING_RL + " --seed -1", USAGE, "rl-train: --seed must be >= 0, got -1"),
        "pretrain-config": row("pretrain --instances missing.inst --out m.ckpt "
                               "--config {work}/seed.cfg", DATA,
                               "{work}/seed.cfg: rng_seed must be an integer >= 0, got -1",
                               inputs={"seed.cfg": "seed = -1\n"})},
    # pretrain reads its settings only from its config file, rl-train only
    # from its flags; the other way in is refused before any file is read.
    "test_training_setting_outside_its_one_way_in_is_a_usage_error": {
        case: row(argv, USAGE, f"unrecognized arguments: {argv.split()[-2]}")
        for case, argv in [
            ("pretrain-epochs", "pretrain --instances missing.inst --out m.ckpt --epochs 1"),
            ("pretrain-seed", "pretrain --instances missing.inst --out m.ckpt --seed 3"),
            ("rl-train-config", MISSING_RL + " --config f.cfg")]},
    # A cache only an adapter fills, and only where something is scored.
    "test_scorer_cache_nothing_would_fill_is_a_usage_error": {
        case: row(argv + " --scorer-cache c.jsonl", USAGE, message)
        for case, argv, message in [
            ("extract-surrogate", MISSING_EXTRACT + " --rerank sem", SCORER_CACHE),
            ("extract-rerank-none", MISSING_EXTRACT + " --scorer adapter:http://127.0.0.1:9",
             SCORER_CACHE),
            ("rl-train-surrogate", MISSING_RL, "--scorer-cache needs an adapter:URI --scorer")]},
    # extract builds a scorer only to rerank; a --scorer nothing would use is refused.
    "test_extract_scorer_without_rerank_is_a_usage_error": {
        case: row(f"{MISSING_EXTRACT} {flags}", USAGE, "--scorer needs --rerank sem or combined")
        for case, flags in [("adapter", "--scorer adapter:http://127.0.0.1:9"),
                            ("surrogate-rerank-none", "--rerank none --scorer surrogate")]},
    # make_sem_scorer reads the spec; one it refuses is a usage error, raised
    # before the (missing) model is read.
    "test_bad_scorer_spec_is_a_usage_error_before_the_model_is_read": {
        case: row(f"{argv} --scorer {spec}", USAGE, f"usage error: --scorer: {message}")
        for case, argv, spec, message in [
            ("rl-train-unknown", MISSING_RL, "bogus", "unknown scorer spec 'bogus'"),
            ("rl-train-no-endpoint", MISSING_RL, "adapter:",
             "adapter endpoint must be an http(s) URL, got ''"),
            ("extract-no-endpoint", MISSING_EXTRACT + " --rerank sem", "adapter:",
             "adapter endpoint must be an http(s) URL, got ''"),
            ("extract-file-url", MISSING_EXTRACT + " --rerank combined",
             "adapter:file:///dev/null", "adapter endpoint must be an http(s) URL")]},
    "test_synth_dev_fraction_outside_unit_interval_is_a_usage_error": {
        fraction: row(f"synth --n 5 --dev-fraction {fraction} --out-conllu t.conllu "
                      "--out-gold t.gold --dev-conllu d.conllu --dev-gold d.gold", USAGE)
        for fraction in ["1.5", "1.0", "-0.5"]},
    # A requested dev split that leaves either side empty is a usage error.
    "test_synth_split_leaving_a_side_empty_is_a_usage_error": {
        case: row(f"synth {flags} --out-conllu t.conllu --out-gold t.gold "
                  "--dev-conllu d.conllu --dev-gold d.gold", USAGE, f"leaves the {side} split empty")
        for case, flags, side in [("all-dev", "--n 3 --dev-fraction 0.9", "train"),
                                  ("one-sentence", "--n 1", "train"),
                                  ("no-dev", "--n 5 --dev-fraction 0", "dev")]},
    # atomic_write names the path it was given, not its temporary file.
    "test_write_into_a_missing_directory_names_the_path": row(
        "synth --n 2 --out-conllu {out}/missing/t.conllu --out-gold {out}/t.gold", DATA,
        "No such file or directory: '{out}/missing/t.conllu'"),
    "test_negative_synth_count_is_a_usage_error": row(
        "synth --n -5 --out-conllu t.conllu --out-gold t.gold", USAGE, "n = -5"),
    # A weight that is not a finite, non-negative number, an unknown
    # template, or weights whose sum is zero or overflows.
    "test_bad_synth_templates_spec_is_a_usage_error": {
        f"{spec}-{entry}": row(f"synth --n 5 --templates {spec} --out-conllu t.conllu "
                               "--out-gold t.gold", USAGE, repr(entry))
        for spec, entry in [("svo:abc", "svo:abc"), ("svo:-1,ditrans:2", "svo:-1"),
                            ("svo_pp,svo:nan", "svo:nan"), ("svo,svx:2", "svx:2"),
                            ("svo:0,ditrans:0", "svo:0,ditrans:0"),
                            ("svo:1e308,ditrans:1e308", "svo:1e308,ditrans:1e308")]},
}


def _contract_test(rows):
    if isinstance(rows, dict):
        @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
        def test(check, row):
            check(row)
    else:
        def test(check):
            for one in rows if isinstance(rows, tuple) else (rows,):
                check(one)
    return test


# Each group keeps the name of the test it has always been run as.
globals().update((name, _contract_test(rows)) for name, rows in CONTRACT.items())


def _training_inputs(work, command):
    """The input flags of a pretrain or rl-train run on the pipeline's files."""
    return {"pretrain": ["--instances", str(work / "train.inst")],
            "rl-train": ["--model", str(work / "mle.ckpt"),
                         "--conllu", str(work / "train.conllu")]}[command]


def test_pipeline_exits_ok(pipeline):
    work, codes = pipeline
    assert codes == dict.fromkeys(codes, cli.EXIT_OK)
    assert (work / "out.jsonl").read_text(encoding="utf-8").strip()
    assert (work / "mle.ckpt.metrics.jsonl").read_text(encoding="utf-8").count("\n") == 2
    assert (work / "rl.ckpt.metrics.jsonl").read_text(encoding="utf-8").count("\n") == 1


def test_closed_output_pipe_ends_quietly(pipeline, capsys):
    # The report goes to a pipe whose reader has gone, as with `| head`.
    work, _ = pipeline
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        code = cli.main(["eval", "--extractions", str(work / "out.jsonl"),
                         "--gold", str(work / "dev.gold"), "--report", f"/dev/fd/{write_end}",
                         "--pr-out", str(work / "closed.tsv")])
    finally:
        os.close(write_end)
    assert code == cli.EXIT_OK
    assert capsys.readouterr().err == ""


# A NaN in one gradient array stops the first update. Without a baseline,
# the first candidate with a non-zero reward updates.
@pytest.mark.parametrize("command,flags", [("pretrain", []), ("rl-train", ["--baseline", "off"])])
def test_non_finite_gradient_is_a_numeric_failure(pipeline, capsys, monkeypatch, command, flags):
    work, _ = pipeline
    message = {"pretrain": "non-finite gradient at epoch 1",
               "rl-train": "non-finite gradient on sentence '"}[command]
    real_backward = tagger.backward_from_dlogits

    def nan_backward(model, cache, dlogits):
        grads = real_backward(model, cache, dlogits)
        grads["cls.b"][0] = float("nan")
        return grads

    monkeypatch.setattr(tagger, "backward_from_dlogits", nan_backward)
    code = cli.main([command, *_training_inputs(work, command), *flags,
                     "--out", str(work / "numeric.ckpt")])
    assert code == cli.EXIT_NUMERIC
    assert f"numeric failure: {message}" in capsys.readouterr().err
    assert not (work / "numeric.ckpt").exists()


def test_pretrain_config_keys_reach_their_config_fields(pipeline, tmp_path, monkeypatch):
    work, _ = pipeline
    seen = []

    def record(model, instances, config):
        seen.append((model.config, config))
        return []

    monkeypatch.setattr(mle, "pretrain", record)
    (tmp_path / "all.cfg").write_text(
        "embedding_dim = 5\nindicator_dim = 3\nhidden_dim = 7\nnum_encoder_layers = 1\n"
        "epochs = 4\nbatch_size = 2\nstep_size = 0.5\ndev_fraction = 0.25\npatience = 6\n"
        "seed = 9\n", encoding="utf-8")
    for config in ([], ["--config", str(tmp_path / "all.cfg")]):
        assert cli.main(["pretrain", *_training_inputs(work, "pretrain"), *config,
                         "--out", str(tmp_path / "m.ckpt")]) == cli.EXIT_OK
    assert seen == [(TaggerConfig(), TrainConfig()),
                    (TaggerConfig(embedding_dim=5, indicator_dim=3, hidden_dim=7,
                                  num_encoder_layers=1, rng_seed=9),
                     TrainConfig(epochs=4, batch_size=2, step_size=0.5, dev_fraction=0.25,
                                 patience=6, rng_seed=9))]


def test_rl_train_flags_reach_their_config_fields(pipeline, tmp_path, monkeypatch):
    work, _ = pipeline
    seen = []

    def record(model, sentences, scorer, config, table, dev):
        seen.append(config)
        return []

    monkeypatch.setattr(rl, "train_rl", record)
    flags = ["--epochs", "2", "--beam", "4", "--baseline", "off", "--step-size", "0.5",
             "--seed", "7", "--sample"]
    for settings in ([], flags):
        assert cli.main(["rl-train", *_training_inputs(work, "rl-train"), *settings,
                         "--out", str(tmp_path / "r.ckpt")]) == cli.EXIT_OK
    assert seen == [RLConfig(), RLConfig(epochs=2, beam_size=4, baseline_mode="off",
                                         step_size=0.5, explore_mode="sample", rng_seed=7)]


def test_extract_rerank_without_scorer_uses_the_surrogate(pipeline):
    work, _ = pipeline
    code = cli.main(["extract", "--model", str(work / "rl.ckpt"),
                     "--conllu", str(work / "dev.conllu"), "--patterns", str(work / "patterns.txt"),
                     "--rerank", "combined", "--out", str(work / "default-scorer.jsonl")])
    assert code == cli.EXIT_OK
    assert (work / "default-scorer.jsonl").read_bytes() == (work / "out.jsonl").read_bytes()


def test_synth_dev_conllu_without_dev_gold_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the corpus was generated before the flags were checked")

    monkeypatch.setattr(corpus_io, "gen_synthetic", refuse)
    code = cli.main(["synth", "--n", "5", "--out-conllu", str(tmp_path / "t.conllu"),
                     "--out-gold", str(tmp_path / "t.gold"),
                     "--dev-conllu", str(tmp_path / "d.conllu")])
    assert code == cli.EXIT_USAGE
    assert "--dev-conllu requires --dev-gold" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_synth_dev_gold_without_dev_conllu_is_a_usage_error(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the corpus was generated before the flags were checked")

    monkeypatch.setattr(corpus_io, "gen_synthetic", refuse)
    code = cli.main(["synth", "--n", "5", "--out-conllu", str(tmp_path / "t.conllu"),
                     "--out-gold", str(tmp_path / "t.gold"),
                     "--dev-gold", str(tmp_path / "d.gold")])
    assert code == cli.EXIT_USAGE
    assert "--dev-gold requires --dev-conllu" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_synth_without_a_dev_split_writes_every_sentence(tmp_path, capsys):
    code = cli.main(["synth", "--n", "5", "--seed", "2", "--out-conllu", str(tmp_path / "t.conllu"),
                     "--out-gold", str(tmp_path / "t.gold")])
    assert code == cli.EXIT_OK
    sentences, gold = corpus_io.gen_synthetic(n=5, seed=2)
    assert corpus_io.read_conllu(tmp_path / "t.conllu") == sentences
    assert len(corpus_io.read_gold(tmp_path / "t.gold")) == len(gold)
    assert f"wrote 5 sentences, {len(gold)} gold tuples" in capsys.readouterr().out


def test_synth_templates_ignore_spaces_around_names_and_weights(tmp_path):
    outputs = []
    for spec in ("svo:2,ditrans", " svo : 2 , ditrans"):
        work = tmp_path / str(len(outputs))
        work.mkdir()
        code = cli.main(["synth", "--n", "20", "--seed", "3", "--templates", spec,
                         "--out-conllu", str(work / "t.conllu"), "--out-gold", str(work / "t.gold")])
        assert code == cli.EXIT_OK
        outputs.append([(work / name).read_bytes() for name in ("t.conllu", "t.gold")])
    assert outputs[0] == outputs[1]
    assert b"-ditrans" in outputs[0][0] and b"-svo" in outputs[0][0]


def test_rl_dev_pass_leaves_the_checkpoint_unchanged(pipeline):
    # The dev pass runs extract's inference copy of the model; it only logs.
    work, _ = pipeline
    code = cli.main(["rl-train", "--model", str(work / "mle.ckpt"),
                     "--conllu", str(work / "train.conllu"), "--scorer", "surrogate",
                     "--epochs", "1", "--beam", "2", "--dev-conllu", str(work / "dev.conllu"),
                     "--dev-gold", str(work / "dev.gold"), "--out", str(work / "rl-dev.ckpt")])
    assert code == cli.EXIT_OK
    assert (work / "rl-dev.ckpt").read_bytes() == (work / "rl.ckpt").read_bytes()


def test_outputs_do_not_depend_on_the_string_hash_seed(tmp_path):
    script = ("import json, sys\nfrom oiekit import cli\n"
              "sys.exit(any(cli.main(argv) for argv in json.loads(sys.argv[1])))\n")
    outputs = []
    for hash_seed in ("1", "2"):
        work = tmp_path / hash_seed
        work.mkdir()
        path = lambda name: str(work / name)  # noqa: E731
        (work / "small.cfg").write_text("embedding_dim = 8\nhidden_dim = 8\nindicator_dim = 4\n"
                                        "epochs = 2\nbatch_size = 4\nstep_size = 0.05\n",
                                        encoding="utf-8")
        steps = [
            ["synth", "--n", "40", "--seed", "5", "--out-conllu", path("train.conllu"),
             "--out-gold", path("train.gold")],
            ["label", "--conllu", path("train.conllu"), "--out", path("train.inst")],
            ["pretrain", "--instances", path("train.inst"), "--config", path("small.cfg"),
             "--out", path("mle.ckpt")],
            ["rl-train", "--model", path("mle.ckpt"), "--conllu", path("train.conllu"),
             "--scorer", "surrogate", "--epochs", "1", "--out", path("rl.ckpt")],
            ["extract", "--model", path("rl.ckpt"), "--conllu", path("train.conllu"),
             "--rerank", "combined", "--scorer", "surrogate", "--out", path("out.jsonl")],
        ]
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", script, json.dumps(steps)], env=env,
                       capture_output=True, check=True)
        outputs.append([(work / name).read_bytes() for name in ("mle.ckpt", "rl.ckpt", "out.jsonl")])
    assert outputs[0][2].count(b"\n") > 10
    assert outputs[0] == outputs[1]
