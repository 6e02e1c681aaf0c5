"""End-to-end runs of the command-line surface and its exit codes."""

import json
import os
import subprocess
import sys

import pytest

from oiekit import cli, corpus_io, mle, rl, tagger
from oiekit.mle import TrainConfig
from oiekit.rl import RLConfig
from oiekit.tagger import TaggerConfig


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> label -> pretrain -> rl-train -> extract -> eval on 30
    synthetic sentences; returns the work directory and each exit code."""
    work = tmp_path_factory.mktemp("cli")
    path = lambda name: str(work / name)  # noqa: E731
    (work / "pretrain.cfg").write_text(
        "# small and fast\n"
        "embedding_dim = 16\nindicator_dim = 2\nhidden_dim = 16\n"
        "num_encoder_layers = 1\nbatch_size = 4\nstep_size = 0.05\nepochs = 2\n",
        encoding="utf-8")
    (work / "patterns.txt").write_text(
        "predicate_pos = VERB\nARG1 = nsubj\nARG2 = obj, dobj\nARG3 = iobj\n",
        encoding="utf-8")
    codes = {
        "synth": cli.main(["synth", "--n", "30", "--seed", "4",
                           "--out-conllu", path("train.conllu"), "--out-gold", path("train.gold"),
                           "--dev-conllu", path("dev.conllu"), "--dev-gold", path("dev.gold")]),
        "label": cli.main(["label", "--conllu", path("train.conllu"),
                           "--out", path("train.inst")]),
        "pretrain": cli.main(["pretrain", "--instances", path("train.inst"),
                              "--config", path("pretrain.cfg"), "--out", path("mle.ckpt")]),
        "rl-train": cli.main(["rl-train", "--model", path("mle.ckpt"),
                              "--conllu", path("train.conllu"), "--scorer", "surrogate",
                              "--epochs", "1", "--beam", "2", "--out", path("rl.ckpt")]),
        "extract": cli.main(["extract", "--model", path("rl.ckpt"), "--conllu", path("dev.conllu"),
                             "--patterns", path("patterns.txt"), "--rerank", "combined",
                             "--scorer", "surrogate", "--out", path("out.jsonl")]),
        "eval": cli.main(["eval", "--extractions", path("out.jsonl"), "--gold", path("dev.gold"),
                          "--report", path("report.json"), "--pr-out", path("pr.tsv")]),
    }
    return work, codes


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


def test_missing_required_flag_is_a_usage_error(pipeline):
    work, _ = pipeline
    assert cli.main(["label", "--conllu", str(work / "train.conllu")]) == cli.EXIT_USAGE


def test_config_line_without_equals_is_a_data_error(pipeline, capsys):
    work, _ = pipeline
    (work / "bad.cfg").write_text("epochs = 1\nhidden_dim 4\n", encoding="utf-8")
    code = cli.main(["pretrain", "--instances", str(work / "train.inst"),
                     "--config", str(work / "bad.cfg"), "--out", str(work / "bad.ckpt")])
    assert code == cli.EXIT_DATA
    assert f"{work / 'bad.cfg'}: line 2" in capsys.readouterr().err


def test_pattern_line_without_equals_is_a_data_error(pipeline, capsys):
    work, _ = pipeline
    (work / "bad.patterns").write_text("ARG1 nsubj\n", encoding="utf-8")
    code = cli.main(["label", "--conllu", str(work / "train.conllu"),
                     "--patterns", str(work / "bad.patterns"), "--out", str(work / "bad.inst")])
    assert code == cli.EXIT_DATA
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("lines,message", [
    ("ARG9 = nsubj\n", "unknown roles in pattern table: ['ARG9']"),
    ("ARG1 = nsubj\nARG2 = obj, nsubj\n", "relations ['nsubj'] assigned to both ARG1 and ARG2"),
], ids=["unknown-role", "shared-relation"])
def test_pattern_table_it_refuses_names_its_file(pipeline, capsys, lines, message):
    work, _ = pipeline
    table = work / "refused.patterns"
    table.write_text(lines, encoding="utf-8")
    code = cli.main(["label", "--conllu", str(work / "train.conllu"),
                     "--patterns", str(table), "--out", str(work / "refused.inst")])
    assert code == cli.EXIT_DATA
    assert f"data error: {table}: {message}" in capsys.readouterr().err
    assert not (work / "refused.inst").exists()


@pytest.mark.parametrize("argv", [
    ["eval", "--extractions", "list.jsonl", "--gold", "dev.gold",
     "--report", "r.json", "--pr-out", "p.tsv"],
    ["pretrain", "--instances", "list.jsonl", "--out", "bad.ckpt"],
])
def test_non_object_json_line_is_a_data_error(pipeline, argv):
    work, _ = pipeline
    (work / "list.jsonl").write_text("[1, 2]\n", encoding="utf-8")
    argv = [arg if arg.startswith("-") or arg == argv[0] else str(work / arg) for arg in argv]
    assert cli.main(argv) == cli.EXIT_DATA


@pytest.mark.parametrize("command,key", [("pretrain", "hidden_dimm"), ("pretrain", "beam_size"),
                                         ("pretrain", "use_indicator"), ("pretrain", "rng_seed")])
def test_unknown_config_key_is_a_data_error(pipeline, capsys, command, key):
    work, _ = pipeline
    value = "false" if key == "use_indicator" else "4"
    (work / "typo.cfg").write_text(f"epochs = 1\n{key} = {value}\n", encoding="utf-8")
    code = cli.main([command, *_training_inputs(work, command), "--config", str(work / "typo.cfg"),
                     "--out", str(work / "typo.ckpt")])
    assert code == cli.EXIT_DATA
    assert repr(key) in capsys.readouterr().err
    assert not (work / "typo.ckpt").exists()


@pytest.mark.parametrize("line", ["batch_size = -4", "batch_size = 0"])
def test_batch_size_below_one_is_a_data_error(pipeline, capsys, line):
    work, _ = pipeline
    (work / "batch.cfg").write_text(f"epochs = 1\n{line}\n", encoding="utf-8")
    code = cli.main(["pretrain", "--instances", str(work / "train.inst"),
                     "--config", str(work / "batch.cfg"), "--out", str(work / "batch.ckpt")])
    assert code == cli.EXIT_DATA
    assert "batch_size must be >= 1" in capsys.readouterr().err
    assert not (work / "batch.ckpt").exists()


@pytest.mark.parametrize("command,line", [("pretrain", "hidden_dim = abc"),
                                          ("pretrain", "step_size = fast")])
def test_config_value_that_does_not_cast_names_its_key(pipeline, capsys, command, line):
    work, _ = pipeline
    (work / "cast.cfg").write_text(f"epochs = 1\n{line}\n", encoding="utf-8")
    code = cli.main([command, *_training_inputs(work, command), "--config", str(work / "cast.cfg"),
                     "--out", str(work / "cast.ckpt")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert repr(line.split(" = ")[0]) in err
    assert "cast.cfg" in err
    assert not (work / "cast.ckpt").exists()


def test_instance_breaking_an_invariant_names_its_line(pipeline, capsys):
    work, _ = pipeline
    token = {"index": 1, "surface": "runs", "upos": "VERB", "head": 0, "deprel": "root"}
    record = {"sentence": {"sentence_id": "x", "text": "runs", "tokens": [token]},
              "predicate_index": 1, "labels": ["B-P", "O"]}
    (work / "long.inst").write_text(json.dumps(record) + "\n", encoding="utf-8")
    code = cli.main(["pretrain", "--instances", str(work / "long.inst"),
                     "--out", str(work / "long.ckpt")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "line 1" in err
    assert "2 tags for 1 tokens" in err


def _unknown_label(record):
    record["labels"][record["predicate_index"] - 1] = "B-ARG9"


def _orphan_inside(record):
    record["labels"][record["predicate_index"] - 1] = "I-P"


def _second_predicate_span(record):
    record["labels"][record["labels"].index("O")] = "B-P"


def _predicate_moved(record):
    record["predicate_index"] = record["predicate_index"] % len(record["labels"]) + 1


@pytest.mark.parametrize("edit,message", [
    (_unknown_label, "unknown label 'B-ARG9'"), (_orphan_inside, "I-P may not follow"),
    (_second_predicate_span, "B-P may not follow"), (_predicate_moved, "B-P may not follow")])
def test_instance_breaking_the_bio_rule_stops_pretrain_before_training(pipeline, capsys,
                                                                       edit, message):
    work, _ = pipeline
    lines = (work / "train.inst").read_text(encoding="utf-8").splitlines(keepends=True)
    record = json.loads(lines[1])
    edit(record)
    lines[1] = json.dumps(record) + "\n"
    (work / "bio.inst").write_text("".join(lines), encoding="utf-8")
    code = cli.main(["pretrain", "--instances", str(work / "bio.inst"),
                     "--out", str(work / "bio.ckpt")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "line 2" in err
    assert message in err
    assert not (work / "bio.ckpt").exists()
    assert not (work / "bio.ckpt.metrics.jsonl").exists()


def _label_as_list(record):
    record["labels"][2] = [record["labels"][2]]


def _predicate_as_string(record):
    record["predicate_index"] = str(record["predicate_index"])


def _labels_missing(record):
    del record["labels"]


def _first_token(field, value):
    def edit(record):
        record["sentence"]["tokens"][0][field] = value
    return edit


@pytest.mark.parametrize("edit,message", [
    (_unknown_label, "position 3: unknown label 'B-ARG9'"),
    (_label_as_list, "labels: position 3: ["),
    (_predicate_as_string, "predicate_index '3' is not an integer"),
    (_labels_missing, "bad record: missing key 'labels'"),
    (_first_token("index", True), "bad record: token index must be of type int, got True"),
    (_first_token("head", 2.0), "bad record: token head must be of type int, got 2.0")],
    ids=["unknown-label", "label-list", "predicate-string", "missing-key", "bool-index",
         "float-head"])
def test_bad_record_is_reported_in_plain_words(pipeline, capsys, edit, message):
    work, _ = pipeline
    record = json.loads((work / "train.inst").read_text(encoding="utf-8").splitlines()[0])
    assert record["predicate_index"] == 3
    edit(record)
    (work / "plain.inst").write_text(json.dumps(record) + "\n", encoding="utf-8")
    code = cli.main(["pretrain", "--instances", str(work / "plain.inst"),
                     "--out", str(work / "plain.ckpt")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "line 1" in err
    assert message in err
    assert "Error(" not in err


@pytest.mark.parametrize("rows,line", [
    ("1\ta\t_\tVERB\t_\t_\tx\troot\t_\t_\n", 1),
    ("1\ta\t_\tVERB\t_\t_\t0\troot\t_\t_\nb\tb\t_\tNOUN\t_\t_\t1\tobj\t_\t_\n", 2),
], ids=["head", "id"])
def test_conllu_id_or_head_that_is_not_an_integer_is_a_data_error(pipeline, capsys, rows, line):
    work, _ = pipeline
    (work / "noint.conllu").write_text(rows, encoding="utf-8")
    code = cli.main(["label", "--conllu", str(work / "noint.conllu"),
                     "--out", str(work / "noint.inst")])
    assert code == cli.EXIT_DATA
    assert f"{work / 'noint.conllu'}: line {line}" in capsys.readouterr().err
    assert not (work / "noint.inst").exists()


@pytest.mark.parametrize("rows,message,line", [
    ("a\t2\tARG1\n", "expected at least 4 tab-separated columns", 1),
    ("a\t2\tARG1\tone\n", "non-integer head index", 1),
    ("a\t2\tARG1\t1\na\t2\tARG1\t3\n", "duplicate role 'ARG1'", 2),
    ("a\t2\tARG2\t3\na\t2\targ1\t1\n", "unknown role 'arg1'", 2),
    ("a\t2\tP\t2\n", "unknown role 'P'", 1),
    ("a\t2\tARG1\t1\na\t2\tARG2\t3\tm\udcfcde\n", "not UTF-8 text: byte 0xfc at column 13", 2),
], ids=["short-row", "head", "repeated-role", "lower-case-role", "predicate-role", "not-utf8"])
def test_malformed_gold_is_a_data_error(pipeline, capsys, rows, message, line):
    work, _ = pipeline
    # surrogateescape writes a lone \udcXX as the raw byte 0xXX.
    (work / "bad.gold").write_text(rows, encoding="utf-8", errors="surrogateescape")
    outputs = {"--report": work / "bad-report.json", "--pr-out": work / "bad-pr.tsv"}
    code = cli.main(["eval", "--extractions", str(work / "out.jsonl"),
                     "--gold", str(work / "bad.gold"),
                     *(arg for flag, path in outputs.items() for arg in (flag, str(path)))])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"{work / 'bad.gold'}: line {line}: {message}" in err
    assert not any(path.exists() for path in outputs.values())


_EXTRACTION = {"sentence_id": "s1", "predicate_span": [2, 2], "role_spans": {"ARG1": [1, 1]},
               "confidence": -0.5}


@pytest.mark.parametrize("field,value", [
    ("confidence", "high"), ("confidence", float("nan")), ("confidence", float("inf")),
    ("confidence", None), ("predicate_span", "12"), ("predicate_span", [3, 3, 4]),
    ("predicate_span", [2.0, 2]), ("role_spans", {"ARG1": [1.5, 2]}), ("role_spans", [[1, 1]]),
    ("sentence_id", 7),
], ids=["string-confidence", "nan-confidence", "infinite-confidence", "null-confidence",
        "string-span", "three-ends", "float-end", "float-role-end", "role-span-list",
        "integer-id"])
def test_extraction_record_of_the_wrong_type_names_its_field(pipeline, capsys, field, value):
    work, _ = pipeline
    lines = [json.dumps(_EXTRACTION), json.dumps({**_EXTRACTION, field: value})]
    (work / "typed.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = cli.main(["eval", "--extractions", str(work / "typed.jsonl"),
                     "--gold", str(work / "dev.gold"), "--report", str(work / "typed.json"),
                     "--pr-out", str(work / "typed.tsv")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"{work / 'typed.jsonl'}: line 2: bad record: {field}" in err
    assert not (work / "typed.json").exists()


def test_checkpoint_of_another_format_is_a_data_error(pipeline, capsys):
    work, _ = pipeline
    header, arrays = (work / "rl.ckpt").read_bytes().split(b"\n", 1)
    header = json.loads(header)
    header["format"] = "oiekit-checkpoint-2"
    (work / "format.ckpt").write_bytes(json.dumps(header).encode("utf-8") + b"\n" + arrays)
    out = work / "format.jsonl"
    code = cli.main(["extract", "--model", str(work / "format.ckpt"),
                     "--conllu", str(work / "dev.conllu"), "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert "format is not 'oiekit-checkpoint-1'" in capsys.readouterr().err
    assert not out.exists()


def test_truncated_checkpoint_is_a_data_error(pipeline, capsys):
    work, _ = pipeline
    data = (work / "rl.ckpt").read_bytes()
    (work / "cut.ckpt").write_bytes(data[: len(data) - 5])
    code = cli.main(["extract", "--model", str(work / "cut.ckpt"),
                     "--conllu", str(work / "dev.conllu"), "--out", str(work / "cut.jsonl")])
    assert code == cli.EXIT_DATA
    assert "checkpoint" in capsys.readouterr().err


def test_checkpoint_cut_inside_its_header_is_reported_in_plain_words(pipeline, capsys):
    work, _ = pipeline
    data = (work / "rl.ckpt").read_bytes()
    (work / "header.ckpt").write_bytes(data[: data.index(b"oiekit-checkpoint") + 3])
    code = cli.main(["extract", "--model", str(work / "header.ckpt"),
                     "--conllu", str(work / "dev.conllu"), "--out", str(work / "header.jsonl")])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "bad header: Unterminated string" in err
    assert "Error(" not in err
    assert not (work / "header.jsonl").exists()


@pytest.mark.parametrize("command", ["extract", "rl-train"])
@pytest.mark.parametrize("dtype", ["<U2", "object", "int64"])
def test_checkpoint_dtype_other_than_float64_is_a_data_error(pipeline, capsys, command, dtype):
    work, _ = pipeline
    header, arrays = (work / "rl.ckpt").read_bytes().split(b"\n", 1)
    header = json.loads(header)
    for entry in header["arrays"]:
        entry["dtype"] = dtype
    (work / "dtype.ckpt").write_bytes(json.dumps(header).encode("utf-8") + b"\n" + arrays)
    out = work / f"dtype-{command}.out"
    code = cli.main([command, "--model", str(work / "dtype.ckpt"),
                     "--conllu", str(work / "dev.conllu"), "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert "not float64" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["extract", "rl-train"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_checkpoint_with_a_non_finite_parameter_is_a_data_error(pipeline, capsys, command,
                                                               value):
    work, _ = pipeline
    model = tagger.load_model(str(work / "mle.ckpt"))
    model.params["enc.0.fw.wh"][1, 2] = value
    tagger.save_model(model, str(work / "nonfinite.ckpt"))
    out = work / f"nonfinite-{command}.out"
    code = cli.main([command, "--model", str(work / "nonfinite.ckpt"),
                     "--conllu", str(work / "dev.conllu"), "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert "'enc.0.fw.wh' holds a non-finite value" in capsys.readouterr().err
    assert not out.exists()


def _word_shape(shape):
    def edit(header):
        entry = next(e for e in header["arrays"] if e["name"] == "embed.word")
        entry["shape"] = shape(entry["shape"])
    return edit


def _hidden_dim(header):
    header["config"]["hidden_dim"] *= 2


def _short_vocab(header):
    header["vocab"] = header["vocab"][:5]


def _renamed_array(header):
    header["arrays"][0]["name"] += "s"


@pytest.mark.parametrize("command", ["extract", "rl-train"])
@pytest.mark.parametrize("edit", [_word_shape(lambda shape: shape[::-1]),
                                  _word_shape(lambda shape: ["a", 2]), _hidden_dim, _short_vocab,
                                  _renamed_array],
                         ids=["swapped-word-shape", "non-integer-shape", "hidden-dim",
                              "short-vocab", "renamed-array"])
def test_checkpoint_shape_disagreeing_with_its_config_is_a_data_error(pipeline, capsys,
                                                                      command, edit):
    work, _ = pipeline
    header, arrays = (work / "rl.ckpt").read_bytes().split(b"\n", 1)
    header = json.loads(header)
    edit(header)
    (work / "shape.ckpt").write_bytes(json.dumps(header).encode("utf-8") + b"\n" + arrays)
    out = work / f"shape-{command}.out"
    code = cli.main([command, "--model", str(work / "shape.ckpt"),
                     "--conllu", str(work / "dev.conllu"), "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert "expected" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("use_indicator", False),
                                       ("embedder_kind", "external-contextual"),
                                       pytest.param("roles", ["P"], id="roles-P")])
def test_checkpoint_naming_another_input_layer_is_a_data_error(pipeline, capsys, key, value):
    work, _ = pipeline
    header, arrays = (work / "rl.ckpt").read_bytes().split(b"\n", 1)
    header = json.loads(header)
    header["config"][key] = value
    (work / "layer.ckpt").write_bytes(json.dumps(header).encode("utf-8") + b"\n" + arrays)
    out = work / "layer.jsonl"
    code = cli.main(["extract", "--model", str(work / "layer.ckpt"),
                     "--conllu", str(work / "dev.conllu"), "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value,shown", [(64.0, "64.0"), (True, "True"), (0, "0")],
                         ids=["float", "bool", "zero"])
def test_checkpoint_dimension_its_config_refuses_names_the_file(pipeline, capsys, value, shown):
    work, _ = pipeline
    header, arrays = (work / "rl.ckpt").read_bytes().split(b"\n", 1)
    header = json.loads(header)
    header["config"]["hidden_dim"] = value
    (work / "dim.ckpt").write_bytes(json.dumps(header).encode("utf-8") + b"\n" + arrays)
    out = work / "dim.jsonl"
    code = cli.main(["extract", "--model", str(work / "dim.ckpt"),
                     "--conllu", str(work / "dev.conllu"), "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert (f"{work / 'dim.ckpt'}: checkpoint bad header: hidden_dim must be an integer >= 1, "
            f"got {shown}") in capsys.readouterr().err
    assert not out.exists()


def test_checkpoint_with_a_float_dimension_exits_2_without_a_traceback(pipeline, tmp_path):
    work, _ = pipeline
    header, arrays = (work / "rl.ckpt").read_bytes().split(b"\n", 1)
    header = json.loads(header)
    header["config"]["hidden_dim"] = 64.0
    (tmp_path / "float.ckpt").write_bytes(json.dumps(header).encode("utf-8") + b"\n" + arrays)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-m", "oiekit.cli", "extract", "--model", "float.ckpt",
                             "--conllu", str(work / "dev.conllu"), "--out", "o.jsonl"],
                            cwd=tmp_path, env=env, capture_output=True, text=True)
    assert result.returncode == cli.EXIT_DATA, result.stderr
    assert "float.ckpt: checkpoint bad header: hidden_dim" in result.stderr
    assert "Traceback" not in result.stderr


def test_checkpoint_header_holding_beam_size_is_a_bad_header(pipeline, capsys):
    # Headers written before the decoder width left TaggerConfig held it.
    work, _ = pipeline
    header, arrays = (work / "rl.ckpt").read_bytes().split(b"\n", 1)
    header = json.loads(header)
    header["config"]["beam_size"] = 3
    (work / "beam.ckpt").write_bytes(json.dumps(header).encode("utf-8") + b"\n" + arrays)
    out = work / "beam.jsonl"
    code = cli.main(["extract", "--model", str(work / "beam.ckpt"),
                     "--conllu", str(work / "dev.conllu"), "--out", str(out)])
    assert code == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert f"{work / 'beam.ckpt'}: checkpoint bad header: " in err
    assert "'beam_size'" in err
    assert not out.exists()


def test_repeated_sentence_id_is_a_data_error(pipeline, capsys):
    work, _ = pipeline
    first = (work / "dev.conllu").read_text(encoding="utf-8").split("\n\n")[0]
    (work / "twice.conllu").write_text(f"{first}\n\n{first}\n", encoding="utf-8")
    code = cli.main(["extract", "--model", str(work / "rl.ckpt"),
                     "--conllu", str(work / "twice.conllu"), "--out", str(work / "twice.jsonl")])
    assert code == cli.EXIT_DATA
    assert "repeats" in capsys.readouterr().err
    assert not (work / "twice.jsonl").exists()


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


# A bad command line is a usage error whether or not its input file exists.
def test_overlap_threshold_evaluates_against_token_surfaces(pipeline, tmp_path, capsys):
    work, _ = pipeline
    for extractions in ("missing.jsonl", "out.jsonl"):
        argv = ["eval", "--extractions", str(work / extractions), "--gold", str(work / "dev.gold"),
                "--report", str(tmp_path / "overlap.json"),
                "--pr-out", str(tmp_path / "overlap.tsv"), "--overlap-threshold", "0.5"]
        assert cli.main(argv) == cli.EXIT_USAGE, extractions
        assert "--overlap-threshold requires --conllu" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
    assert cli.main([*argv, "--conllu", str(work / "dev.conllu")]) == cli.EXIT_OK
    assert json.loads((tmp_path / "overlap.json").read_text(encoding="utf-8"))["num_gold"] > 0


def test_rl_dev_gold_without_dev_conllu_is_a_usage_error(pipeline, tmp_path, capsys):
    work, _ = pipeline
    for model in ("missing.ckpt", "mle.ckpt"):
        code = cli.main(["rl-train", "--model", str(work / model),
                         "--conllu", str(work / "train.conllu"),
                         "--dev-gold", str(work / "dev.gold"), "--out", str(tmp_path / "x.ckpt")])
        assert code == cli.EXIT_USAGE, model
        assert "--dev-gold requires --dev-conllu" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("line", ["epochs = -2", "epochs = 0", "step_size = -0.1",
                                  "step_size = 0", "step_size = nan", "step_size = inf",
                                  "dev_fraction = 1.0", "dev_fraction = -0.5",
                                  "hidden_dim = 0", "num_encoder_layers = 0",
                                  "patience = 0", "patience = -3"])
def test_out_of_range_pretrain_setting_is_a_data_error(pipeline, capsys, line):
    work, _ = pipeline
    (work / "range.cfg").write_text(f"{line}\n", encoding="utf-8")
    code = cli.main(["pretrain", "--instances", str(work / "train.inst"),
                     "--config", str(work / "range.cfg"), "--out", str(work / "range.ckpt")])
    assert code == cli.EXIT_DATA
    assert line.split(" = ")[0] in capsys.readouterr().err
    assert not (work / "range.ckpt").exists()


@pytest.mark.parametrize("flag,value", [("--epochs", "-2"), ("--epochs", "0"),
                                        ("--step-size", "-0.1"), ("--step-size", "nan"),
                                        ("--beam", "0")])
def test_out_of_range_rl_setting_is_a_data_error(pipeline, capsys, flag, value):
    work, _ = pipeline
    code = cli.main(["rl-train", "--model", str(work / "mle.ckpt"),
                     "--conllu", str(work / "train.conllu"), flag, value,
                     "--out", str(work / "range-rl.ckpt")])
    assert code == cli.EXIT_DATA
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not (work / "range-rl.ckpt").exists()


# A negative seed is refused by its field's name before any input is read.
@pytest.mark.parametrize("argv,config,code,message", [
    (["synth", "--n", "5", "--seed", "-1", "--out-conllu", "t.conllu", "--out-gold", "t.gold"],
     None, cli.EXIT_USAGE, "seed = -1: the seed must be >= 0"),
    (["rl-train", "--model", "missing.ckpt", "--conllu", "missing.conllu", "--out", "r.ckpt",
      "--seed", "-1"], None, cli.EXIT_DATA, "rng_seed must be >= 0, got -1"),
    (["pretrain", "--instances", "missing.inst", "--out", "m.ckpt", "--config", "seed.cfg"],
     "seed = -1\n", cli.EXIT_DATA, "seed.cfg: rng_seed must be an integer >= 0, got -1"),
], ids=["synth", "rl-train", "pretrain-config"])
def test_negative_seed_is_refused_by_name_before_any_file_is_read(tmp_path, capsys, monkeypatch,
                                                                  argv, config, code, message):
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "seed.cfg").write_text(config, encoding="utf-8")
    assert cli.main(argv) == code
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == (["seed.cfg"] if config else [])


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


# pretrain reads its settings only from its config file, rl-train only from
# its flags; the other way in is refused before any file is read.
@pytest.mark.parametrize("argv", [
    ["pretrain", "--instances", "missing.inst", "--out", "m.ckpt", "--epochs", "1"],
    ["pretrain", "--instances", "missing.inst", "--out", "m.ckpt", "--seed", "3"],
    ["rl-train", "--model", "missing.ckpt", "--conllu", "missing.conllu", "--out", "r.ckpt",
     "--config", "f.cfg"],
], ids=["pretrain-epochs", "pretrain-seed", "rl-train-config"])
def test_training_setting_outside_its_one_way_in_is_a_usage_error(tmp_path, capsys,
                                                                   monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.EXIT_USAGE
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# A cache only an adapter fills, and only where something is scored.
@pytest.mark.parametrize("argv,message", [
    (["extract", "--model", "missing.ckpt", "--conllu", "missing.conllu", "--out", "o.jsonl",
      "--rerank", "sem"], "--scorer-cache needs --rerank sem/combined and an adapter:URI --scorer"),
    (["extract", "--model", "missing.ckpt", "--conllu", "missing.conllu", "--out", "o.jsonl",
      "--scorer", "adapter:http://127.0.0.1:9"],
     "--scorer-cache needs --rerank sem/combined and an adapter:URI --scorer"),
    (["rl-train", "--model", "missing.ckpt", "--conllu", "missing.conllu", "--out", "r.ckpt"],
     "--scorer-cache needs an adapter:URI --scorer"),
], ids=["extract-surrogate", "extract-rerank-none", "rl-train-surrogate"])
def test_scorer_cache_nothing_would_fill_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                          argv, message):
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--scorer-cache", "c.jsonl"]) == cli.EXIT_USAGE
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# extract builds a scorer only to rerank; a --scorer nothing would use is refused.
@pytest.mark.parametrize("flags", [["--scorer", "adapter:http://127.0.0.1:9"],
                                   ["--rerank", "none", "--scorer", "surrogate"]],
                         ids=["adapter", "surrogate-rerank-none"])
def test_extract_scorer_without_rerank_is_a_usage_error(tmp_path, capsys, monkeypatch, flags):
    monkeypatch.chdir(tmp_path)
    argv = ["extract", "--model", "missing.ckpt", "--conllu", "missing.conllu",
            "--out", "o.jsonl", *flags]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "--scorer needs --rerank sem or combined" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# make_sem_scorer reads the spec; one it refuses is a usage error, raised
# before the (missing) model is read.
@pytest.mark.parametrize("argv,message", [
    (["rl-train", "--conllu", "missing.conllu", "--out", "r.ckpt", "--scorer", "bogus"],
     "unknown scorer spec 'bogus'"),
    (["rl-train", "--conllu", "missing.conllu", "--out", "r.ckpt", "--scorer", "adapter:"],
     "adapter endpoint must be an http(s) URL, got ''"),
    (["extract", "--conllu", "missing.conllu", "--out", "o.jsonl", "--rerank", "sem",
      "--scorer", "adapter:"], "adapter endpoint must be an http(s) URL, got ''"),
    (["extract", "--conllu", "missing.conllu", "--out", "o.jsonl", "--rerank", "combined",
      "--scorer", "adapter:file:///dev/null"], "adapter endpoint must be an http(s) URL"),
], ids=["rl-train-unknown", "rl-train-no-endpoint", "extract-no-endpoint", "extract-file-url"])
def test_bad_scorer_spec_is_a_usage_error_before_the_model_is_read(tmp_path, capsys, monkeypatch,
                                                                   argv, message):
    monkeypatch.chdir(tmp_path)
    assert cli.main([*argv, "--model", "missing.ckpt"]) == cli.EXIT_USAGE
    assert f"usage error: --scorer: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_extract_rerank_without_scorer_uses_the_surrogate(pipeline):
    work, _ = pipeline
    code = cli.main(["extract", "--model", str(work / "rl.ckpt"),
                     "--conllu", str(work / "dev.conllu"), "--patterns", str(work / "patterns.txt"),
                     "--rerank", "combined", "--out", str(work / "default-scorer.jsonl")])
    assert code == cli.EXIT_OK
    assert (work / "default-scorer.jsonl").read_bytes() == (work / "out.jsonl").read_bytes()


@pytest.mark.parametrize("fraction", ["1.5", "1.0", "-0.5"])
def test_synth_dev_fraction_outside_unit_interval_is_a_usage_error(tmp_path, fraction):
    outputs = {"--out-conllu": "t.conllu", "--out-gold": "t.gold",
               "--dev-conllu": "d.conllu", "--dev-gold": "d.gold"}
    code = cli.main(["synth", "--n", "5", "--dev-fraction", fraction,
                     *(arg for flag, name in outputs.items() for arg in (flag, str(tmp_path / name)))])
    assert code == cli.EXIT_USAGE
    assert list(tmp_path.iterdir()) == []


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


def test_negative_synth_count_is_a_usage_error(tmp_path, capsys):
    code = cli.main(["synth", "--n", "-5", "--out-conllu", str(tmp_path / "t.conllu"),
                     "--out-gold", str(tmp_path / "t.gold")])
    assert code == cli.EXIT_USAGE
    assert "n = -5" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_synth_without_a_dev_split_writes_every_sentence(tmp_path, capsys):
    code = cli.main(["synth", "--n", "5", "--seed", "2", "--out-conllu", str(tmp_path / "t.conllu"),
                     "--out-gold", str(tmp_path / "t.gold")])
    assert code == cli.EXIT_OK
    sentences, gold = corpus_io.gen_synthetic(n=5, seed=2)
    assert corpus_io.read_conllu(tmp_path / "t.conllu") == sentences
    assert len(corpus_io.read_gold(tmp_path / "t.gold")) == len(gold)
    assert f"wrote 5 sentences, {len(gold)} gold tuples" in capsys.readouterr().out


@pytest.mark.parametrize("spec,entry", [("svo:abc", "svo:abc"), ("svo:-1,ditrans:2", "svo:-1"),
                                        ("svo_pp,svo:nan", "svo:nan"), ("svo,svx:2", "svx:2"),
                                        ("svo:0,ditrans:0", "svo:0,ditrans:0"),
                                        ("svo:1e308,ditrans:1e308", "svo:1e308,ditrans:1e308")])
def test_bad_synth_templates_spec_is_a_usage_error(tmp_path, capsys, spec, entry):
    # A weight that is not a finite, non-negative number, an unknown
    # template, or weights whose sum is zero or overflows.
    code = cli.main(["synth", "--n", "5", "--templates", spec,
                     "--out-conllu", str(tmp_path / "t.conllu"),
                     "--out-gold", str(tmp_path / "t.gold")])
    assert code == cli.EXIT_USAGE
    assert repr(entry) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("argv,code,written", [
    (["synth", "--n", "5", "--out-conllu", "t.conllu", "--out-gold", "t.gold"], 0,
     ["t.conllu", "t.gold"]),
    (["synth", "--n", "5", "--out-conllu", "t.conllu"], 1, []),
    (["eval", "--extractions", "missing.jsonl", "--gold", "t.gold", "--report", "r.json",
      "--pr-out", "p.tsv"], 2, []),
], ids=["ok", "usage", "data"])
def test_process_exit_status(tmp_path, argv, code, written):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-m", "oiekit.cli", *argv], cwd=tmp_path, env=env,
                            capture_output=True, text=True)
    assert result.returncode == code, result.stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == written
