"""End-to-end runs of the command-line surface and its exit codes."""

import json
import os
import subprocess
import sys

import pytest

from oiekit import cli


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
    assert "line 2" in capsys.readouterr().err


def test_pattern_line_without_equals_is_a_data_error(pipeline, capsys):
    work, _ = pipeline
    (work / "bad.patterns").write_text("ARG1 nsubj\n", encoding="utf-8")
    code = cli.main(["label", "--conllu", str(work / "train.conllu"),
                     "--patterns", str(work / "bad.patterns"), "--out", str(work / "bad.inst")])
    assert code == cli.EXIT_DATA
    assert "line 1" in capsys.readouterr().err


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
                                         ("pretrain", "use_indicator"),
                                         ("rl-train", "hidden_dim")])
def test_unknown_config_key_is_a_data_error(pipeline, capsys, command, key):
    work, _ = pipeline
    value = "false" if key == "use_indicator" else "4"
    (work / "typo.cfg").write_text(f"epochs = 1\n{key} = {value}\n", encoding="utf-8")
    inputs = {"pretrain": ["--instances", str(work / "train.inst")],
              "rl-train": ["--model", str(work / "mle.ckpt"),
                           "--conllu", str(work / "train.conllu")]}
    code = cli.main([command, *inputs[command], "--config", str(work / "typo.cfg"),
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
                                          ("pretrain", "step_size = fast"),
                                          ("rl-train", "beam_size = 2.5")])
def test_config_value_that_does_not_cast_names_its_key(pipeline, capsys, command, line):
    work, _ = pipeline
    (work / "cast.cfg").write_text(f"epochs = 1\n{line}\n", encoding="utf-8")
    inputs = {"pretrain": ["--instances", str(work / "train.inst")],
              "rl-train": ["--model", str(work / "mle.ckpt"),
                           "--conllu", str(work / "train.conllu")]}
    code = cli.main([command, *inputs[command], "--config", str(work / "cast.cfg"),
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


def test_truncated_checkpoint_is_a_data_error(pipeline, capsys):
    work, _ = pipeline
    data = (work / "rl.ckpt").read_bytes()
    (work / "cut.ckpt").write_bytes(data[: len(data) - 5])
    code = cli.main(["extract", "--model", str(work / "cut.ckpt"),
                     "--conllu", str(work / "dev.conllu"), "--out", str(work / "cut.jsonl")])
    assert code == cli.EXIT_DATA
    assert "checkpoint" in capsys.readouterr().err


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
                                       ("embedder_kind", "external-contextual")])
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


def test_checkpoint_with_the_legacy_input_layer_keys_extracts_the_same(pipeline):
    work, _ = pipeline
    header, arrays = (work / "rl.ckpt").read_bytes().split(b"\n", 1)
    header = json.loads(header)
    header["config"].update(embedder_kind="static-lookup", use_indicator=True)
    (work / "legacy.ckpt").write_bytes(
        json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + arrays)
    code = cli.main(["extract", "--model", str(work / "legacy.ckpt"),
                     "--conllu", str(work / "dev.conllu"), "--patterns", str(work / "patterns.txt"),
                     "--rerank", "combined", "--scorer", "surrogate",
                     "--out", str(work / "legacy.jsonl")])
    assert code == cli.EXIT_OK
    assert (work / "legacy.jsonl").read_bytes() == (work / "out.jsonl").read_bytes()


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


def test_rl_dev_gold_without_dev_conllu_is_a_usage_error(pipeline, capsys):
    work, _ = pipeline
    code = cli.main(["rl-train", "--model", str(work / "mle.ckpt"),
                     "--conllu", str(work / "train.conllu"), "--dev-gold", str(work / "dev.gold"),
                     "--out", str(work / "gold-only.ckpt")])
    assert code == cli.EXIT_USAGE
    assert "--dev-gold requires --dev-conllu" in capsys.readouterr().err
    assert not (work / "gold-only.ckpt").exists()


@pytest.mark.parametrize("line", ["epochs = -2", "epochs = 0", "step_size = -0.1",
                                  "step_size = 0", "step_size = nan", "step_size = inf",
                                  "dev_fraction = 1.0", "dev_fraction = -0.5"])
def test_out_of_range_pretrain_setting_is_a_data_error(pipeline, capsys, line):
    work, _ = pipeline
    (work / "range.cfg").write_text(f"{line}\n", encoding="utf-8")
    code = cli.main(["pretrain", "--instances", str(work / "train.inst"),
                     "--config", str(work / "range.cfg"), "--out", str(work / "range.ckpt")])
    assert code == cli.EXIT_DATA
    assert line.split(" = ")[0] in capsys.readouterr().err
    assert not (work / "range.ckpt").exists()


@pytest.mark.parametrize("flag,value", [("--epochs", "-2"), ("--epochs", "0"),
                                        ("--step-size", "-0.1"), ("--step-size", "nan")])
def test_out_of_range_rl_setting_is_a_data_error(pipeline, capsys, flag, value):
    work, _ = pipeline
    code = cli.main(["rl-train", "--model", str(work / "mle.ckpt"),
                     "--conllu", str(work / "train.conllu"), flag, value,
                     "--out", str(work / "range-rl.ckpt")])
    assert code == cli.EXIT_DATA
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not (work / "range-rl.ckpt").exists()


@pytest.mark.parametrize("fraction", ["1.5", "1.0", "-0.5"])
def test_synth_dev_fraction_outside_unit_interval_is_a_usage_error(tmp_path, fraction):
    outputs = {"--out-conllu": "t.conllu", "--out-gold": "t.gold",
               "--dev-conllu": "d.conllu", "--dev-gold": "d.gold"}
    code = cli.main(["synth", "--n", "5", "--dev-fraction", fraction,
                     *(arg for flag, name in outputs.items() for arg in (flag, str(tmp_path / name)))])
    assert code == cli.EXIT_USAGE
    assert list(tmp_path.iterdir()) == []


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
