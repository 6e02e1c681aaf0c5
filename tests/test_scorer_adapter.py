import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from oiekit import cli, corpus_io
from oiekit.core import LABELS, Extraction, ValidationError
from oiekit.corpus_io import ParseError
from oiekit.reward import (HttpEntailmentAdapter, SemScorer, make_sem_scorer,
                           sem_score_surrogate, semantic_confidence)
from oiekit.tagger import TaggerConfig, build_vocab, init_model, save_model


class _ScorerHandler(BaseHTTPRequestHandler):
    calls = []
    fixed_score = 0.75
    status = 200
    reply = None  # raw body sent instead of {"score": fixed_score}

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        type(self).calls.append(payload)
        body = type(self).reply
        if body is None:
            body = json.dumps({"score": type(self).fixed_score}).encode("utf-8")
        self.send_response(type(self).status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def scorer_server():
    _ScorerHandler.calls = []
    _ScorerHandler.fixed_score = 0.75
    _ScorerHandler.status = 200
    _ScorerHandler.reply = None
    server = HTTPServer(("127.0.0.1", 0), _ScorerHandler)
    # A short poll interval keeps shutdown() from waiting 0.5 s per test.
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.02},
                              daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


def test_adapter_round_trip(scorer_server):
    adapter = HttpEntailmentAdapter(scorer_server)
    score = adapter.score("Parragon operates markets .", "Parragon operates markets")
    assert score == 0.75
    assert _ScorerHandler.calls == [{
        "premise": "Parragon operates markets .",
        "hypothesis": "Parragon operates markets",
    }]


def test_adapter_rejects_out_of_range(scorer_server):
    _ScorerHandler.fixed_score = 1.5
    adapter = HttpEntailmentAdapter(scorer_server)
    with pytest.raises(ValidationError):
        adapter.score("a", "b")


def test_adapter_scores_are_cached(scorer_server, parragon, tmp_path):
    cache_path = tmp_path / "sem-cache.jsonl"
    scorer = make_sem_scorer(f"adapter:{scorer_server}", cache_path=cache_path)
    extraction = Extraction("parragon", (8, 8), {"ARG2": (9, 10)})
    first = scorer.score(extraction, parragon)
    second = scorer.score(extraction, parragon)
    assert first == second == 0.75
    assert len(_ScorerHandler.calls) == 1

    scorer.save_cache()
    assert cache_path.read_text(encoding="utf-8") == (
        '{"hypothesis": "has 10 offices", "score": 0.75, "sentence_id": "parragon"}\n')

    # A fresh scorer warm-starts from the persisted cache: no new calls.
    reloaded = SemScorer(HttpEntailmentAdapter(scorer_server), cache_path=cache_path)
    assert reloaded.score(extraction, parragon) == 0.75
    assert len(_ScorerHandler.calls) == 1


@pytest.mark.parametrize("reply", [b"{}", b'{"score": "high"}', b'{"score": null}',
                                   b"[0.5]", b"not json"])
def test_adapter_rejects_malformed_reply(scorer_server, reply):
    _ScorerHandler.reply = reply
    adapter = HttpEntailmentAdapter(scorer_server)
    with pytest.raises(ValidationError):
        adapter.score("a", "b")


def test_adapter_needs_http_endpoint():
    with pytest.raises(ValidationError):
        make_sem_scorer("adapter:file:///dev/null")


def test_http_error_is_an_os_error(scorer_server):
    _ScorerHandler.status = 500
    with pytest.raises(OSError):
        HttpEntailmentAdapter(scorer_server).score("a", "b")


def _extract_sem_argv(parragon, tmp_path):
    """``extract --rerank sem`` on the one parragon sentence, with a model
    that decodes at least one extraction to score."""
    config = TaggerConfig(embedding_dim=6, indicator_dim=3, hidden_dim=5,
                          num_encoder_layers=1, rng_seed=3)
    model = init_model(config, build_vocab([parragon]))
    # Favour B-P so that a predicate decodes to an extraction to score.
    model.params["cls.b"][LABELS.index("B-P")] += 5.0
    save_model(model, tmp_path / "model.ckpt")
    corpus_io.write_conllu([parragon], tmp_path / "in.conllu")
    return ["extract", "--model", str(tmp_path / "model.ckpt"),
            "--conllu", str(tmp_path / "in.conllu"), "--rerank", "sem",
            "--out", str(tmp_path / "out.jsonl")]


@pytest.mark.parametrize("status,reply", [(200, b"{}"), (500, None)])
def test_bad_adapter_reply_exits_with_data_error(scorer_server, parragon, tmp_path,
                                                  status, reply):
    _ScorerHandler.status = status
    _ScorerHandler.reply = reply
    code = cli.main(_extract_sem_argv(parragon, tmp_path) + ["--scorer", f"adapter:{scorer_server}"])
    assert code == cli.EXIT_DATA
    assert _ScorerHandler.calls


_CACHED = '{"hypothesis": "a b", "score": 0.5, "sentence_id": "s1"}\n'


def test_torn_cache_line_names_the_line(tmp_path):
    cache_path = tmp_path / "sem-cache.jsonl"
    cache_path.write_text(_CACHED + '{"hypothesis": "c d", "score": 0.', encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        SemScorer(HttpEntailmentAdapter("http://127.0.0.1:9"), cache_path=cache_path)


@pytest.mark.parametrize("score", ["1.5", "NaN", '"high"', "-0.25", "null"])
def test_cached_score_outside_the_reply_rule_names_the_line(tmp_path, score):
    cache_path = tmp_path / "sem-cache.jsonl"
    record = f'{{"hypothesis": "c d", "score": {score}, "sentence_id": "s2"}}\n'
    cache_path.write_text(_CACHED + record, encoding="utf-8")
    with pytest.raises(ParseError, match=r"line 2: bad record: score .* is not a number in \[0, 1\]"):
        SemScorer(HttpEntailmentAdapter("http://127.0.0.1:9"), cache_path=cache_path)


def test_extract_reuses_the_scorer_cache_it_wrote(scorer_server, parragon, tmp_path):
    argv = _extract_sem_argv(parragon, tmp_path) + [
        "--scorer", f"adapter:{scorer_server}", "--scorer-cache", str(tmp_path / "c.jsonl")]
    outputs = []
    for _ in range(2):
        assert cli.main(argv) == cli.EXIT_OK
        outputs.append((tmp_path / "out.jsonl").read_bytes())
    assert _ScorerHandler.calls
    assert len(_ScorerHandler.calls) == len(outputs[0].splitlines())
    assert outputs[0] == outputs[1]


def test_bad_cache_line_names_the_cache_before_any_request(scorer_server, parragon, tmp_path,
                                                           capsys):
    cache_path = tmp_path / "c.jsonl"
    cache_path.write_text(_CACHED + '{"hypothesis": "c d", "score": 1.5, "sentence_id": "s2"}\n',
                          encoding="utf-8")
    code = cli.main(_extract_sem_argv(parragon, tmp_path) + [
        "--scorer", f"adapter:{scorer_server}", "--scorer-cache", str(cache_path)])
    assert code == cli.EXIT_DATA
    assert f"{cache_path}: line 2: bad record: score 1.5" in capsys.readouterr().err
    assert _ScorerHandler.calls == []
    assert not (tmp_path / "out.jsonl").exists()


def test_tab_in_a_conllu_sentence_id_round_trips_through_the_cache(scorer_server, tmp_path):
    conllu = tmp_path / "tab.conllu"
    conllu.write_text("# sent_id = a\tb\n# text = cats sleep\n"
                      "1\tcats\t_\tNOUN\t_\t_\t2\tnsubj\t_\t_\n"
                      "2\tsleep\t_\tVERB\t_\t_\t0\troot\t_\t_\n", encoding="utf-8")
    (sentence,) = corpus_io.read_conllu(conllu)
    assert sentence.sentence_id == "a\tb"
    extraction = Extraction(sentence.sentence_id, (2, 2), {"ARG1": (1, 1)})
    cache_path = tmp_path / "sem-cache.jsonl"
    for _ in range(2):
        scorer = make_sem_scorer(f"adapter:{scorer_server}", cache_path=cache_path)
        assert scorer.score(extraction, sentence) == 0.75
        scorer.save_cache()
    assert len(_ScorerHandler.calls) == 1


def test_scorer_environment_variable_is_not_read(parragon, tmp_path, monkeypatch):
    # Port 9 on the loopback interface refuses connections: an adapter
    # there would make the command fail.
    monkeypatch.setenv("OIEKIT_SCORER", "adapter:http://127.0.0.1:9")
    assert cli.main(_extract_sem_argv(parragon, tmp_path)) == cli.EXIT_OK
    extractions = corpus_io.read_extractions(tmp_path / "out.jsonl")
    assert extractions
    assert [e.confidence for e in extractions] == [
        semantic_confidence(0.0, sem_score_surrogate(e, parragon)) for e in extractions]
