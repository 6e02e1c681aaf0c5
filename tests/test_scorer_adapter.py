import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from oiekit import cli, corpus_io
from oiekit.core import LABELS, Extraction, ValidationError
from oiekit.corpus_io import ParseError
from oiekit.reward import HttpEntailmentAdapter, SemScorer, make_sem_scorer
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
    cache_path = tmp_path / "sem-cache.tsv"
    scorer = make_sem_scorer(f"adapter:{scorer_server}", cache_path=cache_path)
    extraction = Extraction("parragon", (8, 8), {"ARG2": (9, 10)})
    first = scorer.score(extraction, parragon)
    second = scorer.score(extraction, parragon)
    assert first == second == 0.75
    assert len(_ScorerHandler.calls) == 1

    scorer.save_cache()
    assert cache_path.read_text(encoding="utf-8") == "parragon\thas 10 offices\t0.75\n"

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


@pytest.mark.parametrize("status,reply", [(200, b"{}"), (500, None)])
def test_bad_adapter_reply_exits_with_data_error(scorer_server, parragon, tmp_path,
                                                  status, reply):
    _ScorerHandler.status = status
    _ScorerHandler.reply = reply
    config = TaggerConfig(embedding_dim=6, indicator_dim=3, hidden_dim=5,
                          num_encoder_layers=1, rng_seed=3)
    model = init_model(config, build_vocab([parragon]))
    # Favour B-P so that a predicate decodes to an extraction to score.
    model.params["cls.b"][LABELS.index("B-P")] += 5.0
    save_model(model, tmp_path / "model.ckpt")
    corpus_io.write_conllu([parragon], tmp_path / "in.conllu")
    code = cli.main(["extract", "--model", str(tmp_path / "model.ckpt"),
                     "--conllu", str(tmp_path / "in.conllu"), "--rerank", "sem",
                     "--scorer", f"adapter:{scorer_server}",
                     "--out", str(tmp_path / "out.jsonl")])
    assert code == cli.EXIT_DATA
    assert _ScorerHandler.calls


def test_torn_cache_line_names_the_line(tmp_path):
    cache_path = tmp_path / "sem-cache.tsv"
    cache_path.write_text("s1\ta b\t0.5\ns2\tc d\n", encoding="utf-8")
    with pytest.raises(ParseError, match="line 2"):
        SemScorer(HttpEntailmentAdapter("http://127.0.0.1:9"), cache_path=cache_path)
