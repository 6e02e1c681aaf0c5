import hashlib
import os
import re
import stat
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oiekit.core import ARGUMENT_ROLES, Extraction, ParsedSentence, Token, ValidationError
from oiekit.corpus_io import (
    GoldTuple,
    ParseError,
    TEMPLATE_NAMES,
    gen_synthetic,
    read_conllu,
    read_extractions,
    read_gold,
    read_instances,
    read_key_values,
    write_conllu,
    write_jsonl,
    write_extractions,
    write_gold,
    write_instances,
)
from oiekit.patterns import generate_instances

PARRAGON_CONLLU = """\
# sent_id = parragon
# text = Parragon operates more than 35 markets and has 10 offices .
1\tParragon\t_\tPROPN\t_\t_\t2\tnsubj\t_\t_
2\toperates\t_\tVERB\t_\t_\t0\troot\t_\t_
3\tmore\t_\tADV\t_\t_\t5\tadvmod\t_\t_
4\tthan\t_\tADP\t_\t_\t3\tfixed\t_\t_
5\t35\t_\tNUM\t_\t_\t6\tnummod\t_\t_
6\tmarkets\t_\tNOUN\t_\t_\t2\tdobj\t_\t_
7\tand\t_\tCCONJ\t_\t_\t8\tcc\t_\t_
8\thas\t_\tVERB\t_\t_\t2\tconj\t_\t_
9\t10\t_\tNUM\t_\t_\t10\tnummod\t_\t_
10\toffices\t_\tNOUN\t_\t_\t8\tdobj\t_\t_
11\t.\t_\tPUNCT\t_\t_\t2\tpunct\t_\t_
"""


class TestReadConllu:
    def test_worked_example_arcs(self, tmp_path):
        path = tmp_path / "p.conllu"
        path.write_text(PARRAGON_CONLLU, encoding="utf-8")
        sentences = read_conllu(path)
        assert len(sentences) == 1
        sent = sentences[0]
        assert sent.sentence_id == "parragon"
        assert len(sent) == 11
        subj = sent.token(1)
        assert (subj.surface, subj.deprel, subj.head) == ("Parragon", "nsubj", 2)
        obj = sent.token(6)
        assert (obj.surface, obj.deprel, obj.head) == ("markets", "dobj", 2)

    def test_only_the_exact_comment_keys_are_read(self, tmp_path):
        # UD puts translations after the text, under keys that start alike.
        path = tmp_path / "fr.conllu"
        path.write_text("# sent_id = fr1\n# sent_id_orig = x\n# text = Le chat dort\n"
                        "# text_en = The cat sleeps\n"
                        "1\tLe\t_\tDET\t_\t_\t2\tdet\t_\t_\n"
                        "2\tchat\t_\tNOUN\t_\t_\t3\tnsubj\t_\t_\n"
                        "3\tdort\t_\tVERB\t_\t_\t0\troot\t_\t_\n", encoding="utf-8")
        (sent,) = read_conllu(path)
        assert (sent.sentence_id, sent.text) == ("fr1", "Le chat dort")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.conllu"
        path.write_text("", encoding="utf-8")
        assert read_conllu(path) == []

    def test_self_head_is_cycle(self, tmp_path):
        path = tmp_path / "bad.conllu"
        path.write_text("1\ta\t_\tX\t_\t_\t1\tdep\t_\t_\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 1: token 1 is its "
                           "own head$"):
            read_conllu(path)

    # A sentence ParsedSentence refuses is reported at the line that ends it:
    # its blank line, or its last token line at the end of the file.
    @pytest.mark.parametrize("rows,end", [
        ("1\ta\t_\tX\t_\t_\t2\tdep\t_\t_\n2\tb\t_\tX\t_\t_\t1\tdep\t_\t_\n"
         "3\tc\t_\tX\t_\t_\t0\troot\t_\t_\n\n", 4),
        ("1\ta\t_\tX\t_\t_\t2\tdep\t_\t_\n2\tb\t_\tX\t_\t_\t1\tdep\t_\t_\n"
         "3\tc\t_\tX\t_\t_\t0\troot\t_\t_\n", 3),
    ], ids=["blank-line", "end-of-file"])
    def test_two_cycle_names_the_file_and_the_line_ending_the_sentence(self, tmp_path, rows,
                                                                       end):
        path = tmp_path / "cycle.conllu"
        path.write_text("1\tz\t_\tX\t_\t_\t0\troot\t_\t_\n\n" + rows, encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line {end + 2}: "
                           "sentence 's2': cycle through token 1$") as err:
            read_conllu(path)
        assert err.value.line == end + 2

    def test_self_head_names_the_line_of_its_token(self, tmp_path):
        path = tmp_path / "self.conllu"
        path.write_text("1\ta\t_\tX\t_\t_\t0\troot\t_\t_\n2\tb\t_\tX\t_\t_\t2\tdep\t_\t_\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: token 2 is its "
                           "own head$"):
            read_conllu(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.conllu"
        path.write_text("1\ta\tX\n", encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_conllu(path)
        assert "line 1" in str(err.value)

    def test_multiword_ranges_skipped(self, tmp_path):
        path = tmp_path / "mwt.conllu"
        path.write_text(
            "1-2\tdel\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tde\t_\tADP\t_\t_\t2\tcase\t_\t_\n"
            "2\tel\t_\tNOUN\t_\t_\t0\troot\t_\t_\n",
            encoding="utf-8",
        )
        sentences = read_conllu(path)
        assert [t.surface for t in sentences[0].tokens] == ["de", "el"]

    def test_round_trip_through_writer(self, tmp_path, parragon):
        path = tmp_path / "out.conllu"
        write_conllu([parragon], path)
        back = read_conllu(path)
        assert back == [parragon]

    # The second sentence repeats the first one's id, given or generated
    # (the second sentence without a sent_id comment is named "s2"). The
    # first sentence ends at line 3, the second at the last line.
    @pytest.mark.parametrize("first,second,last", [("# sent_id = a\n", "# sent_id = a\n", 5),
                                                   ("# sent_id = s2\n", "", 4)],
                             ids=["given", "generated"])
    def test_repeated_sentence_id(self, tmp_path, first, second, last):
        path = tmp_path / "twice.conllu"
        token = "1\tx\t_\tNOUN\t_\t_\t0\troot\t_\t_\n"
        path.write_text(first + token + "\n" + second + token, encoding="utf-8")
        with pytest.raises(ParseError) as err:
            read_conllu(path)
        assert err.value.line == last
        assert "ending at line 3" in str(err.value)


class TestGold:
    def test_round_trip_and_grouping(self, tmp_path):
        golds = [
            GoldTuple("s1", 2, {"ARG1": 1, "ARG2": 6}, {"ARG1": "Parragon", "ARG2": "markets"}),
            GoldTuple("s1", 8, {"ARG2": 10}),
        ]
        path = tmp_path / "gold.tsv"
        write_gold(golds, path)
        assert read_gold(path) == golds

    def test_unknown_sentence_skipped(self, tmp_path, parragon):
        path = tmp_path / "gold.tsv"
        path.write_text("parragon\t2\tARG1\t1\t\nnope\t1\tARG1\t2\t\n", encoding="utf-8")
        golds = read_gold(path, {"parragon": parragon})
        assert [g.sentence_id for g in golds] == ["parragon"]

    def test_out_of_bounds_head(self, tmp_path, parragon):
        path = tmp_path / "gold.tsv"
        path.write_text("parragon\t2\tARG1\t99\t\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_gold(path, {"parragon": parragon})


class TestExtractionFiles:
    def test_read_write_identity(self, tmp_path):
        extractions = [
            Extraction("s1", (2, 2), {"ARG1": (1, 1), "ARG2": (3, 6)}, -0.123456789),
            Extraction("s2", (8, 9), {}, -2.5e-7),
        ]
        path = tmp_path / "ex.jsonl"
        write_extractions(extractions, path)
        assert read_extractions(path) == extractions

    def test_bad_record(self, tmp_path):
        path = tmp_path / "ex.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ParseError):
            read_extractions(path)


@pytest.mark.parametrize("read", [read_conllu, read_gold, read_extractions, read_key_values],
                         ids=["conllu", "gold", "jsonl", "key-values"])
def test_line_that_is_not_utf8_names_the_file_and_the_line(tmp_path, read):
    # Line 1 is blank, which every reader skips; line 2 is Latin-1.
    path = tmp_path / "latin1.txt"
    path.write_bytes("\ncaf\u00e9 = 1\n".encode("latin-1"))
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: line 2: not UTF-8 text: "
                       "byte 0xe9 at column 4$"):
        read(path)


class TestAtomicWrite:
    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl([{"a": 1}], path)

        def interrupted():
            yield {"a": 2}
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError):
            write_jsonl(interrupted(), path)
        assert path.read_text(encoding="utf-8") == '{"a": 1}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    def test_symbolic_link_is_followed(self, tmp_path):
        (tmp_path / "real.jsonl").write_text("old\n", encoding="utf-8")
        (tmp_path / "link.jsonl").symlink_to("real.jsonl")
        write_jsonl([{"a": 1}], tmp_path / "link.jsonl")
        assert (tmp_path / "link.jsonl").is_symlink()
        assert (tmp_path / "real.jsonl").read_text(encoding="utf-8") == '{"a": 1}\n'

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        write_jsonl([{"a": 1}], fifo)
        reader.join(timeout=5)
        assert received == ['{"a": 1}\n']
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    def test_anonymous_pipe_is_written_in_place(self):
        # The real path of /dev/fd/<n> on a pipe is "pipe:[N]", which names no file.
        read_end, write_end = os.pipe()
        try:
            write_jsonl([{"a": 1}], f"/dev/fd/{write_end}")
            assert os.read(read_end, 100) == b'{"a": 1}\n'
        finally:
            os.close(read_end)
            os.close(write_end)


class TestInstanceFiles:
    def test_round_trip(self, tmp_path, parragon):
        instances = generate_instances(parragon)
        path = tmp_path / "inst.jsonl"
        write_instances(instances, path)
        assert read_instances(path) == instances


class TestGenSynthetic:
    def test_empty_corpus(self):
        sentences, gold = gen_synthetic(("svo",), 0, seed=7)
        assert sentences == [] and gold == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError, match="n = -5"):
            gen_synthetic(("svo",), -5, seed=7)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="^seed = -1: the seed must be >= 0$"):
            gen_synthetic(("svo",), 5, seed=-1)

    def test_deterministic(self):
        a = gen_synthetic(("svo", "coord_vp"), 100, seed=7)
        b = gen_synthetic(("svo", "coord_vp"), 100, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = gen_synthetic(("svo",), 50, seed=7)
        b = gen_synthetic(("svo",), 50, seed=8)
        assert a != b

    def test_svo_gold_matches_construction(self):
        sentences, gold = gen_synthetic(("svo",), 1, seed=7)
        sent = sentences[0]
        tup = gold[0]
        assert sent.token(tup.predicate_head).upos == "VERB"
        assert sent.token(tup.role_heads["ARG1"]).deprel == "nsubj"
        assert sent.token(tup.role_heads["ARG2"]).deprel == "obj"

    def test_ditrans_gold_matches_construction(self):
        sentences, gold = gen_synthetic(("ditrans",), 5, seed=7)
        for sent, tup in zip(sentences, gold, strict=True):
            assert sent.token(tup.predicate_head).deprel == "root"
            assert sent.token(tup.role_heads["ARG1"]).deprel == "nsubj"
            assert sent.token(tup.role_heads["ARG2"]).deprel == "obj"
            assert sent.token(tup.role_heads["ARG3"]).deprel == "iobj"
            for role in ("ARG1", "ARG2", "ARG3"):
                assert sent.token(tup.role_heads[role]).head == tup.predicate_head

    def test_svo_pp_place_modifies_the_object(self):
        sentences, gold = gen_synthetic(("svo_pp",), 5, seed=7)
        for sent, tup in zip(sentences, gold, strict=True):
            obj = sent.token(tup.role_heads["ARG2"])
            assert obj.deprel == "obj" and obj.head == tup.predicate_head
            assert sent.token(tup.role_heads["ARG1"]).deprel == "nsubj"
            (place,) = [tok for tok in sent.tokens if tok.deprel == "nmod"]
            assert place.upos == "NOUN" and place.head == obj.index
            children = {tok.deprel: tok.upos for tok in sent.tokens if tok.head == place.index}
            assert children == {"case": "ADP", "det": "DET"}

    def test_gold_references_and_bounds(self):
        sentences, gold = gen_synthetic(None or ("svo", "svo_pp", "ditrans", "coord_vp"),
                                        200, seed=3)
        by_id = {s.sentence_id: s for s in sentences}
        for tup in gold:
            sent = by_id[tup.sentence_id]
            assert 1 <= tup.predicate_head <= len(sent)
            for head in tup.role_heads.values():
                assert 1 <= head <= len(sent)

    def test_weighted_mix(self):
        sentences, _ = gen_synthetic(("svo:0.5", "coord_vp:0.5"), 400, seed=1)
        coord = sum(1 for s in sentences if s.sentence_id.endswith("-coord_vp"))
        assert 120 < coord < 280

    @pytest.mark.parametrize("weight", [-1.0, float("inf"), float("nan")],
                             ids=["negative", "inf", "nan"])
    def test_weight_not_finite_and_non_negative_is_refused_by_name(self, weight):
        with pytest.raises(ValidationError, match=f"template entry 'svo:{weight}': weight"):
            gen_synthetic((f"svo:{weight}", "ditrans:2.0"), 3, seed=0)

    def test_entry_that_is_not_a_string_is_refused_by_name(self):
        with pytest.raises(ValidationError, match=r"template entry \('svo', 0.5\):"):
            gen_synthetic((("svo", 0.5),), 3)

    def test_coordinated_template_shares_subject(self):
        sentences, gold = gen_synthetic(("coord_vp",), 1, seed=5)
        sent = sentences[0]
        first, second = gold
        assert first.role_heads["ARG1"] == second.role_heads["ARG1"]
        assert sent.token(second.predicate_head).deprel == "conj"

    def test_all_parses_are_valid_trees(self):
        sentences, _ = gen_synthetic(("svo", "svo_pp", "ditrans", "coord_vp"), 100, seed=9)
        assert all(len(s) >= 5 for s in sentences)

    def test_svo_tree_is_pinned(self):
        (sent,), (tup,) = gen_synthetic(("svo",), 1, seed=7)
        assert [(t.surface, t.upos, t.head, t.deprel) for t in sent.tokens] == [
            ("a", "DET", 2, "det"), ("book", "NOUN", 3, "nsubj"), ("draws", "VERB", 0, "root"),
            ("the", "DET", 5, "det"), ("kite", "NOUN", 3, "obj"), (".", "PUNCT", 3, "punct")]
        assert tup == GoldTuple("syn00000-svo", 3, {"ARG1": 2, "ARG2": 5},
                                {"P": "draws", "ARG1": "book", "ARG2": "kite"})

    def test_coord_vp_tree_is_pinned(self):
        (sent,), gold = gen_synthetic(("coord_vp",), 1, seed=5)
        assert [(t.surface, t.upos, t.head, t.deprel) for t in sent.tokens] == [
            ("the", "DET", 2, "det"), ("farmer", "NOUN", 3, "nsubj"),
            ("follows", "VERB", 0, "root"), ("the", "DET", 6, "det"), ("old", "ADJ", 6, "amod"),
            ("nurse", "NOUN", 3, "obj"), ("and", "CCONJ", 8, "cc"), ("greets", "VERB", 3, "conj"),
            ("the", "DET", 10, "det"), ("horse", "NOUN", 8, "obj"), (".", "PUNCT", 3, "punct")]
        assert gold == [
            GoldTuple("syn00000-coord_vp", 3, {"ARG1": 2, "ARG2": 6},
                      {"P": "follows", "ARG1": "farmer", "ARG2": "nurse"}),
            GoldTuple("syn00000-coord_vp", 8, {"ARG1": 2, "ARG2": 10},
                      {"P": "greets", "ARG1": "farmer", "ARG2": "horse"})]

    def test_default_corpus_files_are_pinned(self, tmp_path):
        # The default template set must keep generating this corpus.
        sentences, gold = gen_synthetic(TEMPLATE_NAMES, 40, seed=3)
        write_conllu(sentences, tmp_path / "c.conllu")
        write_gold(gold, tmp_path / "c.gold")
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("c.conllu", "c.gold")}
        assert digests == {
            "c.conllu": "15a7539b23d8d18513c201e9f5eb4c79a63572d34fc7e15b022554611c0128ff",
            "c.gold": "2b6cf3fd3927a83896bf7a90ccf3e86af426c1fd25fd6ac4fb10b436c938d1d6"}


# -- Writers and readers agree: what a writer accepts reads back as written --

# Characters the formats give a meaning (tab, line breaks, '#', '=', the
# whitespace that readers strip) and a few plain ones.
SPECIAL = "\t\n\r\x0b\x0c\x1c\x85\xa0\u2028 #=_aé"
ANY_FIELD = st.text(st.sampled_from(SPECIAL), max_size=4)
# Fields every writer accepts: no tab or line break, no surrounding space.
SAFE_FIELD = st.builds("{}{}{}".format, st.sampled_from("#=_aé"),
                       st.text(st.sampled_from(SPECIAL[3:]), max_size=3), st.sampled_from("=_aé"))
ROUND_TRIPS = settings(max_examples=50, deadline=None)


@st.composite
def parsed_sentences(draw, field):
    """A sentence whose tokens each hang off an earlier one: always a tree."""
    tokens = [Token(index=i, surface=draw(field), upos=draw(field),
                    head=draw(st.integers(1, i - 1)) if i > 1 else 0, deprel=draw(field))
              for i in range(1, draw(st.integers(1, 4)) + 1)]
    return ParsedSentence(draw(field), tuple(tokens), draw(st.just("") | field))


@st.composite
def gold_tuples(draw, field, sentence_id, role=st.sampled_from(ARGUMENT_ROLES),
                role_head=st.integers(-5, 50), predicate_head=st.integers(0, 50)):
    roles = draw(st.dictionaries(role, role_head, min_size=1, max_size=3))
    surfaces = draw(st.dictionaries(st.sampled_from(sorted(roles)) | field, field, max_size=3))
    return GoldTuple(draw(sentence_id), draw(predicate_head), roles, surfaces)


@st.composite
def extractions(draw):
    roles = draw(st.lists(st.sampled_from(ARGUMENT_ROLES), unique=True, max_size=3))
    spans, start = [], 1
    for _ in range(len(roles) + 1):
        length, gap = draw(st.integers(1, 3)), draw(st.integers(0, 2))
        spans.append((start, start + length - 1))
        start += length + gap
    return Extraction(draw(st.text(max_size=6)), spans[0], dict(zip(roles, spans[1:])),
                      draw(st.floats(allow_nan=False, allow_infinity=False)))


def _written_or_refused(write, read, values):
    """Write ``values`` over a file; return what reads back, or None when
    the writer refuses them, in which case the old file must be untouched."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        path.write_text("old\n", encoding="utf-8")
        try:
            write(values, path)
        except ValidationError:
            assert path.read_text(encoding="utf-8") == "old\n"
            assert [p.name for p in Path(tmp).iterdir()] == ["out"]
            return None
        return read(path)


def _as_stored(gold):
    """The gold tuple as the file stores it: non-empty surfaces of its roles."""
    surfaces = {r: s for r, s in gold.surfaces.items() if r in gold.role_heads and s}
    return GoldTuple(gold.sentence_id, gold.predicate_head, gold.role_heads, surfaces)


def _unique_keys(golds):
    return len({(g.sentence_id, g.predicate_head) for g in golds}) == len(golds)


def _no_role_head_at_its_predicate(golds):
    return all(g.predicate_head not in g.role_heads.values() for g in golds)


class TestRoundTrips:
    @given(st.lists(parsed_sentences(SAFE_FIELD), max_size=3,
                    unique_by=lambda sentence: sentence.sentence_id))
    @ROUND_TRIPS
    def test_conllu_round_trip(self, sentences):
        assert _written_or_refused(write_conllu, read_conllu, sentences) == sentences

    @given(st.lists(parsed_sentences(ANY_FIELD), max_size=3))
    @ROUND_TRIPS
    def test_conllu_writer_refuses_what_would_not_read_back(self, sentences):
        back = _written_or_refused(write_conllu, read_conllu, sentences)
        assert back is None or back == sentences

    @given(st.lists(gold_tuples(SAFE_FIELD, SAFE_FIELD.map("s{}".format),
                                role_head=st.integers(1, 50), predicate_head=st.integers(1, 50)),
                    max_size=3).filter(_unique_keys).filter(_no_role_head_at_its_predicate))
    @ROUND_TRIPS
    def test_gold_round_trip(self, golds):
        assert (_written_or_refused(write_gold, read_gold, golds)
                == [_as_stored(gold) for gold in golds])

    @given(st.lists(gold_tuples(ANY_FIELD, ANY_FIELD, st.sampled_from(ARGUMENT_ROLES) | ANY_FIELD),
                    max_size=3))
    @ROUND_TRIPS
    def test_gold_writer_refuses_what_would_not_read_back(self, golds):
        back = _written_or_refused(write_gold, read_gold, golds)
        assert back is None or back == [_as_stored(gold) for gold in golds]

    @given(st.lists(extractions(), max_size=3))
    @ROUND_TRIPS
    def test_extraction_round_trip(self, records):
        assert _written_or_refused(write_extractions, read_extractions, records) == records


class TestWriterRefusals:
    def test_conllu_repeated_sentence_id(self, tmp_path, parragon):
        path = tmp_path / "out.conllu"
        write_conllu([parragon], path)
        before = path.read_bytes()
        with pytest.raises(ValidationError, match="repeats"):
            write_conllu([parragon, parragon], path)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("surface", ["a\tb", "a\nb", "a\rb"])
    def test_conllu_surface_with_tab_or_line_break(self, tmp_path, parragon, surface):
        path = tmp_path / "out.conllu"
        write_conllu([parragon], path)
        before = path.read_bytes()
        tokens = (Token(1, surface, "NOUN", 2, "nsubj"),) + parragon.tokens[1:]
        with pytest.raises(ValidationError):
            write_conllu([parragon, ParsedSentence("bad", tokens)], path)
        assert path.read_bytes() == before
        assert read_conllu(path) == [parragon]

    @pytest.mark.parametrize("sentence_id", ["#s1", "# s1"])
    def test_gold_sentence_id_starting_with_a_comment_mark(self, tmp_path, sentence_id):
        path = tmp_path / "gold.tsv"
        with pytest.raises(ValidationError):
            write_gold([GoldTuple("s0", 1, {"ARG1": 2}), GoldTuple(sentence_id, 2, {"ARG1": 1})],
                       path)
        assert not path.exists()

    def test_gold_tuples_sharing_a_predicate(self, tmp_path):
        with pytest.raises(ValidationError):
            write_gold([GoldTuple("s1", 2, {"ARG1": 1}), GoldTuple("s1", 2, {"ARG2": 3})],
                       tmp_path / "gold.tsv")

    @pytest.mark.parametrize("role", ["arg1", "P", "ARG4"])
    def test_gold_role_outside_the_argument_roles(self, tmp_path, role):
        with pytest.raises(ValidationError):
            write_gold([GoldTuple("s1", 2, {"ARG1": 1, role: 3})], tmp_path / "gold.tsv")
        assert not (tmp_path / "gold.tsv").exists()

    def test_gold_role_head_at_its_predicate_head(self, tmp_path):
        with pytest.raises(ValidationError):
            write_gold([GoldTuple("s1", 2, {"ARG1": 1, "ARG2": 2})], tmp_path / "gold.tsv")
        assert not (tmp_path / "gold.tsv").exists()

    def test_gold_tuple_without_roles(self, tmp_path):
        with pytest.raises(ValidationError):
            write_gold([GoldTuple("s1", 2, {})], tmp_path / "gold.tsv")
