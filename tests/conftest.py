import pytest

from oiekit.core import ParsedSentence, Token
from oiekit.tagger import beam_decode


def build_sentence(sentence_id, rows):
    """Rows are (surface, upos, head, deprel) in token order."""
    tokens = tuple(
        Token(index=i, surface=surface, upos=upos, head=head, deprel=deprel)
        for i, (surface, upos, head, deprel) in enumerate(rows, start=1)
    )
    return ParsedSentence(sentence_id=sentence_id, tokens=tokens)


# "Parragon operates more than 35 markets and has 10 offices ." with the
# coordination analysis that attaches the shared subject to the first verb.
PARRAGON_ROWS = [
    ("Parragon", "PROPN", 2, "nsubj"),
    ("operates", "VERB", 0, "root"),
    ("more", "ADV", 5, "advmod"),
    ("than", "ADP", 3, "fixed"),
    ("35", "NUM", 6, "nummod"),
    ("markets", "NOUN", 2, "dobj"),
    ("and", "CCONJ", 8, "cc"),
    ("has", "VERB", 2, "conj"),
    ("10", "NUM", 10, "nummod"),
    ("offices", "NOUN", 8, "dobj"),
    (".", "PUNCT", 2, "punct"),
]


@pytest.fixture
def parragon():
    return build_sentence("parragon", PARRAGON_ROWS)


# "The teacher gives the student a book ." exercises the indirect object.
DITRANS_ROWS = [
    ("The", "DET", 2, "det"),
    ("teacher", "NOUN", 3, "nsubj"),
    ("gives", "VERB", 0, "root"),
    ("the", "DET", 5, "det"),
    ("student", "NOUN", 3, "iobj"),
    ("a", "DET", 7, "det"),
    ("book", "NOUN", 3, "obj"),
    (".", "PUNCT", 3, "punct"),
]


@pytest.fixture
def ditrans():
    return build_sentence("ditrans", DITRANS_ROWS)


# "The farmer feeds the cat and walks the dog ." - the second verb has no
# subject dependent of its own.
COORD_ROWS = [
    ("The", "DET", 2, "det"),
    ("farmer", "NOUN", 3, "nsubj"),
    ("feeds", "VERB", 0, "root"),
    ("the", "DET", 5, "det"),
    ("cat", "NOUN", 3, "obj"),
    ("and", "CCONJ", 7, "cc"),
    ("walks", "VERB", 3, "conj"),
    ("the", "DET", 9, "det"),
    ("dog", "NOUN", 7, "obj"),
    (".", "PUNCT", 3, "punct"),
]


@pytest.fixture
def coordinated():
    return build_sentence("coord", COORD_ROWS)


def flat_sentence(m, sentence_id="flat"):
    """m tokens hanging off the first one; handy when only lengths matter."""
    rows = [("w1", "NOUN", 0, "root")]
    rows += [(f"w{i}", "NOUN", 1, "dep") for i in range(2, m + 1)]
    return build_sentence(sentence_id, rows)


def decode_alone(table, beam_size, predicate):
    """One item's (m, L) table decoded by :func:`beam_decode` as a batch of one."""
    return beam_decode(table[:, None], [len(table)], [predicate], beam_size)[0]


def pytest_addoption(parser):
    parser.addoption("--cli-command", help="run test_cli.py's rows and pipeline through this "
                     "command, split with shlex (e.g. 'oiekit' or 'python -m oiekit.cli'), "
                     "instead of cli.main in the test process")
