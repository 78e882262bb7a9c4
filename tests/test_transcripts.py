"""Replay the CLI transcript corpus in process.

Every file under tests/data/transcripts/ holds one ``cli_run`` call: its
argv and stdin, and the stdout, stderr and exit code it gave when the
corpus was written (``tests/tools/transcripts.py --write``).  All three
outputs must come back byte for byte.
"""

import importlib.util
import io
import json
import os
import sys

import pytest

from latcut.cli import cli_run

CORPUS = os.path.join(os.path.dirname(__file__), "data", "transcripts")
CASES = sorted(name[:-len(".json")] for name in os.listdir(CORPUS)
               if name.endswith(".json"))


def test_the_corpus_holds_the_cutting_cases():
    assert {"cutting-fence-12", "cutting-crown-12", "cutting-antichain-8",
            "cutting-fence-6-interval",
            "cutting-bottom-without-top"} <= set(CASES)


def test_the_corpus_holds_every_case_of_its_writer():
    spec = importlib.util.spec_from_file_location(
        "transcripts", os.path.join(os.path.dirname(__file__), "tools",
                                    "transcripts.py"))
    writer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(writer)
    assert sorted(writer.cases()) == CASES


@pytest.mark.parametrize("name", CASES)
def test_transcript_replays_byte_for_byte(name, capsys, monkeypatch):
    with open(os.path.join(CORPUS, name + ".json")) as f:
        case = json.load(f)
    monkeypatch.setattr(sys, "stdin", io.StringIO(case["stdin"]))
    code = cli_run(case["argv"])
    out, err = capsys.readouterr()
    assert (out, err, code) == (case["stdout"], case["stderr"], case["exit"])
