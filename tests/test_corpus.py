"""The CLI differential corpus still holds, sampled.

``tools/corpus.py`` runs every case of its generator through ``run()`` and
compares the exit code and the digests of what each wrote with
``tools/corpus.json``; the full run stays out of this suite.  Here the record
lists exactly the generator's case ids, and every ``STRIDE``-th case, in
generator order, gives what is recorded for it.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "corpus.py"
spec = importlib.util.spec_from_file_location("corpus", TOOL)
corpus = importlib.util.module_from_spec(spec)
spec.loader.exec_module(corpus)

CASES = list(corpus.cases())
RECORD = corpus.read_record()
STRIDE = 8


def test_the_record_lists_exactly_the_generated_cases():
    assert [case["id"] for case in CASES] == list(RECORD)


def test_every_stride_th_case_gives_its_record():
    sampled = CASES[::STRIDE]
    assert [(case["id"], corpus.run_case(case)) for case in sampled] == [
        (case["id"], RECORD[case["id"]]) for case in sampled]
