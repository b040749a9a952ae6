"""The mutation catalogue stays aimed: each snippet of `tests/mutants.py`
occurs exactly once in its file and each test it names exists. No mutant
runs here; `python tests/mutants.py` runs them."""

import re

import pytest
from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_snippet_occurs_exactly_once(mutant):
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.snippet) == 1, f"{mutant.path} no longer holds the mutated code once"
    assert mutant.replacement != mutant.snippet


def test_each_mutant_names_tests_that_exist():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.tests, f"{mutant.name} names no test"
        for test_id in mutant.tests:
            path, _, function = test_id.partition("::")
            function = re.sub(r"\[.*\]$", "", function)
            text = (ROOT / path).read_text(encoding="utf-8")
            assert re.search(rf"^def {re.escape(function)}\(", text, re.MULTILINE), test_id
