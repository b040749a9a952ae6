"""Lexicon loading, lookup totality, and validation."""

import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from test_agent import DIRECTION_ONLY_LEXICON, EXTRA_CATEGORY_LEXICON, MISASSIGNED_LEXICON
from test_harness import byte_edits

import lnnrl
from lnnrl.factextract import CATEGORY_NOUNS
from lnnrl.lexicon import (
    LexiconError,
    LexiconFormatError,
    LexiconValidationError,
    default_lexicon,
    load_lexicon,
    parse_lexicon,
)
from lnnrl.worldsim import DIRECTIONS, NOUNS


def test_bundled_lexicon_satisfies_invariants(lexicon):
    for d in DIRECTIONS:
        assert "direction" in lexicon.lookup(d)
    assert "money" in lexicon.lookup("coin")


def test_game_nouns_partition_into_direction_and_money(lexicon):
    directions = [n for n in NOUNS if "direction" in lexicon.lookup(n)]
    money = [n for n in NOUNS if "money" in lexicon.lookup(n)]
    assert len(directions) == 4 and len(money) == 1


def test_lookup_known_words(lexicon):
    assert lexicon.lookup("east") == {"direction"}
    assert lexicon.lookup("coin") == {"money"}


def test_lookup_unknown_word_is_empty_not_error(lexicon):
    assert lexicon.lookup("zzyzx") == frozenset()


def test_duplicate_lines_merge():
    table = parse_lexicon("north\tdirection\nnorth\tdirection\n")
    assert table.lookup("north") == {"direction"}


def test_multi_category_words_accumulate():
    table = parse_lexicon("gold\tmoney\ngold\tmetal\n")
    assert table.lookup("gold") == {"money", "metal"}


def test_comments_and_blank_lines_ignored():
    table = parse_lexicon("# header\n\nnorth\tdirection\n")
    assert table.lookup("north") == {"direction"}


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("north\tdirection\nbroken line\n", encoding="utf-8")
    with pytest.raises(LexiconFormatError, match=":2:"):
        load_lexicon(path)


def test_missing_required_word_fails_validation(tmp_path):
    path = tmp_path / "nocoin.tsv"
    path.write_text(
        "\n".join(f"{d}\tdirection" for d in DIRECTIONS) + "\n", encoding="utf-8"
    )
    with pytest.raises(LexiconValidationError, match="coin"):
        load_lexicon(path)


def test_load_valid_file(tmp_path):
    path = tmp_path / "ok.tsv"
    rows = [f"{d}\tdirection" for d in DIRECTIONS] + ["coin\tmoney", "coin\tmetal"]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    table = load_lexicon(path)
    assert table.lookup("coin") == {"money", "metal"}


LEXICON_BYTES = (Path(lnnrl.__file__).with_name("data") / "lexicon.tsv").read_bytes()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=byte_edits(LEXICON_BYTES))
def test_a_mutated_lexicon_file_loads_to_a_table_or_a_lexicon_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "mutated_lexicon.tsv"
    path.write_bytes(data)
    try:
        table = load_lexicon(path)
    except LexiconError as exc:
        assert str(exc).startswith(f"{path}:"), str(exc)
        return
    assert table == parse_lexicon(data.decode("utf-8"))
    table.validate()
    if data == LEXICON_BYTES:
        assert table == default_lexicon()


def test_a_lexicon_file_that_is_not_utf8_is_a_format_error(tmp_path):
    path = tmp_path / "latin1.tsv"
    path.write_bytes(LEXICON_BYTES.replace(b"coin\tmoney", b"co\xefn\tmoney"))
    with pytest.raises(LexiconFormatError, match=f"^{re.escape(str(path))}: byte \\d+ is not UTF-8"):
        load_lexicon(path)


def test_default_lexicon_is_idempotent():
    assert default_lexicon().entries == default_lexicon().entries


@pytest.mark.parametrize("text", [None, DIRECTION_ONLY_LEXICON, EXTRA_CATEGORY_LEXICON,
                                  MISASSIGNED_LEXICON],
                         ids=["default", "direction_only", "extra_category", "misassigned"])
def test_frozen_table_holds_the_candidate_pairs(text):
    table = default_lexicon() if text is None else parse_lexicon(text)
    # the per-step filter the precomputed pairs replaced
    expected = [(category, noun)
                for noun in NOUNS
                for category in sorted(table.lookup(noun))
                if noun in CATEGORY_NOUNS.get(category, ())]
    assert list(table.pairs) == expected
    with pytest.raises(AttributeError):
        table.pairs = ()
    with pytest.raises(AttributeError):
        table.entries = {}
    with pytest.raises(TypeError):
        table.entries["coin"] = frozenset({"direction"})


def test_default_pairs_are_four_directions_then_the_coin():
    assert default_lexicon().pairs == tuple(
        [("direction", d) for d in DIRECTIONS] + [("money", "coin")])
