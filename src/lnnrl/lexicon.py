"""Offline word-category lookup.

Maps vocabulary words to semantic categories (direction, money, ...) from a
bundled tab-separated file, standing in for a remote word-knowledge service.
"""

from __future__ import annotations

from collections.abc import Mapping
from pathlib import Path
from types import MappingProxyType

from .factextract import CATEGORY_NOUNS
from .records import Frozen, same_fields
from .worldsim import NOUNS

# the game vocabulary every usable lexicon must cover
REQUIRED_ENTRIES: dict[str, str] = {
    noun: category for category, nouns in CATEGORY_NOUNS.items() for noun in nouns}


class LexiconError(Exception):
    pass


class LexiconFormatError(LexiconError):
    """A line in the lexicon file does not parse."""


class LexiconValidationError(LexiconError):
    """The lexicon is missing required vocabulary."""


class LexiconTable(Frozen):
    """In-memory word -> categories table. Lookup is pure and total; tables
    are equal when their entries are.

    `pairs` holds the (category, noun) pairs that ground a candidate, in
    candidate order: nouns in `NOUNS` order, each noun's categories sorted.
    """

    __slots__ = ("entries", "pairs")

    def __init__(self, entries: Mapping[str, frozenset[str]] = MappingProxyType({})) -> None:
        # a read-only copy, so `pairs` cannot go stale
        object.__setattr__(self, "entries", MappingProxyType(dict(entries)))
        object.__setattr__(self, "pairs", tuple(
            (category, noun)
            for noun in NOUNS
            for category in sorted(self.lookup(noun))
            if noun in CATEGORY_NOUNS.get(category, ())
        ))

    __eq__ = same_fields

    def lookup(self, word: str) -> frozenset[str]:
        return self.entries.get(word, frozenset())

    def validate(self) -> None:
        for word, category in REQUIRED_ENTRIES.items():
            if category not in self.lookup(word):
                raise LexiconValidationError(
                    f"lexicon is missing required entry {word!r} -> {category!r}"
                )


def parse_lexicon(text: str, source: str = "<string>") -> LexiconTable:
    entries: dict[str, set[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise LexiconFormatError(
                f"{source}:{lineno}: expected 'word<TAB>category', got {raw!r}"
            )
        word, category = parts[0].strip(), parts[1].strip()
        entries.setdefault(word, set()).add(category)
    return LexiconTable({w: frozenset(cats) for w, cats in entries.items()})


def load_lexicon(path: str | Path) -> LexiconTable:
    """Load and validate a lexicon file (UTF-8, word<TAB>category per line)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise LexiconFormatError(f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})") from exc
    table = parse_lexicon(text, source=str(path))
    try:
        table.validate()
    except LexiconValidationError as exc:
        raise LexiconValidationError(f"{path}: {exc}") from exc
    return table


def default_lexicon() -> LexiconTable:
    """The lexicon bundled with the package."""
    return load_lexicon(Path(__file__).with_name("data") / "lexicon.tsv")
