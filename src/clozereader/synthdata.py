"""Synthetic data: a pointing task for learning checks and a small
library of template-generated fixture books for pipeline runs.

The pointing task pairs marker words with value words ("the gamma quartz
stone"), then asks for the value bound to one probe marker.  Pairings are
resampled per example, every candidate value occurs exactly once in the
context, and nothing but the adjacent marker disambiguates, so an
untrained model sits at chance (10%) while the relation itself is
deterministically recoverable from the context.

Fixture books give every character a personal object and place and stick
to them, so any window of recent sentences carries enough co-occurrence
evidence to answer a question about who did what.  Casts rotate through
paragraphs, keeping name frequencies in a window roughly flat; a
frequency heuristic therefore stays near chance while an attentive reader
does not.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from . import write_lines
from .clozegen import GAP_TOKEN, ClozeExample, N_CANDIDATES
from .seeding import stream

# ------------------------------------------------------------ pointing task

MARKERS = (
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    "iota", "kappa", "lambda", "mu", "nu", "xi", "omicron", "pi", "rho",
    "sigma", "tau", "upsilon",
)
VALUES = (
    "amber", "basalt", "cedar", "dahlia", "ebony", "fennel", "garnet",
    "hazel", "indigo", "jasper", "kelp", "lotus", "maple", "nickel",
    "onyx", "pearl", "quartz", "russet", "saffron", "topaz",
)
def _binding_sentence(marker: str, value: str) -> list[str]:
    return ["the", marker, value, "stone", "."]


def associative_recall_examples(
    n_examples: int,
    rng_seed: int = 0,
    n_pairs: int = N_CANDIDATES,
) -> list[ClozeExample]:
    """Examples whose answer is the value word bound to the probed marker."""
    if not 2 <= n_pairs <= min(len(MARKERS), len(VALUES)):
        raise ValueError(f"n_pairs must be in [2, {min(len(MARKERS), len(VALUES))}]")
    examples = []
    for index in range(n_examples):
        rng = stream(rng_seed, "recall", index)
        markers = rng.sample(MARKERS, n_pairs)
        values = rng.sample(VALUES, n_pairs)
        sentences = [_binding_sentence(m, v) for m, v in zip(markers, values)]
        rng.shuffle(sentences)
        probe = rng.randrange(n_pairs)
        question = _binding_sentence(markers[probe], GAP_TOKEN)
        candidates = list(values)
        rng.shuffle(candidates)
        examples.append(
            ClozeExample(
                context=sentences,
                question=question,
                answer=values[probe],
                candidates=candidates,
                source=("recall", index),
            )
        )
    return examples


# ----------------------------------------------------------- fixture books

NAMES = (
    "Mira", "Tobias", "Greta", "Edwin", "Hollis", "Imogen", "Casper",
    "Delia", "Rufus", "Sylvie", "Barnaby", "Petra", "Quentin", "Odette",
    "Felix", "Harriet", "Lionel", "Maud", "Nestor", "Phoebe", "Roland",
    "Tessa", "Virgil", "Winifred",
)
OBJECTS = (
    "lantern", "basket", "letter", "candle", "ribbon", "saddle", "chest",
    "kettle", "blanket", "mirror", "shovel", "bucket", "ladder", "barrel",
    "knife", "cloak", "drum", "flute", "hammer", "anchor", "compass",
    "rope", "bell", "map",
)
PLACES = (
    "garden", "harbor", "kitchen", "orchard", "bridge", "stable", "cellar",
    "tower", "market", "chapel", "meadow", "forge", "library", "courtyard",
    "mill", "barn", "attic", "inn", "cottage", "shore", "field", "gate",
    "well", "lane",
)
TITLE_ADJECTIVES = (
    "Copper", "Silent", "Winter", "Amber", "Hollow", "Crooked", "Golden",
    "Misty", "Quiet", "Scarlet", "Ancient", "Bright", "Distant", "Emerald",
    "Faded", "Gentle", "Hidden", "Iron", "Lonely", "Narrow",
)
TITLE_NOUNS = (
    "Orchard", "Harbor", "Lantern", "Bridge", "Meadow", "Tower", "River",
    "Garden", "Mill", "Island", "Valley", "Forest", "Cliff", "Marsh",
    "Field", "Shore", "Glen", "Brook", "Gate", "Well",
)

_SENTENCE_TEMPLATES = (
    "{name} kept the {noun} near the {place}.",
    "{name} carried the {noun} into the {place}.",
    '"Fetch the {noun}," said {name}.',
    "At the {place}, {name} polished the {noun}.",
    "{name} left the {place} holding the {noun}.",
    '"The {noun} stays here," said {name}.',
    "By the {place}, {name} found the {noun} again.",
    "{name} walked to the {place} to fetch the {noun}.",
)

CAST_SIZE = 12
_SENTENCES_PER_PARAGRAPH = 4


_JITTER = 0.25  # chance a sentence features a random character instead


def _book_paragraphs(rng, cast: list[tuple[str, str, str]],
                     n_paragraphs: int) -> list[str]:
    """Paragraphs cycling through the cast so any recent window holds
    most of it; each character always appears with their own noun and
    place.  A little jitter keeps name frequencies from being a perfectly
    regular (and thus exploitable) pattern."""
    paragraphs = []
    cursor = 0
    for _ in range(n_paragraphs):
        sentences = []
        for _ in range(_SENTENCES_PER_PARAGRAPH):
            index = cursor % len(cast)
            if rng.random() < _JITTER:
                index = rng.randrange(len(cast))
            cursor += 1
            name, noun, place = cast[index]
            template = rng.choice(_SENTENCE_TEMPLATES)
            sentences.append(template.format(name=name, noun=noun, place=place))
        paragraphs.append(textwrap.fill(" ".join(sentences), width=72))
    return paragraphs


def render_fixture_book(title: str, rng, n_paragraphs: int) -> str:
    """One pseudo-prose book as plain text with title and marker lines."""
    cast_names = rng.sample(NAMES, CAST_SIZE)
    cast_objects = rng.sample(OBJECTS, CAST_SIZE)
    cast_places = rng.sample(PLACES, CAST_SIZE)
    cast = list(zip(cast_names, cast_objects, cast_places))
    body = "\n\n".join(_book_paragraphs(rng, cast, n_paragraphs))
    return (
        "A Story Archive Text\n"
        "\n"
        f"Title: {title}\n"
        "\n"
        "*** START OF THE BOOK ***\n"
        "\n"
        f"{body}\n"
        "\n"
        "*** END OF THE BOOK ***\n"
        "\n"
        "End of text.\n"
    )


def write_fixture_library(
    directory: str | Path,
    n_books: int = 6,
    rng_seed: int = 0,
    n_paragraphs: int = 40,
    duplicate_edition: bool = False,
) -> list[Path]:
    """Write ``n_books`` template books (plus, optionally, a re-titled
    duplicate of the first) and return the paths."""
    if n_books < 1:
        raise ValueError("need at least one book")
    if n_books > len(TITLE_ADJECTIVES) * len(TITLE_NOUNS):
        raise ValueError("title pool exhausted")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    title_rng = stream(rng_seed, "titles")
    combos = title_rng.sample(
        [(a, n) for a in TITLE_ADJECTIVES for n in TITLE_NOUNS], n_books
    )
    books = [(f"{b:02d}", f"The {adjective} {noun}", b)
             for b, (adjective, noun) in enumerate(combos)]
    if duplicate_edition:
        books.append(("dup", f"A {combos[0][0]} {combos[0][1]}", 0))
    paths = []
    for stem, title, b in books:
        path = directory / f"book_{stem}.txt"
        write_lines(path, render_fixture_book(title, stream(rng_seed, "book", b),
                                              n_paragraphs).splitlines())
        paths.append(path)
    return paths
