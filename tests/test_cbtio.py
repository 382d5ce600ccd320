"""Question-file writing, parsing, and violation reporting."""

import re
import string

import pytest
from hypothesis import given, settings, strategies as st

from clozereader.cbtio import (
    CbtFormatError,
    example_lines,
    read_examples,
    validate_file,
    write_examples,
)
from clozereader.clozegen import ClozeExample
from clozereader.tagger import WordType

TOKEN = st.text(string.ascii_letters + string.digits + "'.,!?-", min_size=1, max_size=8)


@st.composite
def examples_strategy(draw):
    sentences = draw(
        st.lists(st.lists(TOKEN, min_size=1, max_size=6), min_size=20, max_size=20)
    )
    question = draw(st.lists(TOKEN, min_size=1, max_size=8))
    candidates = draw(st.lists(TOKEN, min_size=10, max_size=10, unique=True))
    answer = draw(st.sampled_from(candidates))
    return ClozeExample(
        context=sentences, question=question, answer=answer, candidates=candidates
    )


def fields(example):
    return (example.context, example.question, example.answer, example.candidates)


@settings(max_examples=60, deadline=None)
@given(st.lists(examples_strategy(), min_size=1, max_size=3))
def test_write_read_round_trip_is_token_identical(tmp_path_factory, examples):
    path = tmp_path_factory.mktemp("rt") / "data.txt"
    write_examples(examples, path)
    loaded = read_examples(path)
    assert [fields(e) for e in loaded] == [fields(e) for e in examples]


def write_text(tmp_path, text, name="data.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def sample_block(number_from=1):
    lines = [f"{i} filler sentence {i} ." for i in range(number_from, 21)]
    lines.append("21 the XXXXX spoke\tcrow\t\tcrow|a|b|c|d|e|f|g|h|i")
    lines.append("")
    return lines


@pytest.mark.parametrize(
    "context,found",
    [([["a"]] * 11, "11 sentences (0 empty)"), ([["a"]] * 19 + [[]], "20 sentences (1 empty)")],
)
def test_write_refuses_a_context_the_reader_cannot_split(tmp_path, context, found):
    good = ClozeExample(context=[["a"]] * 20, question=["q"], answer="a",
                        candidates=list("abcdefghij"))
    bad = ClozeExample(context=context, question=["q"], answer="a",
                       candidates=list("abcdefghij"), source=("recall", 4))
    path = tmp_path / "data.txt"
    with pytest.raises(CbtFormatError,
                       match=r"example 1 \(source \('recall', 4\)\): context has " + re.escape(found)):
        write_examples([good, bad], path)
    assert not path.exists()


def test_read_examples_shares_one_string_per_form(tmp_path):
    path = write_text(tmp_path, "\n".join(sample_block() + sample_block()))
    tokens = [
        token
        for example in read_examples(path)
        for token in [*(t for s in example.context for t in s), *example.question,
                      example.answer, *example.candidates]
    ]
    assert len({id(t) for t in tokens}) == len(set(tokens))


def test_exact_serialization_bytes():
    example = ClozeExample(
        context=[["A", "crow", "."], ["It", "left", "."]],
        question=["the", "XXXXX", "flew"],
        answer="crow",
        candidates=list("abcdefghi") + ["crow"],
    )
    assert example_lines(example) == [
        "1 A crow .",
        "2 It left .",
        "21 the XXXXX flew\tcrow\t\ta|b|c|d|e|f|g|h|i|crow",
        "",
    ]


def test_read_assigns_word_type_and_source(tmp_path):
    path = write_text(tmp_path, "\n".join(sample_block() + sample_block()), "ne_train.txt")
    loaded = read_examples(path)
    assert [e.source for e in loaded] == [("ne_train", 0), ("ne_train", 1)]


def test_read_tolerates_trailing_whitespace_and_crlf(tmp_path):
    text = "\r\n".join(line + "  " for line in sample_block())
    path = write_text(tmp_path, text)
    (example,) = read_examples(path)
    assert example.context[0] == ["filler", "sentence", "1", "."]
    assert example.answer == "crow"


def test_read_tolerates_extra_blank_lines_and_missing_final_one(tmp_path):
    lines = sample_block() + ["", ""] + sample_block()
    path = write_text(tmp_path, "\n".join(lines[:-1]))  # no final blank
    assert len(read_examples(path)) == 2


def test_strict_read_raises_with_location(tmp_path):
    lines = sample_block()
    lines[4] = "9 wrong number"
    path = write_text(tmp_path, "\n".join(lines))
    with pytest.raises(CbtFormatError, match=r"data\.txt:5: expected line number 5"):
        read_examples(path)


def test_a_format_error_names_the_file_by_its_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    lines = sample_block()
    lines[4] = "9 wrong number"
    write_text(tmp_path / "sub", "\n".join(lines), "x.txt")
    message = "sub/x.txt:5: expected line number 5, got '9'"
    assert validate_file("sub/x.txt") == [message]
    with pytest.raises(CbtFormatError, match=f"^{re.escape(message)}$"):
        read_examples("sub/x.txt")


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda lines: lines.__setitem__(2, "3"), "empty context sentence"),
        (lambda lines: lines.__setitem__(
            20, "21 q only one tab\tcrow\tcrow|a|b|c|d|e|f|g|h|i"
        ), "question line must be"),
        (lambda lines: lines.__setitem__(
            20, "21 q\ttwo words\t\tcrow|a|b|c|d|e|f|g|h|i"
        ), "single token"),
        (lambda lines: lines.__setitem__(
            20, "21 q\tcrow\t\tcrow|a|b|c|d|e|f|g|h"
        ), "non-empty candidates"),
        (lambda lines: lines.__setitem__(
            20, "21 q\tcrow\t\tcrow|a||c|d|e|f|g|h|i"
        ), "non-empty candidates"),
        (lambda lines: lines.__setitem__(
            20, "21 q\towl\t\tcrow|a|b|c|d|e|f|g|h|i"
        ), "not among candidates"),
        (lambda lines: lines.pop(3), "example has 20 lines"),
    ],
)
def test_violations_are_reported(tmp_path, mutate, message):
    lines = sample_block()
    mutate(lines)
    path = write_text(tmp_path, "\n".join(lines))
    with pytest.raises(CbtFormatError, match=message):
        read_examples(path)
    violations = validate_file(path)
    assert len(violations) == 1
    assert message.split("\\")[0] in violations[0] or message in violations[0]


@pytest.mark.parametrize("question_line, message", [
    ("12 the XXXXX spoke\tcrow\t\tcrow|a|b|c|d|e|f|g|h|i",
     "expected line number 21, got '12'"),
    ("21 \tcrow\t\tcrow|a|b|c|d|e|f|g|h|i", "empty question"),
], ids=["line-number", "empty-question"])
def test_a_bad_question_line_is_named_by_file_and_line(tmp_path, question_line, message):
    bad = sample_block()
    bad[20] = question_line
    path = write_text(tmp_path, "\n".join(sample_block() + bad))
    # The second example's question is line 22 + 21 of the file.
    assert validate_file(path) == [f"{path}:43: {message}"]
    with pytest.raises(CbtFormatError, match=f"^{re.escape(f'{path}:43: {message}')}$"):
        read_examples(path)


def test_validate_collects_all_violations(tmp_path):
    bad_one = sample_block()
    bad_one[0] = "7 out of order"
    bad_two = sample_block()
    bad_two[20] = "21 q\towl\t\tcrow|a|b|c|d|e|f|g|h|i"
    good = sample_block()
    path = write_text(tmp_path, "\n".join(bad_one + good + bad_two))
    violations = validate_file(path)
    assert len(violations) == 2
    assert "expected line number 1" in violations[0]
    assert "not among candidates" in violations[1]
    with pytest.raises(CbtFormatError) as excinfo:
        read_examples(path)
    assert str(excinfo.value) == violations[0]


def test_validate_clean_file_returns_empty(tmp_path):
    path = write_text(tmp_path, "\n".join(sample_block()))
    assert validate_file(path) == []


# ------------------------------------------- reference parser and sharing
#
# The reader as it was before it shared context lines: every block is
# parsed on its own and every line split anew.  The reader must give
# equal examples and identical messages on any file.

_REFERENCE_NUMBERS = [str(n) for n in range(1, 22)]


def _reference_error(path, lineno, message):
    return CbtFormatError(f"{path}:{lineno}: {message}")


def reference_blocks(path):
    lines = []
    for lineno, raw in enumerate(path.read_text("utf-8").splitlines() + [""], start=1):
        line = raw.rstrip()
        if line:
            lines.append(line)
        elif lines:
            yield lineno - len(lines), lines
            lines = []


def reference_parse_block(block, path, ordinal, forms):
    first, lines = block
    if len(lines) != 21:
        raise _reference_error(path, first, f"example has {len(lines)} lines, expected 21")
    share = forms.setdefault

    context = []
    for lineno, expected, line in zip(range(first, first + 20), _REFERENCE_NUMBERS, lines):
        number, _, rest = line.partition(" ")
        if number != expected:
            raise _reference_error(path, lineno,
                                   f"expected line number {expected}, got {number!r}")
        tokens = rest.split()
        if not tokens:
            raise _reference_error(path, lineno, "empty context sentence")
        context.append(list(map(share, tokens, tokens)))

    lineno, line = first + 20, lines[20]
    number, _, rest = line.partition(" ")
    if number != _REFERENCE_NUMBERS[20]:
        raise _reference_error(path, lineno, f"expected line number 21, got {number!r}")
    fields = rest.split("\t")
    if len(fields) != 4 or fields[2] != "":
        raise _reference_error(
            path, lineno, "question line must be question<TAB>answer<TAB><TAB>candidates",
        )
    question_text, answer, _, candidate_text = fields
    question = question_text.split()
    if not question:
        raise _reference_error(path, lineno, "empty question")
    if not answer or len(answer.split()) != 1:
        raise _reference_error(path, lineno, f"answer must be a single token, got {answer!r}")
    candidates = candidate_text.split("|")
    if len(candidates) != 10 or any(not c for c in candidates):
        raise _reference_error(
            path, lineno, f"expected 10 non-empty candidates, got {candidate_text!r}",
        )
    if answer not in candidates:
        raise _reference_error(path, lineno, f"answer {answer!r} not among candidates")

    return ClozeExample(
        context=context,
        question=list(map(share, question, question)),
        answer=share(answer, answer),
        candidates=list(map(share, candidates, candidates)),
        source=(path.stem, ordinal),
    )


def reference_validate(path):
    forms, violations = {}, []
    for ordinal, block in enumerate(reference_blocks(path)):
        try:
            reference_parse_block(block, path, ordinal, forms)
        except CbtFormatError as exc:
            violations.append(str(exc))
    return violations


def all_fields(example):
    return (example.context, example.question, example.answer, example.candidates,
            example.source)


def assert_reads_like_reference(path):
    """Field-by-field equality with the reference, or the same first error;
    and the same violations from ``validate_file``."""
    forms = {}
    try:
        expected = [all_fields(reference_parse_block(block, path, ordinal, forms))
                    for ordinal, block in enumerate(reference_blocks(path))]
    except CbtFormatError as exc:
        with pytest.raises(CbtFormatError) as got:
            read_examples(path)
        assert str(got.value) == str(exc)
    else:
        assert [all_fields(e) for e in read_examples(path)] == expected
    assert validate_file(path) == reference_validate(path)


@pytest.fixture(scope="module", params=[1, 3], ids=["stride1", "stride3"])
def generated_file(request, fixture_books, tmp_path_factory):
    from clozereader.clozegen import generate_from_book
    from clozereader.tagger import default_config, tag_book

    config = default_config()
    examples = []
    for book in fixture_books:
        got, _ = generate_from_book(book, tag_book(book, config), WordType.NAMED_ENTITY,
                                    rng_seed=7, stride=request.param)
        examples.extend(got)
    path = tmp_path_factory.mktemp("generated") / f"ne_s{request.param}.txt"
    write_examples(examples, path)
    return path


def test_reads_generated_files_like_the_reference(generated_file):
    assert_reads_like_reference(generated_file)
    loaded = read_examples(generated_file)
    assert len(loaded) > 40
    # overlapping windows: most context lines reuse the previous example's list
    assert len({id(s) for e in loaded for s in e.context}) < 20 * len(loaded) / 3


def block_with(sentences, question="21 the XXXXX spoke\tcrow\t\tcrow|a|b|c|d|e|f|g|h|i"):
    """A block whose context lines hold ``sentences`` (padded with filler)."""
    texts = list(sentences) + [f"filler {i} ." for i in range(len(sentences), 20)]
    return [f"{i} {text}" for i, text in enumerate(texts, start=1)] + [question, ""]


SAME = "the same crow flew home ."


@pytest.mark.parametrize(
    "blocks",
    [
        # a line repeated at different line numbers, and twice in one block
        [block_with([SAME, "x ."]), block_with(["y .", "z .", SAME, "w .", SAME])],
        # a line shared by non-adjacent examples only
        [block_with([SAME]), block_with(["other ."]), block_with(["a .", SAME])],
        # the same line either side of a block whose line number is wrong
        [block_with([SAME]), block_with([SAME])[:3] + ["9 bad"] + block_with([SAME])[4:],
         block_with(["b .", SAME])],
        # ... of a block whose question line is malformed
        [block_with([SAME]), block_with([SAME], question="21 q\towl\t\tcrow|a|b|c|d|e|f|g|h|i"),
         block_with([SAME])],
        # ... and of a block with a line missing
        [block_with([SAME]), block_with([SAME])[:5] + block_with([SAME])[6:], block_with([SAME])],
        # extra whitespace inside a repeated line
        [block_with([SAME, "a  b ."]), block_with(["a b .", "a  b .", SAME + "  "])],
    ],
    ids=["line-numbers", "non-adjacent", "bad-number", "bad-question", "short-block",
         "whitespace"],
)
def test_reads_hand_made_files_like_the_reference(tmp_path, blocks):
    path = write_text(tmp_path, "\n".join(line for block in blocks for line in block))
    assert_reads_like_reference(path)


def test_validate_reports_every_occurrence_of_a_repeated_bad_line(tmp_path):
    blocks = [block_with(["first ."] + [SAME] * 2) for _ in range(3)]
    for block in blocks:
        block[4] = "5"  # an empty context sentence, the same line in every example
    blocks.insert(1, block_with([SAME]))
    path = write_text(tmp_path, "\n".join(line for block in blocks for line in block))
    violations = validate_file(path)
    assert violations == [
        f"{path}:5: empty context sentence",
        f"{path}:49: empty context sentence",
        f"{path}:71: empty context sentence",
    ]
    assert violations == reference_validate(path)


def test_overlapping_examples_share_sentences_and_own_their_questions(tmp_path):
    sentences = [[f"s{k}", "went", "home", "."] for k in range(23)]
    examples = [
        ClozeExample(context=sentences[i:i + 20], question=["q", "XXXXX", str(i)],
                     answer="a", candidates=list("abcdefghij"))
        for i in range(4)
    ]
    path = tmp_path / "data.txt"
    write_examples(examples, path)
    loaded = read_examples(path)
    assert [e.context for e in loaded] == [e.context for e in examples]
    for before, after in zip(loaded, loaded[1:]):
        assert all(after.context[j] is before.context[j + 1] for j in range(19))
    assert len({id(s) for e in loaded for s in e.context}) == 23
    assert len({id(e.question) for e in loaded}) == len(loaded)
    assert len({id(e.candidates) for e in loaded}) == len(loaded)
    loaded[1].question.append("!")
    assert [e.question[-1] for e in loaded] == ["0", "!", "2", "3"]
