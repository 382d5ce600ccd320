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
    loaded = read_examples(path, word_type=WordType.NAMED_ENTITY)
    assert [e.word_type for e in loaded] == [WordType.NAMED_ENTITY] * 2
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
