"""Boilerplate stripping, sentence splitting, tokenization, ingestion."""

import re

import pytest
from hypothesis import given, strategies as st

from clozereader.corpus import (
    DEFAULT_ABBREVIATIONS,
    EmptyCorpusError,
    RawBook,
    _split_paragraph,
    extract_title,
    ingest_books,
    split_sentences,
    strip_boilerplate,
    tokenize,
    tokenize_book,
)

# ------------------------------------------------------------- boilerplate


def test_strip_boilerplate_removes_header_and_footer():
    text = (
        "header junk\nTitle: A Book\n*** START OF THE BOOK ***\n"
        "body line one\nbody line two\n*** END OF THE BOOK ***\nfooter junk\n"
    )
    assert strip_boilerplate(text) == "body line one\nbody line two"


def test_strip_boilerplate_start_only():
    text = "junk\n*** START ***\nkept\nstill kept"
    assert strip_boilerplate(text) == "kept\nstill kept"


def test_strip_boilerplate_end_only():
    text = "kept\n*** END ***\ndropped"
    assert strip_boilerplate(text) == "kept"


def test_strip_boilerplate_without_markers_is_identity():
    text = "no markers\nhere at all"
    assert strip_boilerplate(text) == text


def test_strip_boilerplate_uses_first_start_and_last_end():
    text = "*** START ***\na\n*** END ***\nb\n*** END ***\nfooter"
    assert strip_boilerplate(text) == "a\n*** END ***\nb"


def test_extract_title_prefers_title_line():
    original = "noise\nTitle:  The Amber Mill  \nmore"
    assert extract_title(original, "body", "fb") == "The Amber Mill"


def test_extract_title_falls_back_to_first_body_line():
    assert extract_title("no header", "\n\n  First line\nrest", "fb") == "First line"


def test_extract_title_final_fallback_is_id():
    assert extract_title("", "   \n  ", "book_07") == "book_07"


# ---------------------------------------------------------------- sentences


def test_split_on_terminator_before_capital():
    text = "The dog barked. The cat ran."
    assert split_sentences(text) == ["The dog barked.", "The cat ran."]


def test_no_split_after_abbreviation():
    text = "Mr. Smith waved. Dr. Jones did not."
    assert split_sentences(text) == ["Mr. Smith waved.", "Dr. Jones did not."]


def test_no_split_after_single_initial():
    text = "J. Watson arrived. He sat down."
    assert split_sentences(text) == ["J. Watson arrived.", "He sat down."]


def test_no_split_before_lowercase():
    text = "It cost 3ance.50 i.e. very little money."
    assert len(split_sentences(text)) == 1


def test_terminator_run_with_closing_quote():
    text = 'She said "Stop!" Then she left.'
    assert split_sentences(text) == ['She said "Stop!"', "Then she left."]


def test_multi_mark_run_stays_together():
    text = "What?! Nobody knew."
    assert split_sentences(text) == ["What?!", "Nobody knew."]


def test_paragraph_break_always_splits():
    text = "no terminator here\n\nNext paragraph."
    assert split_sentences(text) == ["no terminator here", "Next paragraph."]


def test_split_before_opening_quote():
    text = 'He nodded. "Fine," she said.'
    assert split_sentences(text) == ["He nodded.", '"Fine," she said.']


def test_newline_inside_paragraph_is_plain_whitespace():
    text = "One sentence here.\nAnother sentence there."
    assert split_sentences(text) == ["One sentence here.", "Another sentence there."]


def copying_split_paragraph(paragraph):
    """The splitter as it was when it copied the rest of the paragraph at
    every terminator, which made it quadratic in paragraph length."""
    bounds = []
    for m in re.finditer(r"[.!?]+[)\]\"'”’]*", paragraph):
        rest = paragraph[m.end():]
        if rest and not rest[0].isspace():
            continue
        following = rest.lstrip()
        if following and not (following[0].isupper() or following[0] in "\"'`([{“‘«"):
            continue
        run = m.group()
        if run[0] == "." and "." not in run[1:]:
            before = re.compile(r"[A-Za-z]+$").search(paragraph, max(0, m.start() - 40), m.start())
            if before is not None:
                word = before.group()
                if word + "." in DEFAULT_ABBREVIATIONS or (len(word) == 1 and word.isupper()):
                    continue
        bounds.append(m.end())
    pieces, prev = [], 0
    for b in bounds:
        if paragraph[prev:b].strip():
            pieces.append(paragraph[prev:b].strip())
        prev = b
    if paragraph[prev:].strip():
        pieces.append(paragraph[prev:].strip())
    return pieces


SPLIT_CASES = [
    "Mr. Smith waved. Dr. Jones did not.",
    "J. Watson arrived. He sat down.",
    'She said "Stop!" Then she left.',
    'He nodded. "Fine," she said. (Quietly.) [Then.] ‘Yes.’ «Non.»',
    "What?! Nobody knew... it was late.  \u00a0 Then\u2003Morning came.",
    "A trailing terminator.   ",
    "No terminator at all",
    "Dots.Without.Spaces. And then i.e. lower case. St. Ives. (Mr. Bell.) “Q.” E. Fin",
]


@pytest.mark.parametrize("paragraph", SPLIT_CASES)
def test_split_paragraph_matches_the_copying_splitter(paragraph):
    assert _split_paragraph(paragraph) == copying_split_paragraph(paragraph)


@pytest.mark.parametrize("sentences", [2_000, 8_000])
def test_split_paragraph_matches_the_copying_splitter_on_one_long_paragraph(sentences):
    pieces = ["Tom saw Mr. Bell run.", 'J. Watson said "Stop!"', "Who?!", "then (Later.)",
              "St. Ives is far.", "Ann waved."]
    paragraph = " ".join(pieces[i % len(pieces)] + f" {i}." for i in range(sentences))
    assert _split_paragraph(paragraph) == copying_split_paragraph(paragraph)


@given(st.text(alphabet="Ab. !?\"'(“\n\u00a0Mr", max_size=80))
def test_split_paragraph_matches_the_copying_splitter_on_any_text(paragraph):
    assert _split_paragraph(paragraph) == copying_split_paragraph(paragraph)


# ------------------------------------------------------------------- tokens


@pytest.mark.parametrize(
    "sentence,expected",
    [
        ("The dog barked.", ["The", "dog", "barked", "."]),
        ("don't stop", ["do", "n't", "stop"]),
        ("Mira's lamp", ["Mira", "'s", "lamp"]),
        ("they're well--known here", ["they", "'re", "well", "--", "known", "here"]),
        ("wait—now", ["wait", "—", "now"]),
        ("Mr. Smith", ["Mr.", "Smith"]),
        ("J. Watson", ["J.", "Watson"]),
        ('"Stop!" she said', ['"', "Stop", "!", '"', "she", "said"]),
        ("well...", ["well", "..."]),
        ("...", ["..."]),
        ("(see note),", ["(", "see", "note", ")", ","]),
        ("?!", ["?!"]),
        ("I'll go; you'd stay", ["I", "'ll", "go", ";", "you", "'d", "stay"]),
        ("o'clock", ["o'clock"]),
        # An abbreviation or initial after an opening quote or bracket
        # keeps its period.
        ('"Mr. Grey came.', ['"', "Mr.", "Grey", "came", "."]),
        ("(J. Hale)", ["(", "J.", "Hale", ")"]),
        ("[Dr. Who]", ["[", "Dr.", "Who", "]"]),
        ('"Mrs. Dale said."', ['"', "Mrs.", "Dale", "said", ".", '"']),
        # Every "|" is a token of its own: question files separate candidates with it.
        ("Tessa|Odette's ||", ["Tessa", "|", "Odette", "'s", "|", "|"]),
    ],
)
def test_tokenize_cases(sentence, expected):
    assert tokenize(sentence) == expected


@given(
    st.lists(
        st.sampled_from(
            ["Mira", "don't", "Mr.", "...", "(well)", '"Stop!"', "it's",
             "well--known", "x", "St.", "o'clock", "end.", '"Mr.', "(J."]
        ),
        min_size=1,
        max_size=12,
    )
)
def test_tokenize_is_lossless_modulo_whitespace(chunks):
    sentence = " ".join(chunks)
    tokens = tokenize(sentence)
    assert "".join(tokens) == "".join(sentence.split())


@given(
    st.lists(
        st.sampled_from(
            ["Mira", "don't", "Mr.", "...", "(well)", "it's", "end.", "x", '"Mr.', "(J."]
        ),
        min_size=1,
        max_size=10,
    )
)
def test_tokenize_is_stable_under_retokenization(chunks):
    tokens = tokenize(" ".join(chunks))
    assert tokenize(" ".join(tokens)) == tokens


def test_tokenize_book_drops_empty_sentences():
    raw = RawBook(book_id="b", title="T", text="First one. . Second one.")
    book = tokenize_book(raw)
    assert all(book.sentences)


BOOK_TEXT = (
    '"Well--I don\'t know..." said Mr. Grey to J. R. Hale. (It\'s late.) '
    "Hale's dog—a grey one—wasn't there... 'Come,' Dr. Oak said; "
    '"we\'ll go." It\'s late -- it\'s late!\n\n'
    "Mr. Grey didn't wait... He'd gone, and Hale's lamp (the grey one) "
    "burned on. [J. Oak's note:] Don't!"
)


def test_tokenize_book_matches_per_sentence_tokenize():
    book = tokenize_book(RawBook(book_id="b", title="T", text=BOOK_TEXT))
    expected = [tokens for tokens in map(tokenize, split_sentences(BOOK_TEXT)) if tokens]
    assert len(expected) >= 6
    assert book.sentences == expected


@given(
    st.lists(
        st.sampled_from(
            ["Mira", "don't", "Mr.", "...", "(well)", '"Stop!"', "it's", "J.",
             "well--known", "end.", "Go!", "\n\n", "--", "'Hale's'"]
        ),
        min_size=1,
        max_size=30,
    )
)
def test_tokenize_book_matches_per_sentence_tokenize_on_any_text(chunks):
    text = " ".join(chunks)
    book = tokenize_book(RawBook(book_id="b", title="T", text=text))
    assert book.sentences == [
        tokens for tokens in map(tokenize, split_sentences(text)) if tokens
    ]


# ---------------------------------------------------------------- ingestion


def test_ingest_reads_fixture_library(fixture_library):
    books, errors = ingest_books(fixture_library)
    assert len(books) == 5
    assert errors == []
    assert all(book.title.startswith(("The ", "A ")) for book in books)
    assert all("***" not in book.text for book in books)


def test_ingest_collects_bad_files(tmp_path):
    (tmp_path / "good.txt").write_text(
        "Title: Good\n*** START ***\nSome text here. More text.\n*** END ***\n",
        encoding="utf-8",
    )
    (tmp_path / "bad.txt").write_bytes(b"\xff\xfe\x00 garbage \xff")
    (tmp_path / "late.txt").write_bytes(b"Title: Late\n*** START ***\nOne \xe2\x82.\n")
    (tmp_path / "hollow.txt").write_text(
        "*** START ***\n\n*** END ***\n", encoding="utf-8"
    )
    books, errors = ingest_books(tmp_path)
    assert [book.book_id for book in books] == ["good"]
    assert sorted(e.path.rsplit("/", 1)[-1] for e in errors) == [
        "bad.txt",
        "hollow.txt",
        "late.txt",
    ]
    reasons = {e.path: e.reason for e in errors}
    # An undecodable book is named with the line of its first bad byte.
    for name, line, why in (("bad.txt", 1, "invalid start byte"),
                            ("late.txt", 3, "invalid continuation byte")):
        path = str(tmp_path / name)
        assert reasons[path] == f"{path}:{line}: not valid UTF-8 ({why})"


def test_ingest_reads_a_book_with_newlines_translated_as_text_mode_reads_it(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_bytes(b"Title: Mixed\r\n*** START ***\r\nOne went.\x0cTwo went.\rThree went."
                     b"\r\n\r\nFour went.\n*** END ***\r\n")
    books, _ = ingest_books(tmp_path)
    assert books[0].text == strip_boilerplate(path.read_text("utf-8"))
    assert books[0].title == "Mixed"


def test_ingest_empty_directory_raises(tmp_path):
    with pytest.raises(EmptyCorpusError):
        ingest_books(tmp_path)


def test_ingest_no_usable_books_raises(tmp_path):
    (tmp_path / "only.txt").write_bytes(b"\xff\xfe broken")
    with pytest.raises(EmptyCorpusError):
        ingest_books(tmp_path)


def test_ingest_is_deterministic_and_sorted(tmp_path):
    for name in ("zeta.txt", "alpha.txt"):
        (tmp_path / name).write_text(
            f"Title: {name}\n*** START ***\nText body here.\n*** END ***\n",
            encoding="utf-8",
        )
    books, _ = ingest_books(tmp_path)
    assert [book.book_id for book in books] == ["alpha", "zeta"]
