"""Fuzz of the text files the CLI reads: a question file, an ensemble spec,
a predictions file, a blocklist and a ``train --config`` file.  Each
example mutates one valid file (drops, duplicates, swaps or truncates
lines, edits tokens, flips bytes, breaks the UTF-8) and runs every command
that reads it through ``main``, which must return 0 or 1 and raise
nothing; ``train`` may also return 2, for a run that diverged.  An exit 1
prints exactly one ``error:`` line and leaves no output behind, and a file
that is not UTF-8 exits 1 with an error that names it."""

import io
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from clozereader.asreader import Model, ModelConfig
from clozereader.cbtio import write_examples
from clozereader.cli import main
from clozereader.clozegen import generate_from_book
from clozereader.ensemble import write_ensemble_spec
from clozereader.synthdata import write_fixture_library
from clozereader.tagger import WordType, default_config, tag_book
from clozereader.training import save_checkpoint
from clozereader.vocab import build_vocab

# Each command names the files it reads as {questions}, {spec},
# {predictions}, {blocklist} and {books}, and writes only under {out}.
COMMANDS = [
    ["stats", "--data", "{questions}"],
    ["evaluate", "--ensemble", "{spec}", "--data", "{questions}",
     "--predictions-out", "{out}/predictions.txt"],
    ["export-errors", "--predictions", "{predictions}", "--data", "{questions}",
     "--n", "2", "--out", "{out}/study.txt"],
    ["union-accuracy", "--predictions-a", "{predictions}",
     "--predictions-b", "{predictions}", "--data", "{questions}"],
    ["generate", "--books", "{books}", "--type", "ne", "--blocklist", "{blocklist}",
     "--out", "{out}/data"],
]
TOKENS = ["", "0", "1", "2", "-1", "99", "0.5", "nan", "inf", "XXXXX", "|", "#",
          "validation_accuracy=x", "\t", " ", "é", "\x00", "1\t1", "a|b"]
_SEPARATORS = re.compile(rb"([ \t|])")

_INDEX = st.integers(0, 10**6)


def mutation_lists(tokens: list[str]):
    """One to four mutations, whose token edits draw from ``tokens``."""
    return st.lists(st.one_of(
        st.tuples(st.just("drop"), _INDEX),
        st.tuples(st.just("duplicate"), _INDEX),
        st.tuples(st.just("swap"), _INDEX, _INDEX),
        st.tuples(st.just("truncate"), _INDEX),
        st.tuples(st.just("edit"), _INDEX, _INDEX, st.sampled_from(tokens)),
        st.tuples(st.just("flip"), _INDEX, st.integers(0, 7)),
        st.tuples(st.just("break_utf8"), _INDEX,
                  st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"])),
    ), min_size=1, max_size=4)


MUTATIONS = mutation_lists(TOKENS)


def mutate(data: bytes, mutations) -> bytes:
    for name, *args in mutations:
        lines = data.split(b"\n")
        if name == "drop":
            del lines[args[0] % len(lines)]
        elif name == "duplicate":
            i = args[0] % len(lines)
            lines.insert(i, lines[i])
        elif name == "swap":
            i, j = (a % len(lines) for a in args)
            lines[i], lines[j] = lines[j], lines[i]
        elif name == "edit":
            i = args[0] % len(lines)
            parts = _SEPARATORS.split(lines[i])  # tokens at the even indices
            parts[2 * (args[1] % ((len(parts) + 1) // 2))] = args[2].encode("utf-8")
            lines[i] = b"".join(parts)
        data = b"\n".join(lines)
        if name == "truncate":
            data = data[:args[0] % (len(data) + 1)]
        elif name == "flip" and data:
            i = args[0] % len(data)
            data = data[:i] + bytes([data[i] ^ (1 << args[1])]) + data[i + 1:]
        elif name == "break_utf8":
            i = args[0] % (len(data) + 1)
            data = data[:i] + args[1] + data[i:]
    return data


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory, fixture_books):
    """A question file, an ensemble spec over one E4/H4 checkpoint, that
    checkpoint's predictions file and a blocklist, each one that every
    command accepts, and a 3-book library with a duplicate edition.  The
    blocklist names no book but holds the duplicate's title commented out."""
    root = tmp_path_factory.mktemp("fuzz")
    book = fixture_books[0]
    examples = generate_from_book(book, tag_book(book, default_config()),
                                  WordType.NAMED_ENTITY, rng_seed=0)[0][:4]
    questions = root / "questions.txt"
    write_examples(examples, questions)
    model = Model(build_vocab(examples, cap=200, anon_count=20),
                  ModelConfig(embedding_dim=4, hidden_units=4, recurrent_layers=1))
    save_checkpoint(model, str(root / "m.ckpt"))
    spec = root / "e.spec"
    write_ensemble_spec(str(spec), [str(root / "m.ckpt")], 0.25)
    predictions = root / "predictions.txt"
    assert main(["evaluate", "--ensemble", str(spec), "--data", str(questions),
                 "--predictions-out", str(predictions)]) == 0
    books = root / "books"
    write_fixture_library(books, n_books=3, rng_seed=0, n_paragraphs=14,
                          duplicate_edition=True)
    blocklist = root / "blocklist.txt"
    blocklist.write_text("# known duplicate editions\n# A Faded Orchard\n\nThe Lost Harbour\n",
                         encoding="utf-8")
    return {"questions": questions, "spec": spec, "predictions": predictions,
            "blocklist": blocklist, "books": books}


def run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def test_every_command_accepts_the_unmutated_files(valid_inputs, tmp_path):
    for command in COMMANDS:
        argv = [arg.format(out=tmp_path, **valid_inputs) for arg in command]
        assert run([*argv, "--tsv", str(tmp_path / "report.tsv")]) == (0, "")


@pytest.mark.parametrize("kind", ["questions", "spec", "predictions", "blocklist"])
@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(mutations=MUTATIONS)
def test_a_mutated_input_exits_0_or_1_and_a_failure_writes_nothing(
        valid_inputs, kind, mutations):
    with tempfile.TemporaryDirectory() as tmp:
        mutated = Path(tmp) / f"mutated-{kind}"
        data = mutate(valid_inputs[kind].read_bytes(), mutations)
        mutated.write_bytes(data)
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            named = f"error: {mutated}:"  # the start of the one error line
        else:
            named = ""
        files = {**valid_inputs, kind: mutated}
        for command in (c for c in COMMANDS if f"{{{kind}}}" in c):
            out = Path(tmp) / command[0]
            out.mkdir()
            argv = [arg.format(out=out, **files) for arg in command]
            code, err = run([*argv, "--tsv", str(out / "report.tsv")])
            errors = [line for line in err.splitlines() if line.startswith("error: ")]
            assert code in (0, 1), (argv, err)
            if code == 1:
                assert errors == [err.splitlines()[-1]], err
                assert errors[0].startswith(named), (argv, err)
                assert not list(out.iterdir()), (argv, err)
            else:
                assert not errors and not named, err


# An E4/H4/L1 run over the module's four questions, well under a second.
# Its edits draw no size above 8, and a mutation that leaves a size unset
# is skipped: a deep or wide model, the default one included, takes seconds.
CONFIG = b"""\
# fuzz config
embedding_dim = 4
hidden_units = 4
recurrent_layers = 1
query_init = false
vocab_cap = 200
anon_count = 20
batch_size = 2
prefetch_batches = 2
max_epochs = 2
patience = 1
eval_every = 2
learning_rate = 0.01
"""
CONFIG_MUTATIONS = mutation_lists([token for token in TOKENS if token != "99"] + ["8", "true"])
SIZE_KEYS = re.compile(rb"^[ \t]*(embedding_dim|hidden_units|recurrent_layers)[ \t]*=", re.M)


def train_with(config: Path, questions: Path, out: Path) -> tuple[int, str]:
    return run(["train", "--train", str(questions), "--valid", str(questions),
                "--config", str(config), "--out", str(out / "m.ckpt"),
                "--log", str(out / "log.txt")])


def test_train_accepts_the_unmutated_config(valid_inputs, tmp_path):
    config = tmp_path / "c.cfg"
    config.write_bytes(CONFIG)
    (tmp_path / "out").mkdir()
    assert train_with(config, valid_inputs["questions"], tmp_path / "out") == (0, "")


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(mutations=CONFIG_MUTATIONS)
def test_a_mutated_config_trains_exits_1_writing_nothing_or_diverges(valid_inputs, mutations):
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "c.cfg", Path(tmp) / "out"
        data = mutate(CONFIG, mutations)
        assume(len(set(SIZE_KEYS.findall(data))) == 3)
        config.write_bytes(data)
        out.mkdir()
        code, err = train_with(config, valid_inputs["questions"], out)
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert code in (0, 1, 2), err
        if code == 0:
            assert not errors, err
            return
        assert errors == [err.splitlines()[-1]], err
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            assert code == 1 and errors[0].startswith(f"error: {config}:"), err
        if code == 1:
            assert not list(out.iterdir()), err
        else:
            assert errors[0].startswith("error: non-finite "), err
            assert {p.name for p in out.iterdir()} <= {"m.ckpt", "m.ckpt.diverged", "log.txt"}
