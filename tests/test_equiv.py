"""The equivalence sweep in ``tools/equiv.py``, run on the working tree
against itself."""

import importlib.util
from pathlib import Path

from clozereader.cbtio import read_examples

_SPEC = importlib.util.spec_from_file_location(
    "equiv", Path(__file__).resolve().parents[1] / "tools" / "equiv.py")
equiv = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(equiv)


def test_a_sweep_of_the_working_tree_against_itself_is_all_equal(tmp_path):
    first = equiv.sweep(equiv.ROOT, tmp_path / "first")
    second = equiv.sweep(equiv.ROOT, tmp_path / "second")
    assert set(equiv.compare(first, second).values()) == {"equal"}
    # Every command succeeded and wrote its --tsv, so equality is not vacuous.
    for name, argv in equiv.commands():
        assert first[f"exit {name}"] == 0, first[f"stderr {name}"]
        assert argv[-2] == "--tsv" and f"file {argv[-1]}" in first
    for model in equiv.MODELS:
        for item in ("probabilities", "attention", "batches", "gradients", "clipped"):
            assert f"{item} {model}" in first
    assert "model E32/H32/L1" in first
    # That model's train split walk is long enough to fork, and uneven.
    train_split = read_examples(tmp_path / "first" / "ne" / "ne_train.txt")
    batches = -(-len(train_split) // equiv.SPLIT_BATCH_SIZE)
    assert batches >= 3 and batches % 2 == 1
    assert f"model E32/H32/L1 train split at batch {equiv.SPLIT_BATCH_SIZE}" in first
    assert "fixture library" in first
    assert "listing" in first
    for eval_every, patience in equiv.SCHEDULES:
        assert f"schedule eval_every={eval_every} patience={patience}" in first
    # Both divergence cases raised and saved a diagnostic checkpoint.
    for case in ("loss", "grad_norm"):
        assert len(first[f"diverged {case}"]) == 64


def test_compare_marks_changed_and_one_sided_items_different():
    assert equiv.compare({"a": 1, "b": 2}, {"a": 1, "b": 3, "c": None}) == {
        "a": "equal", "b": "different", "c": "different",
    }
