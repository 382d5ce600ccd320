"""Prediction averaging and greedy ensemble selection.

An ensemble averages the candidate-renormalized probability vectors of
its members and predicts the argmax of the average.  Greedy selection
sorts members by validation accuracy (best first, ties broken by name),
seeds the ensemble with the best one, then walks the rest in order and
keeps each member only if adding it strictly improves the ensemble's
validation accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ClozereaderError, read_lines, write_lines
from .asreader import Prediction, Predictions, as_predictions


class EnsembleError(ClozereaderError):
    pass


@dataclass
class EnsembleMember:
    """One model's name, validation accuracy, and validation predictions."""

    name: str
    validation_accuracy: float
    predictions: Predictions | list[Prediction]


def average_predictions(
    member_predictions: list[Predictions | list[Prediction]],
) -> Predictions:
    """Average the members' probability arrays."""
    if not member_predictions:
        raise EnsembleError("no members to average")
    members = [as_predictions(p) for p in member_predictions]
    lengths = {len(p) for p in members}
    if len(lengths) != 1:
        raise EnsembleError(f"members disagree on example count: {sorted(lengths)}")
    # Narrower members get the padding of wider rows: id 0 (PAD_ID) at probability 0.
    width = max(p.probabilities.shape[1] for p in members)
    pads = [((0, 0), (0, width - p.probabilities.shape[1])) for p in members]
    candidate_ids = np.stack([np.pad(p.candidate_ids, pad) for p, pad in zip(members, pads)])
    disagree = (candidate_ids != candidate_ids[0]).any(axis=(0, 2))
    if disagree.any():
        raise EnsembleError(
            f"members disagree on candidates for example {int(disagree.argmax())}"
        )
    probabilities = np.mean([np.pad(p.probabilities, pad) for p, pad in zip(members, pads)], axis=0)
    return Predictions(candidate_ids[0], probabilities)


def correct_flags(predictions: Predictions | list[Prediction],
                  answer_ids: list[int]) -> list[int]:
    """1 where a prediction names its answer id, else 0."""
    predictions = as_predictions(predictions)
    if len(predictions) != len(answer_ids):
        raise EnsembleError("predictions and answers differ in length")
    return (predictions.predicted_ids == np.asarray(answer_ids)).astype(int).tolist()


def hit_rate(flags: list[int]) -> float:
    """Share of examples flagged correct."""
    if not flags:
        raise EnsembleError("nothing to score")
    return sum(flags) / len(flags)


def prediction_accuracy(predictions: Predictions | list[Prediction],
                        answer_ids: list[int]) -> float:
    return hit_rate(correct_flags(predictions, answer_ids))


def union_accuracy(member_flags: list[list[int]]) -> float:
    """Fraction of examples at least one member's flags mark correct: an
    upper bound on what any combination of these members could reach."""
    if len({len(flags) for flags in member_flags}) > 1:
        raise EnsembleError("members disagree on example count")
    return hit_rate([int(any(hits)) for hits in zip(*member_flags)])


def greedy_select(
    members: list[EnsembleMember],
    answer_ids: list[int],
) -> tuple[list[EnsembleMember], float]:
    """Pick members greedily; returns (selected, ensemble accuracy)."""
    if not members:
        raise EnsembleError("no members to select from")
    selected, best = [], -1.0  # below any accuracy: the best-ranked member is always kept
    for member in sorted(members, key=lambda m: (-m.validation_accuracy, m.name)):
        trial = selected + [member]
        accuracy = prediction_accuracy(
            average_predictions([m.predictions for m in trial]), answer_ids
        )
        if accuracy > best:
            selected, best = trial, accuracy
    return selected, best


# ------------------------------------------------------------- spec files
#
# A saved ensemble is a small text file: a version line, the validation
# accuracy the selection achieved, then one member checkpoint path per
# line, in selection order.

SPEC_HEADER = "# ensemble spec v1"


def write_ensemble_spec(
    path: str,
    member_paths: list[str],
    validation_accuracy: float,
) -> None:
    if not member_paths:
        raise EnsembleError("refusing to write an empty ensemble")
    write_lines(path, [SPEC_HEADER, f"# validation_accuracy={validation_accuracy:.6f}",
                       *member_paths])


def read_ensemble_spec(path: str) -> tuple[list[str], float]:
    """Returns (member paths, recorded validation accuracy)."""
    lines = read_lines(path)
    if not lines or lines[0].strip() != SPEC_HEADER:
        raise EnsembleError(f"{path}: not an ensemble spec file")
    accuracy = float("nan")
    members: list[str] = []
    for line in lines[1:]:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("validation_accuracy="):
                try:
                    accuracy = float(body.partition("=")[2])
                except ValueError as exc:
                    raise EnsembleError(f"{path}: bad validation_accuracy: {exc}") from exc
            continue
        members.append(line)
    if not members:
        raise EnsembleError(f"{path}: ensemble spec lists no members")
    return members, accuracy
