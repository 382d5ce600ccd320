"""Prediction averaging, greedy member selection, ensemble spec files."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clozereader.asreader import Prediction
from clozereader.ensemble import (
    EnsembleError,
    EnsembleMember,
    average_predictions,
    correct_flags,
    greedy_select,
    hit_rate,
    prediction_accuracy,
    read_ensemble_spec,
    union_accuracy,
    write_ensemble_spec,
)

CANDIDATES = np.array([10, 20])
ANSWER = 10


def prediction(p_answer, candidate_ids=CANDIDATES):
    probs = np.array([p_answer, 1.0 - p_answer])
    return Prediction(
        candidate_ids=np.asarray(candidate_ids),
        probabilities=probs,
        predicted_index=int(np.argmax(probs)),
        attention=np.array([p_answer]),
    )


def member(name, p_answers):
    predictions = [prediction(p) for p in p_answers]
    accuracy = prediction_accuracy(predictions, [ANSWER] * len(p_answers))
    return EnsembleMember(
        name=name, validation_accuracy=accuracy, predictions=predictions
    )


# ---------------------------------------------------------------- averaging


def test_average_of_two_vectors():
    merged = average_predictions([[prediction(0.6)], [prediction(0.2)]])
    np.testing.assert_allclose(merged[0].probabilities, [0.4, 0.6], atol=1e-12)
    assert merged[0].predicted_id == 20


def test_single_member_average_is_identity():
    original = prediction(0.7)
    (merged,) = average_predictions([[original]])
    np.testing.assert_array_equal(merged.probabilities, original.probabilities)
    assert merged.predicted_index == original.predicted_index


def test_average_stays_a_probability_vector():
    rng = np.random.default_rng(0)
    for _ in range(20):
        raw = rng.random((3, 4))
        raw /= raw.sum(axis=1, keepdims=True)
        members = [
            [Prediction(np.arange(4), row, int(np.argmax(row)), np.array([0.0]))]
            for row in raw
        ]
        (merged,) = average_predictions(members)
        assert merged.probabilities.min() >= 0
        assert merged.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            merged.probabilities, raw.mean(axis=0), atol=1e-12
        )


def test_average_rejects_count_mismatch():
    with pytest.raises(EnsembleError, match="example count"):
        average_predictions([[prediction(0.5)], [prediction(0.5), prediction(0.5)]])


def test_average_rejects_candidate_mismatch():
    other = prediction(0.5, candidate_ids=np.array([10, 30]))
    with pytest.raises(EnsembleError, match="candidates"):
        average_predictions([[prediction(0.5)], [other]])


def test_average_rejects_no_members():
    with pytest.raises(EnsembleError, match="no members"):
        average_predictions([])


# ------------------------------------------------------------------ scoring


def test_prediction_accuracy_counts_hits():
    predictions = [prediction(0.9), prediction(0.2), prediction(0.8)]
    assert prediction_accuracy(predictions, [10, 10, 10]) == pytest.approx(2 / 3)
    with pytest.raises(EnsembleError, match="length"):
        prediction_accuracy(predictions, [10])


def test_union_accuracy_with_itself_is_identity():
    predictions = [prediction(0.9), prediction(0.2)]
    answers = [10, 10]
    flags = correct_flags(predictions, answers)
    single = prediction_accuracy(predictions, answers)
    assert union_accuracy([flags, flags]) == single


def test_union_accuracy_disjoint_correct_sets_add():
    # First member right on examples 0-3, second on 4-6, out of 10.
    first = [prediction(0.9 if i < 4 else 0.1) for i in range(10)]
    second = [prediction(0.9 if 4 <= i < 7 else 0.1) for i in range(10)]
    answers = [10] * 10
    assert prediction_accuracy(first, answers) == pytest.approx(0.4)
    assert prediction_accuracy(second, answers) == pytest.approx(0.3)
    flags = [correct_flags(preds, answers) for preds in (first, second)]
    assert union_accuracy(flags) == pytest.approx(0.7)


def test_union_accuracy_rejects_unequal_members():
    with pytest.raises(EnsembleError, match="example count"):
        union_accuracy([[1, 0, 1], [1, 0]])
    for nothing in ([], [[], []]):
        with pytest.raises(EnsembleError, match="nothing to score"):
            union_accuracy(nothing)


# ---------------------------------------------------------------- selection


def test_greedy_keeps_helper_and_drops_spoiler():
    helper_case = [
        member("m1", [0.9, 0.9, 0.4, 0.9, 0.4]),   # 3/5 alone
        member("m2", [0.4, 0.6, 0.8, 0.45, 0.45]),  # 2/5 alone, complements m1
        member("m3", [0.1, 0.1, 0.9, 0.1, 0.45]),   # 1/5 alone, poisons the mean
    ]
    answers = [ANSWER] * 5
    selected, accuracy = greedy_select(helper_case, answers)
    assert [m.name for m in selected] == ["m1", "m2"]
    assert accuracy == pytest.approx(0.8)


def test_greedy_single_candidate_is_that_model():
    only = member("solo", [0.9, 0.1])
    selected, accuracy = greedy_select([only], [ANSWER, ANSWER])
    assert selected == [only]
    assert accuracy == pytest.approx(0.5)


def test_greedy_never_underperforms_best_single():
    rng = np.random.default_rng(7)
    for trial in range(25):
        members = []
        answers = [ANSWER] * 8
        for m in range(4):
            members.append(member(f"m{m}", rng.random(8).tolist()))
        selected, accuracy = greedy_select(members, answers)
        best_single = max(m.validation_accuracy for m in members)
        assert accuracy >= best_single
        assert selected[0].validation_accuracy == best_single


def test_greedy_orders_ties_by_name():
    twin_a = member("alpha", [0.9, 0.1])
    twin_b = member("beta", [0.9, 0.1])
    selected, _ = greedy_select([twin_b, twin_a], [ANSWER, ANSWER])
    assert selected[0].name == "alpha"


def test_greedy_rejects_empty():
    with pytest.raises(EnsembleError):
        greedy_select([], [])


# ------------------------------------------------------- per-example oracle
#
# The per-example loops that averaged, scored and selected predictions
# before they were stored as arrays.  The array code must give the same
# probabilities, flags, picks and errors.


def reference_average(member_predictions):
    if not member_predictions:
        raise EnsembleError("no members to average")
    lengths = {len(preds) for preds in member_predictions}
    if len(lengths) != 1:
        raise EnsembleError(f"members disagree on example count: {sorted(lengths)}")
    out = []
    for i, first in enumerate(member_predictions[0]):
        for preds in member_predictions[1:]:
            if not np.array_equal(preds[i].candidate_ids, first.candidate_ids):
                raise EnsembleError(f"members disagree on candidates for example {i}")
        probabilities = np.mean([preds[i].probabilities for preds in member_predictions], axis=0)
        out.append(Prediction(first.candidate_ids.copy(), probabilities,
                              int(np.argmax(probabilities))))
    return out


def reference_flags(predictions, answer_ids):
    if len(predictions) != len(answer_ids):
        raise EnsembleError("predictions and answers differ in length")
    return [int(p.predicted_id == a) for p, a in zip(predictions, answer_ids)]


def reference_greedy(members, answer_ids):
    """Names picked and their accuracy, for (name, accuracy, predictions) members."""
    def accuracy(group):
        averaged = reference_average([preds for _, _, preds in group])
        return hit_rate(reference_flags(averaged, answer_ids))

    ordered = sorted(members, key=lambda m: (-m[1], m[0]))
    selected = [ordered[0]]
    best = accuracy(selected)
    for member in ordered[1:]:
        trial = selected + [member]
        trial_accuracy = accuracy(trial)
        if trial_accuracy > best:
            selected, best = trial, trial_accuracy
    return [name for name, _, _ in selected], best


def outcome(function, *args):
    """The function's result, or the message of the EnsembleError it raised."""
    try:
        return function(*args)
    except EnsembleError as exc:
        return f"EnsembleError: {exc}"


@st.composite
def prediction_tables(draw):
    """Members' predictions over shared candidates, with small integer
    weights so that ties are common; at most one member disagrees on one
    or two rows' candidates, by one id or by a missing candidate."""
    n = draw(st.integers(0, 5))
    width = draw(st.integers(2, 5))
    members = draw(st.integers(1, 4))
    ids = [draw(st.lists(st.integers(1, 9), min_size=width, max_size=width, unique=True))
           for _ in range(n)]
    answers = [draw(st.integers(1, 9)) for _ in range(n)]
    table = []
    for _ in range(members):
        rows = []
        for row in ids:
            weights = np.array(draw(st.lists(st.integers(0, 3), min_size=width,
                                             max_size=width).filter(any)), dtype=float)
            rows.append(Prediction(np.array(row), weights / weights.sum(),
                                   int(np.argmax(weights))))
        table.append(rows)
    if members > 1 and n and draw(st.booleans()):
        rows = table[draw(st.integers(1, members - 1))]
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True)):
            changed = rows[i].candidate_ids.copy()
            if draw(st.booleans()):
                changed[draw(st.integers(0, width - 1))] = 10
                rows[i] = Prediction(changed, rows[i].probabilities, rows[i].predicted_index)
            else:
                kept = rows[i].probabilities[:-1] + rows[i].probabilities[-1] / (width - 1)
                rows[i] = Prediction(changed[:-1], kept, int(np.argmax(kept)))
    return table, answers


@settings(max_examples=300, deadline=None)
@given(prediction_tables())
def test_array_ensembles_match_the_per_example_loops(case):
    table, answers = case
    expected = outcome(reference_average, table)
    got = outcome(average_predictions, table)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert len(got) == len(expected)
        for row, want in zip(got, expected):
            assert row.candidate_ids.tolist() == want.candidate_ids.tolist()
            assert row.probabilities.tobytes() == want.probabilities.tobytes()
            assert row.predicted_index == want.predicted_index
        assert correct_flags(got, answers) == reference_flags(expected, answers)
    for preds in table:
        assert correct_flags(preds, answers) == reference_flags(preds, answers)
    if not answers:
        return
    named = [(f"m{j}", hit_rate(reference_flags(preds, answers)), preds)
             for j, preds in enumerate(table)]
    picked = outcome(greedy_select, [EnsembleMember(*m) for m in named], answers)
    if not isinstance(picked, str):
        picked = [m.name for m in picked[0]], picked[1]
    assert picked == outcome(reference_greedy, named, answers)


# --------------------------------------------------------------- spec files


def test_spec_file_round_trip(tmp_path):
    path = str(tmp_path / "ensemble.txt")
    write_ensemble_spec(path, ["a.ckpt", "b.ckpt"], 0.8125)
    members, accuracy = read_ensemble_spec(path)
    assert members == ["a.ckpt", "b.ckpt"]
    assert accuracy == pytest.approx(0.8125)


def test_spec_file_lines_split_as_str_splitlines_splits(tmp_path):
    path = tmp_path / "e.spec"
    path.write_bytes(b"# ensemble spec v1\na.ckpt\x0bb.ckpt\n")
    assert read_ensemble_spec(str(path))[0] == ["a.ckpt", "b.ckpt"]


def test_spec_file_rejects_foreign_text(tmp_path):
    path = tmp_path / "nonsense.txt"
    path.write_text("just some text\n", encoding="utf-8")
    with pytest.raises(EnsembleError, match="not an ensemble spec"):
        read_ensemble_spec(str(path))


def test_spec_file_requires_members(tmp_path):
    with pytest.raises(EnsembleError, match="empty"):
        write_ensemble_spec(str(tmp_path / "e.txt"), [], 0.5)
    path = tmp_path / "hollow.txt"
    path.write_text("# ensemble spec v1\n# validation_accuracy=0.5\n", encoding="utf-8")
    with pytest.raises(EnsembleError, match="no members"):
        read_ensemble_spec(str(path))


def test_spec_file_rejects_unparsable_accuracy(tmp_path):
    path = tmp_path / "garbled.txt"
    path.write_text("# ensemble spec v1\n# validation_accuracy=abc\na.ckpt\n",
                    encoding="utf-8")
    with pytest.raises(EnsembleError, match=r"garbled\.txt: bad validation_accuracy"):
        read_ensemble_spec(str(path))
