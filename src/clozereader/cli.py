"""Command-line operator surface.

Subcommands: generate, stats, train, evaluate, select-ensemble,
export-errors, union-accuracy.  Every subcommand is deterministic given
--seed.  Exit codes: 0 success, 1 validation / input error, 2 runtime
abort (diverged training).

Reports print as aligned key/value text; --tsv writes the same rows
tab-separated for machine consumption.  Predictions files carry one line
per example: ordinal id, predicted token, correct flag (1/0),
tab-separated.

Every output (--tsv, each subcommand's declared ``outputs``, the
export-errors key, generate's split files) is checked before the work:
none may name another output, an input, or a checkpoint that evaluate's
--ensemble spec lists, and a failed check exits 1 and writes nothing.
generate --out is a directory that generate creates, so it need only
have no file on its path, and a --tsv may go inside it.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from . import BLAS_THREAD_VARS, ClozereaderError, read_lines, write_lines

# One BLAS thread unless the operator set a count: results then do not depend
# on the thread count, and training and evaluation may fork a second process.
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (BLAS reads the pin when numpy loads)

from .asreader import Model, ModelConfig, Predictions  # noqa: E402
from .cbtio import read_examples, write_examples  # noqa: E402
from .clozegen import (  # noqa: E402
    SPLITS,
    ClozeExample,
    GenerationReport,
    SplitSpec,
    compute_stats,
    dedup_editions,
    generate_from_book,
    split_books,
)
from .corpus import ingest_books, read_wordlist, tokenize_book  # noqa: E402
from .ensemble import (  # noqa: E402
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
from .seeding import derive_seed  # noqa: E402
from .tagger import WordType, default_config, tag_book  # noqa: E402
from .training import (  # noqa: E402
    TrainConfig,
    TrainingDivergedError,
    evaluate as evaluate_model,
    load_checkpoint,
    most_frequent_candidate_accuracy,
    train as run_training,
)
from .vocab import (  # noqa: E402
    DEFAULT_ANON_COUNT, DEFAULT_CAP, EncodedCorpus, Vocabulary, VocabularyError, build_vocab,
    encode_dataset,
)

_WORD_TYPES = {"ne": WordType.NAMED_ENTITY, "cn": WordType.COMMON_NOUN}


class CliError(ClozereaderError):
    """Invalid arguments or inputs; maps to exit code 1."""


# ------------------------------------------------------------------ report


Report = list[tuple[str, object]]


def print_report(rows: Report, tsv_path: str | None) -> None:
    """Print the rows as aligned key/value text, each float as ``.6f``, and
    write them tab-separated to ``tsv_path`` when it is given."""
    rows = [(key, f"{value:.6f}" if isinstance(value, float) else value) for key, value in rows]
    width = max((len(key) for key, _ in rows), default=0) + 2
    for key, value in rows:
        print(f"{key:<{width}}{value}")
    if tsv_path:
        write_lines(tsv_path, (f"{key}\t{value}" for key, value in rows))


# ---------------------------------------------------------------- generate


def _parse_splits(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(f"--splits needs three comma-separated fractions, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise CliError(f"bad --splits value: {exc}") from exc


def _split_file(out: str, word_type: str, split: str) -> Path:
    return Path(out) / f"{word_type}_{split}.txt"


def cmd_generate(args) -> Report:
    spec = SplitSpec(*_parse_splits(args.splits), rng_seed=args.seed)
    blocklist = frozenset() if args.blocklist is None else read_wordlist(Path(args.blocklist))
    raw_books, errors = ingest_books(args.books)
    for error in errors:
        print(f"warning: skipped {error.path}: {error.reason}", file=sys.stderr)
    books = [tokenize_book(raw) for raw in raw_books]
    books, removed = dedup_editions(books, blocklist)
    for book_id, title in removed:
        print(f"warning: dropped duplicate edition {book_id} ({title})",
              file=sys.stderr)
    if not books:
        raise CliError("no books left after deduplication")
    splits = split_books(books, spec)
    target_type = _WORD_TYPES[args.type]
    tagger_config = default_config()

    rows: Report = [("word_type", args.type)]
    split_files: list[tuple[Path, list[ClozeExample]]] = []
    for split_name, split_books_list in splits.items():
        examples: list[ClozeExample] = []
        report = GenerationReport()
        for book in split_books_list:
            labels = tag_book(book, tagger_config)
            book_examples, book_report = generate_from_book(
                book, labels, target_type, rng_seed=args.seed, stride=args.stride,
            )
            examples.extend(book_examples)
            report.merge(book_report)
        path = _split_file(args.out, args.type, split_name)
        split_files.append((path, examples))
        stats = compute_stats(examples)
        split_rows = {"books": len(split_books_list), "file": str(path), **asdict(report),
                      "avg_tokens": stats.avg_tokens, "vocab_size": stats.vocab_size}
        rows += [(f"{split_name}.{key}", value) for key, value in split_rows.items()]
    # Made only once every split is generated, so a run that fails while generating
    # leaves no directory and no split file.
    Path(args.out).mkdir(parents=True, exist_ok=True)
    for path, examples in split_files:
        write_examples(examples, path)
    return rows


# ------------------------------------------------------------------- stats


def cmd_stats(args) -> Report:
    stats = compute_stats(read_examples(args.data))
    return [("dataset", Path(args.data).name), *asdict(stats).items()]


# ------------------------------------------------------------------- train


_MODEL_KEYS = {f.name for f in fields(ModelConfig)}
_TRAIN_KEYS = {f.name for f in fields(TrainConfig)} - {"rng_seed"}
_VOCAB_KEYS = {"vocab_cap", "anon_count"}


def _coerce(key: str, raw: str):
    if key == "query_init":
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes"):
            return True
        if lowered in ("0", "false", "no"):
            return False
        raise ValueError(f"config key {key}: expected a boolean, got {raw!r}")
    if key == "learning_rate":
        return float(raw)
    return int(raw)


def parse_config_file(path: str | None) -> dict:
    """Line-oriented key=value settings; # starts a comment.  A bad line, a
    bad value or a repeated key raises ``CliError`` naming the file and line."""
    if path is None:
        return {}
    settings: dict = {}
    first_lines: dict[str, int] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key not in _MODEL_KEYS | _TRAIN_KEYS | _VOCAB_KEYS:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_lines:
            raise CliError(f"{path}:{lineno}: duplicate config key {key!r} "
                           f"(first set on line {first_lines[key]})")
        first_lines[key] = lineno
        try:
            settings[key] = value = _coerce(key, raw.strip())
            # The class that owns the key checks the value, so its rule is written once.
            if key in _MODEL_KEYS:
                ModelConfig(**{key: value})
            elif key in _TRAIN_KEYS:
                TrainConfig(**{key: value})
            else:
                Vocabulary([], **{key.removeprefix("vocab_"): value})
        except (ValueError, VocabularyError) as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from exc
    return settings


def _read_questions(path: str, what: str = "examples") -> list[ClozeExample]:
    """A question file's examples; a file that holds none exits 1."""
    examples = read_examples(path)
    if not examples:
        raise CliError(f"{path}: no {what}")
    return examples


def cmd_train(args) -> Report:
    settings = parse_config_file(args.config)
    train_config = TrainConfig(
        rng_seed=args.seed,
        **{k: v for k, v in settings.items() if k in _TRAIN_KEYS},
    )
    model_config = ModelConfig(**{k: v for k, v in settings.items() if k in _MODEL_KEYS})
    train_raw = _read_questions(args.train, "training examples")
    valid_raw = _read_questions(args.valid, "validation examples")

    if args.resume:
        model, _ = load_checkpoint(args.resume)
        vocabulary = model.vocabulary
        saved = {k: getattr(model.config, k) for k in _MODEL_KEYS}
        saved.update(vocab_cap=vocabulary.cap, anon_count=vocabulary.anon_count)
        for key in sorted(saved.keys() & settings.keys()):
            if settings[key] != saved[key]:
                raise CliError(f"config key {key} = {settings[key]!r} conflicts "
                               f"with {saved[key]!r} in {args.resume}")
    else:
        vocabulary = build_vocab(
            train_raw,
            cap=settings.get("vocab_cap", DEFAULT_CAP),
            anon_count=settings.get("anon_count", DEFAULT_ANON_COUNT),
        )
        model = Model(vocabulary, model_config, rng_seed=args.seed)

    train_examples = encode_dataset(train_raw, vocabulary, derive_seed(args.seed, "train"))
    valid_examples = encode_dataset(valid_raw, vocabulary, derive_seed(args.seed, "valid"))
    del train_raw, valid_raw  # nothing reads the raw examples once they are encoded

    result = run_training(model, train_examples, valid_examples, train_config,
                          checkpoint_path=args.out, log_path=args.log)
    for line in result.log_lines:
        print(line)
    return [
        ("best_validation_accuracy", result.best_accuracy),
        ("best_step", result.best_step),
        ("steps", result.steps),
        ("epochs", result.epochs),
        ("checkpoint", args.out),
    ]


# ---------------------------------------------------------------- evaluate


def _answer_positions(examples: list[ClozeExample]) -> list[int]:
    return [ex.candidates.index(ex.answer) for ex in examples]


def _predict_with_checkpoint(
    path: str, raw: list[ClozeExample], seed: int
) -> tuple[Predictions, EncodedCorpus]:
    """Positional predictions plus the examples as this model encodes them."""
    model, _ = load_checkpoint(path)
    encoded = encode_dataset(raw, model.vocabulary, derive_seed(seed, "eval"))
    probabilities = evaluate_model(model, encoded).predictions.probabilities
    # Candidate positions as ids: models with different vocabularies line up.
    positions = np.broadcast_to(np.arange(probabilities.shape[1]), probabilities.shape)
    return Predictions(positions, probabilities), encoded


def cmd_evaluate(args) -> Report:
    raw = _read_questions(args.data)
    # A model is scored as the ensemble of itself.
    paths = [args.model] if args.model else read_ensemble_spec(args.ensemble)[0]
    runs = [_predict_with_checkpoint(path, raw, args.seed) for path in paths]
    predictions = average_predictions([predictions for predictions, _ in runs])
    flags = correct_flags(predictions, _answer_positions(raw))

    accuracy = hit_rate(flags)
    rows: Report = [
        ("dataset", Path(args.data).name),
        ("n_examples", len(raw)),
        ("accuracy", accuracy),
    ]
    if args.type:  # ``--type`` labels every example
        rows.append((f"accuracy[{args.type}]", accuracy))
    rows.append(("baseline_random", sum(1 / len(ex.candidates) for ex in raw) / len(raw)))
    # Counting ids counts surface forms: encoding maps distinct forms to
    # distinct ids within an example.
    baseline = most_frequent_candidate_accuracy(runs[0][1])
    rows.append(("baseline_frequency", baseline))

    if args.predictions_out:
        picks = predictions.predicted_ids.tolist()  # candidate positions
        write_lines(args.predictions_out, (
            f"{i}\t{ex.candidates[pick]}\t{flag}"
            for i, (ex, pick, flag) in enumerate(zip(raw, picks, flags), start=1)))
    return rows


# ---------------------------------------------------------- select-ensemble


def cmd_select_ensemble(args) -> Report:
    raw = _read_questions(args.valid)
    answers = _answer_positions(raw)
    members = []
    for path in args.models:
        predictions, _ = _predict_with_checkpoint(path, raw, args.seed)
        accuracy = prediction_accuracy(predictions, answers)
        members.append(EnsembleMember(path, accuracy, predictions))
    # prediction_accuracy compares ids; positional ids make answer ids the
    # candidate positions.
    selected, ensemble_accuracy = greedy_select(members, answers)
    write_ensemble_spec(args.out, [m.name for m in selected], ensemble_accuracy)
    rows: Report = [
        ("offered", len(members)),
        ("selected", len(selected)),
        ("ensemble_accuracy", ensemble_accuracy),
        ("spec", args.out),
    ]
    for i, member in enumerate(selected):
        rows.append((f"member{i}", f"{member.name} ({member.validation_accuracy:.6f})"))
    return rows


# ------------------------------------------------------------ predictions IO


def read_predictions_file(path: str) -> list[tuple[str, int]]:
    """(predicted token, correct flag) per example, in id order; the ids
    must run 1..n."""
    out: dict[int, tuple[str, int]] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise CliError(f"{path}:{lineno}: expected 3 tab-separated fields")
        try:
            example_id = int(parts[0])
            flag = int(parts[2])
        except ValueError as exc:
            raise CliError(f"{path}:{lineno}: {exc}") from exc
        if flag not in (0, 1):
            raise CliError(f"{path}:{lineno}: correct flag must be 0 or 1")
        if example_id in out:
            raise CliError(f"{path}:{lineno}: duplicate example id {example_id}")
        out[example_id] = (parts[1], flag)
    if not out:
        raise CliError(f"{path}: no predictions")
    if set(out) != set(range(1, len(out) + 1)):
        raise CliError(f"{path}: example ids are not 1..{len(out)}")
    return [out[i] for i in range(1, len(out) + 1)]


# ------------------------------------------------------------- export-errors


def _key_path(study_path: Path) -> Path:
    return study_path.with_suffix(study_path.suffix + ".key")


def cmd_export_errors(args) -> Report:
    if args.n < 0:
        raise CliError(f"--n must be at least 0, got {args.n}")
    predictions = read_predictions_file(args.predictions)
    raw = read_examples(args.data)
    if len(predictions) != len(raw):
        raise CliError("predictions file does not align with the dataset")
    wrong_ids = [i for i, (_, flag) in enumerate(predictions, start=1) if flag == 0]
    if len(wrong_ids) < args.n:
        print(
            f"warning: only {len(wrong_ids)} incorrect examples available, "
            f"exporting all of them",
            file=sys.stderr,
        )
        chosen = wrong_ids
    else:
        chosen = sorted(random.Random(args.seed).sample(wrong_ids, args.n))
    study_path = Path(args.out)
    key_path = _key_path(study_path)
    # The study file blanks the answer field; the key file restores it.
    withheld = [replace(raw[i - 1], answer="") for i in chosen]
    write_examples(withheld, study_path)
    write_lines(key_path, (f"{i}\t{raw[i - 1].answer}" for i in chosen))
    return [
        ("exported", len(chosen)),
        ("study_file", str(study_path)),
        ("answer_key", str(key_path)),
    ]


# ------------------------------------------------------------ union-accuracy


def cmd_union_accuracy(args) -> Report:
    a = read_predictions_file(args.predictions_a)
    b = read_predictions_file(args.predictions_b)
    if len(a) != len(b):
        raise CliError("prediction files cover different example ids")
    if args.data and len(a) != len(read_examples(args.data)):
        raise CliError("prediction files do not align with the dataset")
    accuracy = union_accuracy([[flag for _, flag in rows] for rows in (a, b)])
    return [("union_accuracy", accuracy)]


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clozereader",
        description="Cloze dataset generation and pointer-reader training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build cloze datasets from books")
    p.add_argument("--books", required=True, help="directory of .txt books")
    p.add_argument("--type", required=True, choices=_WORD_TYPES)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--splits", default="0.8,0.1,0.1")
    p.add_argument("--blocklist", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate, outputs=(), inputs=("blocklist",))

    p = sub.add_parser("stats", help="summarize a dataset file")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_stats, outputs=(), inputs=("data",))

    p = sub.add_parser("train", help="train a reader")
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--config", default=None, help="key=value lines")
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--log", default=None, help="write training log here too")
    p.set_defaults(func=cmd_train, outputs=("out", "log"),
                   inputs=("train", "valid", "config", "resume"))

    p = sub.add_parser("evaluate", help="score a model or ensemble")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", default=None, help="checkpoint path")
    group.add_argument("--ensemble", default=None, help="ensemble spec path")
    p.add_argument("--data", required=True)
    p.add_argument("--type", choices=_WORD_TYPES, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--predictions-out", default=None)
    p.set_defaults(func=cmd_evaluate, outputs=("predictions_out",),
                   inputs=("model", "ensemble", "data"))

    p = sub.add_parser("select-ensemble", help="greedy ensemble selection")
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="ensemble spec path")
    p.set_defaults(func=cmd_select_ensemble, outputs=("out",), inputs=("models", "valid"))

    p = sub.add_parser("export-errors", help="sample wrong answers for review")
    p.add_argument("--predictions", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--out", required=True,
        help="study file path: for human review, not a question file, since its "
             "answer field is blank; the answers go to OUT.key",
    )
    p.set_defaults(func=cmd_export_errors, outputs=("out",), inputs=("predictions", "data"))

    p = sub.add_parser("union-accuracy", help="either-source-correct rate")
    p.add_argument("--predictions-a", required=True)
    p.add_argument("--predictions-b", required=True)
    p.add_argument("--data", default=None)
    p.set_defaults(func=cmd_union_accuracy, outputs=(),
                   inputs=("predictions_a", "predictions_b", "data"))

    for p in sub.choices.values():
        p.add_argument("--tsv", default=None)
    return parser


def check_outputs(args) -> None:
    """Reject, before any work, an output path that could not be written:
    its parent must be a directory, or the --out directory that generate
    creates and whose nearest existing ancestor must be a directory; the
    path itself, if it exists, must be a regular file, and no other output,
    input or checkpoint that evaluate's --ensemble spec lists.
    The one output that may replace an input is train's --out, over the
    --resume checkpoint it continues from."""
    made = Path(args.out).resolve() if args.command == "generate" else None
    existing = made and next(p for p in (made, *made.parents) if p.exists())
    if existing and not existing.is_dir():
        raise CliError(f"{args.out}: {existing} is not a directory")
    paths = [Path(p) for p in (getattr(args, name) for name in (*args.outputs, "tsv")) if p]
    if args.command == "export-errors":
        paths.append(_key_path(Path(args.out)))
    if made:
        paths += [_split_file(args.out, args.type, split) for split in SPLITS]
    read = {}
    for name in args.inputs:
        value = getattr(args, name) or []
        for p in value if isinstance(value, list) else [value]:
            read[Path(p).resolve()] = name
    written = set()
    for path in paths:
        if not path.parent.is_dir() and path.parent.resolve() != made:
            raise CliError(f"{path}: {path.parent} is not a directory")
        if path.exists() and not path.is_file():
            kind = "a directory" if path.is_dir() else "not a regular file"
            raise CliError(f"{path}: is {kind}")
        if path.resolve() in written:
            raise CliError(f"{path}: is also another output of this command")
        source = read.get(path.resolve())
        if source and not (source == "resume" and path == Path(args.out)):
            raise CliError(f"{path}: is also the --{source.replace('_', '-')} input "
                           f"of this command")
        written.add(path.resolve())
    if args.command == "evaluate" and args.ensemble:
        listed = {Path(p).resolve() for p in read_ensemble_spec(args.ensemble)[0]}
        for path in paths:
            if path.resolve() in listed:
                raise CliError(f"{path}: is also a checkpoint that {args.ensemble} lists")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_outputs(args)
        print_report(args.func(args), args.tsv)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ClozereaderError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
