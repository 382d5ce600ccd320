"""Workload definitions and the procedure that one benchmark run follows.

Every run drives the package through its public entry points only:
``cli.main(["generate", ...])``, ``cbtio``/``vocab`` loading,
``training.train``, ``training.evaluate`` and the checkpoint functions.
Inputs are fixture books written by ``synthdata`` from the run's seed, so
one seed always gives the same books, examples and initial weights.

A run repeats rounds until its time budget is spent.  A round is: set up
(books -> ``generate`` -> load -> fresh model); ``training.train`` (one
epoch, end-of-epoch evaluation, checkpoint save); set up again, this time
restoring the model with ``load_checkpoint``; ``training.evaluate`` on the
held-out split.  The machine's speed drifts over seconds, so samples of
each figure are spread through the run rather than bunched at its start.
A throughput is the work summed over the run divided by the time summed
over its calls; ``setup_s`` is the median set-up.  Workloads differ only in their sizes: the data workload has a
large library and a token model tail, the train workloads a small library
and the training that matters.
"""

from __future__ import annotations

import gc
import hashlib
import io
import math
import shutil
import time
from collections import defaultdict
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from layers import pad_counts
from spans import Ledger, median

SPLITS = ("train", "valid", "test")
BATCH_SIZE = 32
VOCAB_CAP = 200000  # the `train` subcommand's defaults
ANON_COUNT = 1000
PROB_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    n_books: int
    n_paragraphs: int
    splits: str
    embedding_dim: int
    hidden_units: int
    recurrent_layers: int
    n_train: int  # the first n examples of each split are used
    n_valid: int
    n_test: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="data-ne",
            n_books=16, n_paragraphs=160, splits="0.8,0.1,0.1",
            embedding_dim=32, hidden_units=32, recurrent_layers=1,
            n_train=128, n_valid=32, n_test=256,
        ),
        Workload(
            name="train-small",
            n_books=10, n_paragraphs=80, splits="0.6,0.2,0.2",
            embedding_dim=32, hidden_units=32, recurrent_layers=1,
            n_train=384, n_valid=128, n_test=320,
        ),
        Workload(
            name="train-paper",
            n_books=10, n_paragraphs=80, splits="0.6,0.2,0.2",
            embedding_dim=128, hidden_units=384, recurrent_layers=2,
            n_train=64, n_valid=8, n_test=64,
        ),
    )
}


@dataclass
class Data:
    """What one set-up leaves for the training rounds.  Raw and encoded
    splits stay alive together, as in the ``train`` subcommand."""

    emitted: dict
    raw: dict
    vocabulary: object
    encoded: dict
    model: object

    def subset(self, split: str, n: int) -> list:
        examples = self.encoded[split]
        if len(examples) < n:
            raise ValueError(
                f"{split} split has {len(examples)} examples, the workload needs {n}"
            )
        return examples[:n]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One workload run: set-ups, measured rounds, samples and checks."""

    def __init__(self, package, workload: Workload, seed: int, seconds: float,
                 work_dir: Path, recorder, observations):
        self.pkg = package
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work_dir
        self.rec = recorder
        self.obs = observations
        self.ledger = Ledger()
        self.setup_times: list[float] = []
        self.rates: dict[str, list[tuple[int, float]]] = defaultdict(list)  # (work, seconds)
        self.hashes: dict | None = None
        self.log_lines: list[str] | None = None
        self.heldout_accuracy: list[float] = []
        self.properties: dict = {}
        self.rounds = 0
        self.data: Data | None = None  # the last set-up

    def rate(self, name: str, work: int, seconds: float) -> None:
        self.rates[name].append((work, seconds))

    def span(self, name: str):
        return self.rec.span(name) if self.rec is not None else nullcontext()

    def model_config(self):
        return self.pkg.asreader.ModelConfig(
            embedding_dim=self.w.embedding_dim,
            hidden_units=self.w.hidden_units,
            recurrent_layers=self.w.recurrent_layers,
        )

    # ------------------------------------------------------------ phases

    def execute(self) -> None:
        start = time.perf_counter()
        last = 0.0
        while self.rounds == 0 or time.perf_counter() - start + last <= self.seconds:
            began = time.perf_counter()
            data = None  # release the previous set-up before the next one
            data = self.setup()
            checkpoint = self.train(data)
            data = None
            data = self.setup(restore=checkpoint)
            self.heldout(data)
            last = time.perf_counter() - began
            self.rounds += 1
        self.data = data

    def setup(self, restore: Path | None = None) -> Data:
        """Books -> ``generate`` -> load -> model.  The model is fresh, or
        restored from a checkpoint trained on the same seed's data."""
        pkg, w = self.pkg, self.w
        root = self.work / "setup"
        if root.exists():
            shutil.rmtree(root)
        books, out, tsv = root / "books", root / "data", root / "generate.tsv"
        began = time.perf_counter()
        with self.span("bench.setup"):
            pkg.synthdata.write_fixture_library(
                books, n_books=w.n_books, rng_seed=self.seed, n_paragraphs=w.n_paragraphs
            )
            self.ledger.plan("books", w.n_books)
            argv = ["generate", "--books", str(books), "--type", "ne", "--out", str(out),
                    "--seed", str(self.seed), "--splits", w.splits, "--tsv", str(tsv)]
            with self.span("bench.generate"), redirect_stdout(io.StringIO()):
                t = time.perf_counter()
                code = pkg.cli.main(argv)
                gen_wall = time.perf_counter() - t
            if code != 0:
                raise RuntimeError(f"generate exited with code {code}")
            report = dict(line.split("\t", 1) for line in tsv.read_text("utf-8").splitlines())
            emitted = {s: int(report[f"{s}.emitted"]) for s in SPLITS}
            self.ledger.complete("books", sum(int(report[f"{s}.books"]) for s in SPLITS))
            self.rate("gen_examples_per_s", sum(emitted.values()), gen_wall)
            checking = self.check_data(out, emitted)

            with self.span("bench.load"):
                t = time.perf_counter()
                raw = {s: pkg.cbtio.read_examples(out / f"ne_{s}.txt") for s in SPLITS}
                vocabulary = pkg.vocab.build_vocab(raw["train"], cap=VOCAB_CAP,
                                                   anon_count=ANON_COUNT)
                encoded = {
                    s: pkg.vocab.encode_dataset(raw[s], vocabulary,
                                                pkg.seeding.derive_seed(self.seed, s))
                    for s in SPLITS
                }
                load_wall = time.perf_counter() - t
            self.rate("load_examples_per_s", sum(len(r) for r in raw.values()), load_wall)
            if restore is None:
                model = pkg.asreader.Model(vocabulary, self.model_config(), rng_seed=self.seed)
            else:
                model, _ = pkg.training.load_checkpoint(str(restore))
        self.setup_times.append(time.perf_counter() - began - checking)
        if model.vocabulary.words != vocabulary.words:
            self.ledger.problem("the checkpoint's vocabulary differs from the data's")
        return Data(emitted, raw, vocabulary, encoded, model)

    def train(self, data: Data) -> Path:
        """One epoch with its end-of-epoch evaluation and checkpoint save."""
        pkg, w = self.pkg, self.w
        train_set = data.subset("train", w.n_train)
        valid_set = data.subset("valid", w.n_valid)
        config = pkg.training.TrainConfig(batch_size=BATCH_SIZE, max_epochs=1,
                                          rng_seed=self.seed)
        checkpoint = self.work / "model.ckpt"
        planned = math.ceil(len(train_set) / BATCH_SIZE)
        self.ledger.plan("steps", planned)
        seen = len(self.obs.losses), len(self.obs.grad_norms)
        if "live_objects_at_train_start" not in self.properties:
            self.properties["live_objects_at_train_start"] = len(gc.get_objects())

        with self.span("bench.train"):
            t = time.perf_counter()
            result = pkg.training.train(data.model, train_set, valid_set, config,
                                        checkpoint_path=str(checkpoint))
            wall = time.perf_counter() - t
        self.rate("train_examples_per_s", len(train_set) * result.epochs, wall)
        self.check_steps(result, planned, seen)
        return checkpoint

    def heldout(self, data: Data) -> None:
        """Evaluate the restored model on the test split."""
        test_set = data.subset("test", self.w.n_test)
        self.ledger.plan("eval_examples", len(test_set))
        with self.span("bench.heldout"):
            t = time.perf_counter()
            evaluation = self.pkg.training.evaluate(data.model, test_set, BATCH_SIZE)
            wall = time.perf_counter() - t
        self.rate("eval_examples_per_s", len(test_set), wall)
        self.check_evaluation(evaluation, test_set)

    # ------------------------------------------------------------ checks

    def check_data(self, out_dir: Path, emitted: dict) -> float:
        """First set-up: every split validates, reads back as many examples
        as ``generate`` reported, and rewrites byte-identically.  Later
        set-ups of the same seed must generate identical files.  Splits are
        checked one at a time before any is loaded, so that what a check
        holds never adds to the load's peak memory.  Returns the seconds
        spent, which are not set-up time."""
        began = time.perf_counter()
        with self.span("bench.check"):
            paths = {s: out_dir / f"ne_{s}.txt" for s in SPLITS}
            hashes = {s: _sha256(p) for s, p in paths.items()}
            if self.hashes is None:
                self.hashes = hashes
                for s, path in paths.items():
                    self.round_trip(path, emitted[s], hashes[s])
            elif hashes != self.hashes:
                self.ledger.problem("generate wrote different files for the same seed")
        return time.perf_counter() - began

    def round_trip(self, path: Path, emitted: int, digest: str) -> None:
        cbtio = self.pkg.cbtio
        self.ledger.plan("examples_round_tripped", emitted)
        problems = cbtio.validate_file(path)
        if problems:
            self.ledger.problem(f"{path.name}: {len(problems)} violations, first: {problems[0]}")
            return
        examples = cbtio.read_examples(path)
        if len(examples) != emitted:
            self.ledger.problem(f"{path.name}: read {len(examples)} examples, "
                                f"generate emitted {emitted}")
            return
        copy = path.parent.parent / "round_trip" / path.name
        copy.parent.mkdir(exist_ok=True)
        cbtio.write_examples(examples, copy)
        del examples
        if _sha256(copy) != digest:
            self.ledger.problem(f"{path.name}: rewriting the read examples changed the file")
            return
        copy.unlink()
        self.ledger.complete("examples_round_tripped", emitted)

    def check_steps(self, result, planned: int, seen: tuple[int, int]) -> None:
        losses = self.obs.losses[seen[0]:]
        norms = self.obs.grad_norms[seen[1]:]
        if not len(losses) == len(norms) == result.steps:
            self.ledger.problem(
                f"{result.steps} steps but {len(losses)} losses and {len(norms)} gradient norms"
            )
        finite = sum(math.isfinite(a) and math.isfinite(b) for a, b in zip(losses, norms))
        if finite < planned:
            self.ledger.problem(f"{planned - finite} of {planned} steps had a non-finite "
                                "loss or gradient norm, or did not run")
        self.ledger.complete("steps", min(finite, planned))
        log = [line.rsplit("\t", 1)[0] for line in result.log_lines]  # drop wall seconds
        if self.log_lines is None:
            self.log_lines = log
        elif log != self.log_lines:
            self.ledger.problem("the training log differs between rounds of the same seed")

    def check_evaluation(self, evaluation, examples) -> None:
        predictions = evaluation.predictions
        correct = sum(p.predicted_id == ex.answer_id for p, ex in zip(predictions, examples))
        if len(predictions) != len(examples) or correct / len(examples) != evaluation.accuracy:
            self.ledger.problem(
                f"reported accuracy {evaluation.accuracy!r} does not match the predictions"
            )
            return
        normalized = sum(abs(float(p.probabilities.sum()) - 1.0) <= PROB_TOLERANCE
                         for p in predictions)
        if normalized < len(examples):
            self.ledger.problem(f"{len(examples) - normalized} predictions' candidate "
                                f"probabilities do not sum to 1 within {PROB_TOLERANCE}")
        self.ledger.complete("eval_examples", normalized)
        self.heldout_accuracy.append(evaluation.accuracy)

    # ------------------------------------------------------------ report

    def end_to_end(self, peak_rss_mb: float) -> dict:
        metrics = {"setup_s": median(self.setup_times)} if self.setup_times else {}
        for name, calls in self.rates.items():
            metrics[name] = sum(w for w, _ in calls) / sum(s for _, s in calls)
        metrics["peak_rss_mb"] = peak_rss_mb
        return metrics

    def describe(self) -> dict:
        """Input properties of the last set-up (call with tracing off)."""
        pkg, data = self.pkg, self.data
        train_set = data.subset("train", self.w.n_train)
        lengths = [len(ex.context_ids) for ex in train_set]
        batches = pkg.training.make_batches(
            train_set,
            pkg.training.TrainConfig(batch_size=BATCH_SIZE, rng_seed=self.seed),
            pkg.seeding.derive_seed(self.seed, "epoch", 0),
        )
        padded, positions = pad_counts(batches)
        return {
            **self.properties,
            "books": self.w.n_books,
            "examples_generated": dict(data.emitted),
            "examples_used": {"train": self.w.n_train, "valid": self.w.n_valid,
                              "test": self.w.n_test},
            "mean_context_tokens": sum(lengths) / len(lengths),
            "max_context_tokens": max(lengths),
            "pad_frac_at_batch_32": padded / positions,
            "vocabulary_size": data.vocabulary.size,
            "parameters": sum(p.data.size for p in data.model.parameters()),
            "rounds": self.rounds,
            "samples": {"setup_s": self.setup_times,
                        **{name: [w / s for w, s in calls] for name, calls in self.rates.items()}},
        }
