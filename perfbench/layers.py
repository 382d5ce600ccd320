"""Wrapping the package's public callables from outside, and the
per-layer metrics computed from the spans that the wrappers record.

Nothing in ``src/`` is edited.  A wrapped module-level function is
replaced under every name that refers to it in any loaded ``clozereader``
module (``cli`` and ``training`` import names directly), and a wrapped
method is replaced on its class.  ``uninstall`` restores every original.

With tracing off only the correctness observers are installed: the loss
value and the pre-clip gradient norm, one call each per training step.
"""

from __future__ import annotations

import gc
import os
import sys
import time

from spans import Recorder, SpanIndex, highest_reportable_percentile, median, tail_percentile

STEP = "training.step"
GRAPH_WALK = "bench.graph_walk"

# (module, attribute, span name); a span name of None is chosen per call.
TRACED = (
    ("corpus", "ingest_books", "corpus.ingest"),
    ("corpus", "tokenize_book", "corpus.tokenize"),
    ("tagger", "tag_book", "tagger.tag"),
    ("clozegen", "dedup_editions", "clozegen.dedup"),
    ("clozegen", "split_books", "clozegen.split"),
    ("clozegen", "generate_from_book", "clozegen.generate"),
    ("cbtio", "write_examples", "cbtio.write"),
    ("cbtio", "read_examples", "cbtio.read"),
    ("cbtio", "validate_file", "cbtio.validate"),
    ("vocab", "build_vocab", "vocab.build"),
    ("vocab", "encode_dataset", "vocab.encode"),
    ("training", "train", "training.train"),
    ("training", "evaluate", "training.evaluate"),
    ("training", "make_batches", "training.make_batches"),
    ("training", "save_checkpoint", "training.save_checkpoint"),
    ("training", "load_checkpoint", "training.load_checkpoint"),
    ("asreader", "Model.loss", "asreader.loss"),
    ("asreader", "Model.forward_scores", "asreader.forward_scores"),
    ("asreader", "Model.predict", "asreader.predict"),
    ("numerics.recurrent", "BiGru.run", None),
    ("numerics.tensor", "Tensor.backward", "tensor.backward"),
    ("numerics.optim", "clip_gradients", "optim.clip"),
    ("numerics.optim", "Adam.step", "optim.adam"),
    ("numerics.serialize", "write_tensor", "serialize.write_tensor"),
    ("numerics.serialize", "read_tensor", "serialize.read_tensor"),
)
OBSERVED = {("asreader", "Model.loss"), ("numerics.optim", "clip_gradients")}


class Observations:
    """Values the correctness checks read: every loss and gradient norm."""

    def __init__(self):
        self.losses: list[float] = []
        self.grad_norms: list[float] = []
        self.clipped: list[bool] = []


def _file_bytes(path) -> int:
    return os.path.getsize(path)


def pad_counts(batches) -> tuple[int, int]:
    padded = total = 0
    for batch in batches:
        for ids, lengths in ((batch.context, batch.context_lengths),
                             (batch.question, batch.question_lengths)):
            total += ids.size
            padded += ids.size - int(lengths.sum())
    return padded, total


def _graph_nodes(root) -> int:
    """Tape nodes reachable from the loss (recorded ops, not leaves)."""
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        for parent in node._parents:
            if id(parent) not in seen and parent._parents:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Instrumentation:
    """Installs wrappers around the package's public callables."""

    def __init__(self, package, recorder: Recorder | None, observations: Observations):
        self.package = package
        self.recorder = recorder
        self.obs = observations
        self._restore: list[tuple[object, str, object]] = []
        self._gc_start = None
        self._clip_default = sys.modules[f"{package}.numerics.optim"].DEFAULT_CLIP_THRESHOLD

    @property
    def tracing(self) -> bool:
        return self.recorder is not None

    # ------------------------------------------------------------ install

    def install(self) -> None:
        for module_name, attr, span_name in TRACED:
            if not self.tracing and (module_name, attr) not in OBSERVED:
                continue
            module = sys.modules[f"{self.package}.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._set(owner, meth, self._wrap(original, attr, span_name))
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(original, attr, span_name)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == self.package or mod_name.startswith(self.package + "."):
                        for name, value in list(vars(mod).items()):
                            if value is original:
                                self._set(mod, name, wrapper)
        if self.tracing:
            gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _set(self, owner, name, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # ------------------------------------------------------------ wrappers

    def _wrap(self, original, attr: str, span_name):
        before = getattr(self, "_before_" + attr.replace(".", "_"), None)
        after = getattr(self, "_after_" + attr.replace(".", "_"), None)
        rec = self.recorder

        if rec is None:
            def observed(*args, **kwargs):
                result = original(*args, **kwargs)
                after(args, kwargs, result, None)
                return result
            return observed

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            name = span_name or self._run_span_name(args)
            span = rec.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                rec.close(span)
            if after is not None:
                after(args, kwargs, result, span)
            return result

        return traced

    @staticmethod
    def _run_span_name(args) -> str:
        # BiGru.run: the first weight name says which encoder this is.
        encoder = args[0].layers[0][0].w.name.split(".")[0]
        return f"recurrent.{encoder}_run"

    def _before_Model_loss(self, args, kwargs) -> None:
        rec = self.recorder
        if rec.innermost("training.train") is not None and rec.innermost(STEP) is None:
            rec.open(STEP).attrs.update(gc_gen2=0, gc_pause=0.0)

    def _after_Model_loss(self, args, kwargs, result, span) -> None:
        self.obs.losses.append(float(result.data))

    def _before_Tensor_backward(self, args, kwargs) -> None:
        step = self.recorder.innermost(STEP)
        if step is not None and "nodes" not in step.attrs:
            with self.recorder.span(GRAPH_WALK):
                step.attrs["nodes"] = _graph_nodes(args[0])

    def _after_clip_gradients(self, args, kwargs, result, span) -> None:
        threshold = args[1] if len(args) > 1 else kwargs.get("threshold", self._clip_default)
        self.obs.grad_norms.append(float(result))
        self.obs.clipped.append(result > threshold)

    def _after_Adam_step(self, args, kwargs, result, span) -> None:
        step = self.recorder.innermost(STEP)
        if step is not None:
            self.recorder.close(step)

    def _after_tokenize_book(self, args, kwargs, result, span) -> None:
        span.attrs["tokens"] = sum(len(s) for s in result.sentences)

    def _after_generate_from_book(self, args, kwargs, result, span) -> None:
        report = result[1]
        span.attrs.update(examined=report.examined, emitted=report.emitted)

    def _after_write_examples(self, args, kwargs, result, span) -> None:
        span.attrs["bytes"] = _file_bytes(args[1] if len(args) > 1 else kwargs["path"])

    def _after_read_examples(self, args, kwargs, result, span) -> None:
        span.attrs["bytes"] = _file_bytes(args[0] if args else kwargs["path"])

    def _after_make_batches(self, args, kwargs, result, span) -> None:
        span.attrs["padded"], span.attrs["positions"] = pad_counts(result)

    def _after_save_checkpoint(self, args, kwargs, result, span) -> None:
        span.attrs["bytes"] = _file_bytes(args[1] if len(args) > 1 else kwargs["path"])

    # ------------------------------------------------------------ gc

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        if self._gc_start is None:
            return
        pause = time.perf_counter() - self._gc_start
        self._gc_start = None
        step = self.recorder.innermost(STEP)
        if step is not None:
            step.attrs["gc_pause"] += pause
            if info["generation"] == 2:
                step.attrs["gc_gen2"] += 1


# ------------------------------------------------------------------ metrics

MB = 1e6


def _ms(seconds: float) -> float:
    return seconds * 1e3


def per_layer_metrics(spans, obs: Observations) -> tuple[dict, dict]:
    """The per-layer figures, plus details that are not metrics (sample
    counts and the step-latency tail where it is reportable)."""
    idx = SpanIndex(spans)
    steps = idx.named(STEP)
    if not steps:
        raise ValueError("no training step was traced")
    n_steps = len(steps)

    def per(ancestor, name, self_only=False):
        """Median over ``ancestor`` spans of the time spent in ``name``."""
        return _ms(median(idx.per_ancestor(ancestor, name, self_only)))

    def gen(name):
        return per("bench.generate", name)

    def load(name):
        return per("bench.load", name)

    def step(name, self_only=False):
        return per(STEP, name, self_only)

    def mb_per_s(ancestor, name):
        """Bytes over time of the ``name`` calls inside ``ancestor`` spans."""
        calls = [d for top in idx.named(ancestor) for d in idx.descendants(top) if d.name == name]
        return sum(c.attrs["bytes"] for c in calls) / MB / sum(c.duration for c in calls)

    def per_call(name):
        return _ms(median(s.duration for s in idx.named(name)))

    def attr_total(name, key):
        return sum(s.attrs[key] for s in idx.named(name))

    def dur_total(name):
        return sum(s.duration for s in idx.named(name))

    # the graph walk is the benchmark's own work, not the step's
    step_ms = [
        _ms(s.duration - sum(d.duration for d in idx.descendants(s) if d.name == GRAPH_WALK))
        for s in steps
    ]
    saves = idx.named("training.save_checkpoint")

    metrics = {
        "corpus.ingest_ms": gen("corpus.ingest"),
        "corpus.tokenize_ms": gen("corpus.tokenize"),
        "corpus.tokens_per_s": attr_total("corpus.tokenize", "tokens") / dur_total("corpus.tokenize"),
        "tagger.tag_ms": gen("tagger.tag"),
        "clozegen.dedup_split_ms": gen("clozegen.dedup") + gen("clozegen.split"),
        "clozegen.generate_ms": gen("clozegen.generate"),
        "clozegen.emit_ratio": attr_total("clozegen.generate", "emitted")
        / attr_total("clozegen.generate", "examined"),
        "cbtio.write_ms": gen("cbtio.write"),
        "cbtio.write_mb_per_s": mb_per_s("bench.generate", "cbtio.write"),
        "cbtio.read_ms": load("cbtio.read"),
        "cbtio.read_mb_per_s": mb_per_s("bench.load", "cbtio.read"),
        "vocab.build_ms": load("vocab.build"),
        "vocab.encode_ms": load("vocab.encode"),
        "training.make_batches_ms": per_call("training.make_batches"),
        "training.pad_frac": attr_total("training.make_batches", "padded")
        / attr_total("training.make_batches", "positions"),
        "training.step_ms_p50": median(step_ms),
        "training.steps": n_steps,
        "asreader.forward_scores_ms": step("asreader.forward_scores", self_only=True),
        "recurrent.doc_fwd_ms": step("recurrent.doc_run"),
        "recurrent.q_fwd_ms": step("recurrent.q_run"),
        "asreader.loss_ms": step("asreader.loss", self_only=True),
        "tensor.backward_ms": step("tensor.backward"),
        "tensor.nodes_per_step": median(s.attrs["nodes"] for s in steps),
        "optim.clip_ms": step("optim.clip"),
        "optim.adam_ms": step("optim.adam"),
        "optim.clip_frac": sum(obs.clipped) / len(obs.clipped),
        "optim.grad_norm_p50": median(obs.grad_norms),
        "python.gc_gen2_per_step": sum(s.attrs["gc_gen2"] for s in steps) / n_steps,
        "python.gc_pause_ms_per_step": _ms(sum(s.attrs["gc_pause"] for s in steps)) / n_steps,
        "asreader.predict_ms_per_batch": per_call("asreader.predict"),
        "training.evaluate_ms": per("bench.heldout", "training.evaluate"),
        "training.save_checkpoint_ms": per_call("training.save_checkpoint"),
        "training.load_checkpoint_ms": per_call("training.load_checkpoint"),
        "serialize.checkpoint_mb": median(s.attrs["bytes"] for s in saves) / MB,
    }
    pct = highest_reportable_percentile(n_steps)
    details = {
        "step_ms_samples": n_steps,
        "step_ms_p90": tail_percentile(step_ms, 90),
        "step_ms_tail_percentile": pct,
        "step_ms_tail": tail_percentile(step_ms, pct) if pct else None,
        "graph_walk_ms_total": _ms(dur_total(GRAPH_WALK)),
        "spans": len(spans),
    }
    return metrics, details
