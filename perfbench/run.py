"""clozereader benchmark: one workload run per process.

One run, printing its metrics and, as the last line, a JSON summary::

    python3 perfbench/run.py --workload train-small --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` wraps the package's public callables, records spans and
prints the per-layer metrics instead.  The metrics printed, with their
units, are the ones ``BENCHMARK.json`` lists.  Every workload it lists,
untraced then traced, each in a fresh process, with the tracing overhead::

    python3 perfbench/run.py --report --seed 1

The package is imported from ``src/`` next to this directory.  Details of
each run (environment, workload, input properties, training log, all
figures) go to ``.perfbench_out/``; a traced run also writes its spans
there.  Exit status is 0 when every correctness check passed, 1 when one
failed or the run raised, and 2 for a usage error.
"""

from __future__ import annotations

import os

# BLAS reads these when numpy loads, so they are pinned before any import
# that could load it, as the test suite does.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from layers import Instrumentation, Observations, per_layer_metrics  # noqa: E402
from spans import Recorder  # noqa: E402
from workloads import WORKLOADS, Run  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"
PACKAGE = "clozereader"
MODULES = ("asreader", "cbtio", "cli", "clozegen", "corpus", "seeding", "synthdata",
           "tagger", "training", "vocab", "numerics.optim", "numerics.recurrent",
           "numerics.serialize", "numerics.tensor")



def load_spec() -> dict:
    return json.loads(SPEC.read_text("utf-8"))


def units(spec: dict, kind: str) -> dict:
    """Metric name -> unit, for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in spec[kind]}


def load_package() -> SimpleNamespace:
    """Import the package from this checkout's ``src/`` and nowhere else."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / PACKAGE} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != SRC / PACKAGE:
        raise SystemExit(f"error: imported {package.__file__}, expected {SRC / PACKAGE}")
    namespace = SimpleNamespace()
    for name in MODULES:
        module = importlib.import_module(f"{PACKAGE}.{name}")
        setattr(namespace, name.split(".")[-1], module)
    return namespace


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (AttributeError, KeyError, TypeError):
        blas = {"name": "unknown", "version": None}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "pid": os.getpid(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def result_stem(workload: str, seed: int, trace: int) -> str:
    return f"{workload}-seed{seed}-trace{trace}"


def run_once(workload_name: str, seed: int, seconds: int, trace: int) -> int:
    pkg = load_package()
    listed = units(load_spec(), "per_layer" if trace else "end_to_end")
    workload = WORKLOADS[workload_name]
    stem = result_stem(workload_name, seed, trace)
    recorder = Recorder(run_id=f"{stem}-pid{os.getpid()}") if trace else None
    observations = Observations()
    work_dir = WORK / f"{stem}-pid{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    run = Run(pkg, workload, seed, seconds, work_dir, recorder, observations)
    instrumentation = Instrumentation(PACKAGE, recorder, observations)
    instrumentation.install()
    error = None
    try:
        run.execute()
    except Exception as exc:  # the run's boundary: report it as failed ops
        error = "".join(traceback.format_exception(exc))
        run.ledger.problem(f"run ended by {type(exc).__name__}: {exc}")
    finally:
        instrumentation.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    end_to_end = run.end_to_end(peak_rss_mb())
    per_layer, details = {}, {}
    properties = {}
    if error is None:
        properties = run.describe()
        if trace:
            per_layer, details = per_layer_metrics(recorder.spans, observations)
    ledger = run.ledger
    measured = per_layer if trace else end_to_end
    chosen = {name: measured[name] for name in listed if name in measured}
    if error is None and len(chosen) < len(listed):
        ledger.problem(f"not measured: {sorted(set(listed) - set(chosen))}")
    detail = {
        "workload": asdict(workload),
        "trace": trace,
        "seconds": seconds,
        "environment": environment(seed),
        "properties": properties,
        "training_log": run.log_lines,
        "heldout_accuracy": run.heldout_accuracy,
        "ops": ledger.summary(),
        "ops_attempted": ledger.total_attempted,
        "ops_failed": ledger.total_failed,
        "ops_failed_frac": ledger.failed_frac,
        "problems": ledger.problems,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "per_layer_details": details,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n", "utf-8")
    if recorder is not None:
        recorder.write_jsonl(OUT / f"{stem}.spans.jsonl")

    if error is not None:
        print(error, file=sys.stderr, end="")
    for problem in ledger.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# workload {json.dumps(detail['workload'])}")
    print(f"# environment {json.dumps(detail['environment'])}")
    print(f"# properties {json.dumps(properties)}")
    for line in run.log_lines or []:
        print(f"# training log {line}")
    print(f"# ops_failed_frac {ledger.failed_frac:.6g} "
          f"({ledger.total_failed} of {ledger.total_attempted} attempted: "
          f"{json.dumps(ledger.summary())})")
    for key, value in details.items():
        print(f"# {key} {value}")
    for name, value in chosen.items():
        print(f"{name:<32}{value:>16.6g} {listed[name]}")
    summary = {
        "correct": ledger.correct,
        "attempted": max(ledger.total_attempted, 1),
        "failed": ledger.total_failed if ledger.total_attempted else 1,
        "metrics": {name: {"value": value, "unit": listed[name]} for name, value in chosen.items()},
    }
    print(json.dumps(summary))
    return 0 if ledger.correct else 1


def report(seed: int, seconds: int) -> int:
    """Every listed workload untraced then traced, each run in a fresh process."""
    status = 0
    spec = load_spec()
    for workload in spec["workloads"]:
        name = workload["name"]
        results = {}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                status = 1
                sys.stderr.write(proc.stderr)
            path = OUT / f"{result_stem(name, seed, trace)}.json"
            if not path.exists():
                print(f"{name} trace={trace}: no result (exit {proc.returncode})")
                status = 1
                continue
            results[trace] = json.loads(path.read_text("utf-8"))
        if 0 not in results:
            continue
        detail = results[0]
        print(f"== {name}: {workload['why']}")
        print(f"   environment {json.dumps(detail['environment'])}")
        print(f"   properties {json.dumps(detail['properties'])}")
        print(f"   ops_failed_frac {detail['ops_failed_frac']:.6g} "
              f"({detail['ops_failed']} of {detail['ops_attempted']} attempted)")
        for metric, unit in units(spec, "end_to_end").items():
            value = detail["end_to_end"].get(metric)
            if value is not None:
                print(f"   {metric:<30}{value:>14.6g} {unit}")
        if 1 not in results:
            continue
        traced = results[1]
        for metric, unit in units(spec, "per_layer").items():
            value = traced["per_layer"].get(metric)
            if value is not None:
                print(f"   {metric:<30}{value:>14.6g} {unit}")
        untraced_rate = detail["end_to_end"].get("train_examples_per_s")
        traced_rate = traced["end_to_end"].get("train_examples_per_s")
        if untraced_rate and traced_rate:
            print(f"   tracing overhead: train_examples_per_s {traced_rate:.6g} traced "
                  f"- {untraced_rate:.6g} untraced = {traced_rate - untraced_rate:.6g} 1/s "
                  f"({(traced_rate - untraced_rate) / untraced_rate:+.1%})")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every listed workload untraced and traced in fresh processes")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.report:
        if not (SRC / PACKAGE).is_dir():
            raise SystemExit(f"error: {SRC / PACKAGE} not found")
        return report(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required unless --report is given")
    return run_once(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
