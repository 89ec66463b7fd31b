"""End-to-end benchmark of the ``driftbench`` command line.

Usage, from the root of a checkout (the program is imported from ``src``)::

    python3 perfbench/run.py --workload run-all --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

``--workload`` names one workload, a comma list, or ``all``; several run
interleaved, one ``driftbench`` process at a time.  ``BENCHMARK.json`` lists
``run-all`` and ``adapt-synthetic``; ``normalize-write`` is for runs by hand,
since its spread between runs is wider than any bound it could hold.
``--trace 0`` times fresh processes and prints the end-to-end metrics;
``--trace 1`` pairs each plain process with a traced one (``traced.py``)
and prints the per-layer metrics.  Each process's outputs are checked
(``checks.py``) whatever the mode.  A table of median, quartiles and sample
count per metric comes first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (the medians).  See
``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

import checks  # noqa: E402  (perfbench/ is on sys.path when run as a script)
from standin import N_CLASSES, make_standin, standin_checksum, write_standin  # noqa: E402
from traced import MISSING_FUNCTION  # noqa: E402

# What the installed ``driftbench`` console script runs.
DRIFTBENCH = "import sys; from driftbench.cli import main; sys.exit(main())"
CHILD_ENV = {
    "PYTHONPATH": str(ROOT / "src"),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
TRACE_SUFFIX = ".trace.json"
# Measured set-ups per workload and run, after one discarded: at least this
# many, and until they add up to SETUP_SECONDS, since a 0.8 s set-up is
# noisier than a 2.6 s one.  They are spread over the workload's minimum
# rounds, because the machine's speed drifts over tens of seconds.
SETUP_PROBES = 6
SETUP_SECONDS = 12.0
CHILD_TIMEOUT_S = 170.0

# adapt-synthetic: the program's own generator at 128 features and about the
# canonical 13,910 samples (10 batches x 6 classes x 232).  The generator's
# seed stays fixed, because it draws the class means and with them the
# iterations every fit needs to converge (2,737 to 3,304 over seeds 1-6);
# --seed sets the translation step instead, which changes every batch but
# the first and leaves the work within 0.4%.
SYNTHETIC = {
    "synthetic.enabled": True,
    "synthetic.dim": 128,
    "synthetic.per_class": 232,
    "synthetic.n_batches": 10,
    "synthetic.n_classes": N_CLASSES,
    "synthetic.seed": 7,
    "methods": "means,drca,ldsp",
}
DRIFT_STEPS = (0.4, 0.6)  # range of synthetic.drift_step drawn from --seed

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))
LAYER_TIMES = (
    "cli.import", "data_io.load", "data_io.checksum", "data_io.write", "data_io.generate",
    "preprocess.normalize", "adaptation.split", "adaptation.none", "adaptation.means",
    "adaptation.drca", "adaptation.ldsp", "adaptation.selftrain", "subspace.fit",
    "subspace.project", "classifier.train", "classifier.predict", "metrics.score",
    "harness.report_write",
)
LAYER_UNITS = {
    "data_io.lines_parsed": "count", "data_io.bytes_written": "bytes",
    "adaptation.selftrain_rounds": "count", "adaptation.selftrain_added": "count",
    "subspace.fits": "count", "classifier.fits": "count", "classifier.iters": "count",
    "classifier.converged": "count", "classifier.converged_ratio": "ratio",
    "classifier.rows_predicted": "count", "harness.other_s": "s", "trace.overhead_s": "s",
}
PER_LAYER = tuple((f"{name}_s", "s") for name in LAYER_TIMES) + tuple(LAYER_UNITS.items())


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Run:
    """One finished child process."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: Path


def spawn(argv: list[str], log: Path, deadline: float) -> Run:
    """Run one child to its end, alone, and read its own rusage from wait4."""
    env = dict(os.environ, **CHILD_ENV)
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.STDOUT,
        )
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Run(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        log=log,
    )


def machine() -> str:
    """nproc and the numerical stack, printed beside every result."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return (f"nproc {len(os.sched_getaffinity(0))}, python {platform.python_version()}, "
            f"numpy {np.__version__}, scipy {metadata.version('scipy')}, blas {blas}")


def _tail(path: Path, lines: int = 8) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


@dataclass
class Inputs:
    """Everything one invocation generates from its seed."""

    seed: int
    work: Path
    standin: object = None
    checksum: str = ""
    data_dir: Path | None = None
    synthetic_config: Path | None = None

    def data(self) -> Path:
        if self.data_dir is None:
            self.standin = make_standin(self.seed)
            self.checksum = standin_checksum(self.standin)
            self.data_dir = self.work / "input"
            write_standin(self.standin, self.data_dir)
        return self.data_dir

    def synthetic(self) -> Path:
        if self.synthetic_config is None:
            self.synthetic_config = self.work / "synthetic.json"
            step = np.random.default_rng(self.seed).uniform(*DRIFT_STEPS)
            config = dict(SYNTHETIC, **{"synthetic.drift_step": round(float(step), 6)})
            self.synthetic_config.write_text(json.dumps(config))
        return self.synthetic_config


@dataclass(frozen=True)
class Workload:
    """A ``driftbench`` command, its set-up, its check and the layers it must reach."""

    name: str
    command: Callable[[Inputs, Path], list[str]]  # driftbench arguments
    source: Callable[[Inputs], list[str]]  # setup_probe.py arguments
    check: Callable[[Inputs, Path], None]
    layers: frozenset  # spans the traced run must record
    counters: frozenset  # counters the traced run must find above 0
    # Timed rounds a run makes at least, whatever --seconds says.  Round-to-
    # round noise is ~14% of a 5 s process, so short processes need more
    # samples than run-all's ~20 s ones to reach the same spread between runs.
    min_rounds: int


COMMON_LAYERS = {"cli.import", "preprocess.normalize"}
RUN_LAYERS = COMMON_LAYERS | {
    "data_io.checksum", "adaptation.split", "adaptation.means", "adaptation.drca",
    "adaptation.ldsp", "subspace.fit", "subspace.project", "classifier.train",
    "classifier.predict", "metrics.score", "harness.report_write",
}
RUN_COUNTERS = {"subspace.fits", "classifier.fits", "classifier.iters", "classifier.rows_predicted"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "run-all",
            lambda inp, out: ["run", "--data-dir", str(inp.data()), "--out", str(out)],
            lambda inp: ["--data-dir", str(inp.data())],
            lambda inp, out: checks.check_run_all(out, inp.standin, inp.checksum),
            frozenset(RUN_LAYERS | {"data_io.load", "adaptation.none", "adaptation.selftrain"}),
            frozenset(RUN_COUNTERS | {"data_io.lines_parsed", "adaptation.selftrain_rounds"}),
            min_rounds=2,
        ),
        Workload(
            "normalize-write",
            lambda inp, out: ["normalize", "--data-dir", str(inp.data()), "--out", str(out)],
            lambda inp: ["--data-dir", str(inp.data())],
            lambda inp, out: checks.check_normalize(out, inp.standin),
            frozenset(COMMON_LAYERS | {"data_io.load", "data_io.write"}),
            frozenset({"data_io.lines_parsed", "data_io.bytes_written"}),
            min_rounds=5,
        ),
        Workload(
            "adapt-synthetic",
            lambda inp, out: [
                "run", "--config", str(inp.synthetic()), "--out", str(out),
            ],
            lambda inp: ["--config", str(inp.synthetic())],
            lambda inp, out: checks.check_adapt_synthetic(
                out, SYNTHETIC["synthetic.per_class"], SYNTHETIC["synthetic.n_classes"],
                SYNTHETIC["synthetic.n_batches"],
            ),
            frozenset(RUN_LAYERS | {"data_io.generate"}),
            frozenset(RUN_COUNTERS),
            min_rounds=4,
        ),
    )
}


def layer_metrics(trace: dict, traced: Run, plain: Run, workload: Workload) -> dict:
    """Per-layer figures of one traced process, next to its untraced twin.

    A layer the workload must reach that left no span, or a counter it must
    move that stayed at 0, fails the run instead of reading 0.
    """
    spans = trace["spans"]
    seen = {s["name"] for s in spans}
    missing = sorted(workload.layers - seen)
    if missing:
        raise BenchError(f"traced run recorded no call into {', '.join(missing)}")
    zero = sorted(c for c in workload.counters if not trace["counters"][c])
    if zero:
        raise BenchError(f"traced run counted nothing for {', '.join(zero)}")
    totals = dict.fromkeys(LAYER_TIMES, 0.0)
    for s in spans:
        totals[s["name"]] += s["end"] - s["start"]
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    values = {f"{name}_s": t for name, t in totals.items()}
    values.update(trace["counters"])
    fits = values["classifier.fits"]
    values["classifier.converged_ratio"] = values["classifier.converged"] / fits if fits else 0.0
    values["harness.other_s"] = traced.wall_s - top
    values["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return values


class Bench:
    """One invocation: inputs, children, samples and the tally of operations."""

    def __init__(self, workloads: list[Workload], seed: int, trace: bool, work: Path):
        self.workloads = workloads
        self.trace = trace
        self.inputs = Inputs(seed, work)
        self.work = work
        self.deadline = time.monotonic() + CHILD_TIMEOUT_S
        self.samples: dict[str, dict[str, list[float]]] = {w.name: {} for w in workloads}
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._count = 0

    def _path(self, stem: str) -> Path:
        self._count += 1
        return self.work / f"{self._count:03d}-{stem}"

    def _add(self, workload: Workload, values: dict) -> None:
        for name, value in values.items():
            self.samples[workload.name].setdefault(name, []).append(value)

    def setup_probe(self, workload: Workload, warm_up: bool = False) -> float:
        """One set-up process, credited to every workload with the same set-up."""
        source = workload.source(self.inputs)
        run = spawn([str(HERE / "setup_probe.py"), *source],
                    self._path(f"{workload.name}-setup.log"), self.deadline)
        if run.code != 0:
            raise BenchError(f"set-up of {workload.name} exited with {run.code}:\n{_tail(run.log)}")
        if not warm_up:
            for w in self.workloads:
                if w.source(self.inputs) == source:
                    self._add(w, {"setup_s": run.wall_s})
        return run.wall_s

    def needs_probe(self, workload: Workload) -> bool:
        if self.trace:
            return False
        probes = self.samples[workload.name].get("setup_s", [])
        return len(probes) < SETUP_PROBES or sum(probes) < SETUP_SECONDS

    def operation(self, workload: Workload, traced: bool) -> Run | None:
        """One workload process with its own --out directory, then its check.

        A traced process leaves its spans in ``<log stem>.trace.json``.
        """
        out = self._path(f"{workload.name}{'-traced' if traced else ''}")
        argv = workload.command(self.inputs, out)
        if traced:
            argv = [str(HERE / "traced.py"), str(out.with_suffix(TRACE_SUFFIX)), *argv]
        else:
            argv = ["-c", DRIFTBENCH, *argv]
        run = spawn(argv, out.with_suffix(".log"), self.deadline)
        self.attempted += 1
        try:
            if traced and run.code == MISSING_FUNCTION:
                raise BenchError(f"traced run failed:\n{_tail(run.log)}")
            if run.code != 0:
                self.failed += 1
                print(f"{workload.name}: exit {run.code}\n{_tail(run.log)}", file=sys.stderr)
                return None
            workload.check(self.inputs, out)
        except (checks.CheckFailed, ValueError, OSError) as exc:
            self.failed += 1
            self.correct = False
            print(f"{workload.name}: check failed: {exc}", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return run

    def round(self, workload: Workload) -> None:
        plain = self.operation(workload, traced=False)
        if not self.trace:
            if plain is not None:
                self._add(workload, {"wall_s": plain.wall_s, "cpu_s": plain.cpu_s,
                                     "peak_rss_mb": plain.peak_rss_mb})
            return
        traced = self.operation(workload, traced=True)
        if plain is not None and traced is not None:
            trace = json.loads(traced.log.with_suffix(TRACE_SUFFIX).read_text())
            self._add(workload, layer_metrics(trace, traced, plain, workload))

    def measure(self, seconds: float) -> None:
        """Turns over the workloads until each has its set-ups and its rounds.

        A turn gives each workload that still needs them its share of set-up
        probes and one round.  A workload makes its minimum rounds whatever
        the time; past those, it starts a round only if a round as long as
        its longest yet would end within ``seconds`` of the first turn.
        """
        warmed = []
        for w in self.workloads:  # warm-up: compiles bytecode, reads the inputs once
            if w.source(self.inputs) not in warmed:
                warmed.append(w.source(self.inputs))
                self.setup_probe(w, warm_up=True)
        start = time.monotonic()
        rounds = {w.name: 0 for w in self.workloads}
        longest = {w.name: 0.0 for w in self.workloads}

        def wants_round(w: Workload) -> bool:
            if rounds[w.name] < (1 if self.trace else w.min_rounds):
                return True
            return time.monotonic() + longest[w.name] <= start + seconds

        while True:
            turn = [w for w in self.workloads if self.needs_probe(w) or wants_round(w)]
            if not turn:
                break
            for w in turn:
                spent = 0.0
                while self.needs_probe(w) and spent < SETUP_SECONDS / w.min_rounds:
                    spent += self.setup_probe(w)
                if wants_round(w):
                    began = time.monotonic()
                    self.round(w)
                    rounds[w.name] += 1
                    longest[w.name] = max(longest[w.name], time.monotonic() - began)

    def report(self) -> dict:
        names = END_TO_END if not self.trace else PER_LAYER
        several = len(self.workloads) > 1
        metrics = {}
        print(f"machine: {machine()}")
        print(f"{'workload':<16} {'metric':<28} {'unit':<6} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'n':>3}")
        for w in self.workloads:
            for name, unit in names:
                values = self.samples[w.name].get(name)
                if not values:
                    continue
                median = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
                print(f"{w.name:<16} {name:<28} {unit:<6} {median:>12.6g} {q1:>12.6g} "
                      f"{q3:>12.6g} {len(values):>3}")
                metrics[f"{w.name}/{name}" if several else name] = {"value": median, "unit": unit}
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed,
                "metrics": metrics}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help=f"one of {', '.join(WORKLOADS)}, a comma list, or all")
    parser.add_argument("--seed", type=int, default=1, help="input seed (>= 0)")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="start rounds past each workload's minimum while they "
                             "would end within this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return [WORKLOADS[n] for n in names], args


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    workloads, args = parse_args(argv)
    if not (ROOT / "src" / "driftbench" / "cli.py").is_file():
        print(f"perfbench: no program to measure at {ROOT / 'src' / 'driftbench'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(workloads, args.seed, bool(args.trace), work)
        bench.measure(args.seconds)
        result = bench.report()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
