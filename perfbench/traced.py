"""Run one ``driftbench`` command with spans around its layers' public functions.

Usage::

    python3 perfbench/traced.py <trace.json> <driftbench arguments...>

The program's sources are not touched: after ``driftbench.cli`` is imported,
each function named in ``WRAPPED`` is replaced, in every ``driftbench``
module that holds it, by a wrapper that records a span and, for some
functions, counters read from the call's arguments or result.  A span nested
inside a span of the same name (``normalize_dataset`` calling
``fit_minmax``) is not recorded, so each name's spans never overlap.  A
listed function that the program no longer has stops the run with exit
code 3 instead of reading 0.  The spans and counters go to ``trace.json``
when the command returns; the exit code is the command's.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

COUNTERS = (
    "data_io.lines_parsed",
    "data_io.bytes_written",
    "adaptation.selftrain_rounds",
    "adaptation.selftrain_added",
    "subspace.fits",
    "classifier.fits",
    "classifier.iters",
    "classifier.converged",
    "classifier.rows_predicted",
)


class Tracer:
    """In-memory spans and counters, written out once the command returns."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._open: list[dict] = []

    def span(self, name: str, start: float, end: float) -> None:
        self.spans.append({"name": name, "start": start, "end": end, "parent": None})

    def call(self, name, fn, args, kwargs, after):
        """Call ``fn`` inside a span called ``name`` (``None``: no span)."""
        if name is None or any(s["name"] == name for s in self._open):
            result = fn(*args, **kwargs)
            if name is None and after is not None:
                after(self.counters, args, kwargs, result)
            return result
        record = {
            "name": name,
            "parent": self._open[-1]["name"] if self._open else None,
        }
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()
            self.spans.append(record)
        if after is not None:
            after(self.counters, args, kwargs, result)
        return result


def _lines(counters, args, kwargs, result):
    counters["data_io.lines_parsed"] += result[1].lines


def _bytes(counters, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counters["data_io.bytes_written"] += os.path.getsize(path)


def _fit(counters, args, kwargs, result):
    counters["subspace.fits"] += 1


def _train(counters, args, kwargs, model):
    counters["classifier.fits"] += 1
    counters["classifier.iters"] += model.n_iter
    counters["classifier.converged"] += int(model.converged)


def _predicted(counters, args, kwargs, result):
    counters["classifier.rows_predicted"] += len(result[0])


def _subspace_method(args, kwargs):
    method = args[2] if len(args) > 2 else kwargs["method"]
    return f"adaptation.{method}"


# (module, function, span name or a function of the call's arguments, counter hook)
WRAPPED = (
    ("data_io", "load_dataset", "data_io.load", None),
    ("data_io", "load_batch_file", None, _lines),
    ("data_io", "dataset_checksum", "data_io.checksum", None),
    ("data_io", "write_batch_file", "data_io.write", _bytes),
    ("data_io", "generate_synthetic", "data_io.generate", None),
    ("preprocess", "fit_minmax", "preprocess.normalize", None),
    ("preprocess", "normalize_dataset", "preprocess.normalize", None),
    ("adaptation", "split_calibration", "adaptation.split", None),
    ("adaptation", "run_no_adaptation", "adaptation.none", None),
    ("adaptation", "run_means_correction", "adaptation.means", None),
    ("adaptation", "run_subspace_method", _subspace_method, None),
    ("adaptation", "run_self_training", "adaptation.selftrain", None),
    ("subspace", "drca_fit", "subspace.fit", _fit),
    ("subspace", "ldsp_fit", "subspace.fit", _fit),
    ("subspace", "project", "subspace.project", None),
    ("classifier", "train_with_config", "classifier.train", _train),
    ("classifier", "predict", "classifier.predict", _predicted),
    ("metrics", "accuracy", "metrics.score", None),
    ("metrics", "f1_score", "metrics.score", None),
    ("harness", "export_report", "harness.report_write", None),
)

MISSING_FUNCTION = 3  # exit code when a function in WRAPPED is gone


def _wrap(tracer, fn, name, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name(args, kwargs) if callable(name) else name, fn, args, kwargs, after)

    return wrapper


def _wrap_selftrain(tracer, fn, name, after):
    """Pass the function's own ``trace`` hook and sum its per-batch records."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if kwargs.get("trace") is None:
            kwargs["trace"] = []
        records = kwargs["trace"]
        first = len(records)
        result = tracer.call(name, fn, args, kwargs, after)
        for record in records[first:]:
            tracer.counters["adaptation.selftrain_rounds"] += record["rounds"]
            tracer.counters["adaptation.selftrain_added"] += record["n_added"]
        return result

    return wrapper


def install(tracer: Tracer) -> None:
    """Replace every function in ``WRAPPED`` wherever a driftbench module holds it."""
    modules = [m for n, m in sys.modules.items() if n == "driftbench" or n.startswith("driftbench.")]
    for module_name, func_name, name, after in WRAPPED:
        module = sys.modules.get(f"driftbench.{module_name}")
        fn = getattr(module, func_name, None)
        if not callable(fn):
            print(f"traced run: driftbench.{module_name}.{func_name} is missing", file=sys.stderr)
            raise SystemExit(MISSING_FUNCTION)
        wrap = _wrap_selftrain if func_name == "run_self_training" else _wrap
        wrapper = wrap(tracer, fn, name, after)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    trace_path, command = argv[0], argv[1:]
    tracer = Tracer()
    start = time.perf_counter()
    import driftbench.cli

    tracer.span("cli.import", start, time.perf_counter())
    install(tracer)
    try:
        code = driftbench.cli.main(command)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    with open(trace_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
