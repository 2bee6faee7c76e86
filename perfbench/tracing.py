"""Spans recorded from outside kooplift, around calls into each module.

`Tracer.install()` replaces each name in TARGETS, at the place its callers
look it up, with a wrapper that records a span (name, start, end, parent,
operation id, and a few sizes). Nothing inside the package is edited. If a
name is missing the install fails, so a refactor cannot silently drop a
layer from the trace.
"""

from __future__ import annotations

import functools
import importlib
import os
import time


class TraceSetupError(RuntimeError):
    """A traced name no longer exists where the benchmark expects it."""


def _rows_out(args, kwargs, out):
    shape = getattr(out, "shape", ())
    return {"rows": int(shape[0]) if shape else 1, "bytes": int(getattr(out, "nbytes", 0))}


def _regression_info(args, kwargs, out):
    return {"m": int(out.m), "rank": int(out.rank)}


def _gram_info(args, kwargs, out):
    return {"bytes": int(out.nbytes)}


def _simulate_info(args, kwargs, out):
    return {"steps": int(out.shape[0]) - 1}


def _csv_read_info(args, kwargs, out):
    return {"bytes": _file_size(args[0])}


def _csv_write_info(args, kwargs, out):
    return {"bytes": len(out)}


def _save_info(args, kwargs, out):
    return {"bytes": _file_size(args[1])}


def _file_size(path):
    return os.path.getsize(path) if isinstance(path, str) else 0


# (module, attribute path, span name, info function). Functions are wrapped
# where their callers look them up: kooplift.model imports fit_edmd and
# build_snapshot_pairs into its own namespace, kooplift.cli imports the CSV,
# serialization and fit entry points into its namespace.
TARGETS = (
    ("kooplift.systems", "integrate_rk4_batch", "systems.integrate", None),
    ("kooplift.model", "build_snapshot_pairs", "data.pairs", None),
    ("kooplift.model", "fit", "model.fit", None),
    ("kooplift.model", "fit_reconstruction", "observables.reconstruction", None),
    ("kooplift.model", "fit_edmd", "regression.fit", _regression_info),
    ("kooplift.model", "fit_edmdc", "regression.fit", _regression_info),
    ("kooplift.model", "fit_kdmd", "regression.fit", _regression_info),
    ("kooplift.regression", "eig_biorthogonal", "regression.eig", None),
    ("kooplift.regression", "KernelConfig.gram", "regression.gram", _gram_info),
    ("kooplift.model", "KoopmanModel.linearity_consistency", "model.validate", None),
    ("kooplift.model", "KoopmanModel.simulate", "model.simulate", _simulate_info),
    ("kooplift.model", "KoopmanModel.predict", "model.predict", None),
    ("kooplift.observables", "Observable.prepare", "observables.prepare", None),
    ("kooplift.observables", "RadialBasis.prepare", "observables.prepare", None),
    ("kooplift.observables", "Observable.lift", "observables.lift", _rows_out),
    ("kooplift.observables", "Polynomial.lift_rows", "observables.lift", _rows_out),
    ("kooplift.observables", "RadialBasis.lift_rows", "observables.lift", _rows_out),
    ("kooplift.observables", "TimeDelay.lift", "observables.lift", _rows_out),
    ("kooplift.observables", "TimeDelay.lift_rows", "observables.lift", _rows_out),
    ("kooplift.observables", "TimeDelay.lift_trajectory", "observables.lift", _rows_out),
    ("kooplift.observables", "KernelLift.lift", "observables.lift", _rows_out),
    ("kooplift.observables", "KernelLift.lift_rows", "observables.lift", _rows_out),
    ("kooplift.csvio", "write_trajectory_csv", "csvio.write", _csv_write_info),
    ("kooplift.cli", "fit_model", "model.fit", None),
    ("kooplift.cli", "read_trajectory_csv", "csvio.read", _csv_read_info),
    ("kooplift.cli", "write_trajectory_csv", "csvio.write", _csv_write_info),
    ("kooplift.cli", "save_model", "serialize.save", _save_info),
    ("kooplift.cli", "load_model", "serialize.load", None),
)


def _resolve(module_name, path):
    """Return (owner, attribute, original) for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TraceSetupError(f"{module_name}.{path}: {part} no longer exists")
    attr = parts[-1]
    # a method must be defined on the named class itself, not inherited, so
    # that the span names the implementation that actually runs
    table = vars(owner) if isinstance(owner, type) else None
    if table is not None and attr not in table:
        raise TraceSetupError(f"{module_name}.{path} is no longer defined there")
    if table is None and not hasattr(owner, attr):
        raise TraceSetupError(f"{module_name}.{path} no longer exists")
    return owner, attr, (table[attr] if table is not None else getattr(owner, attr))


class Tracer:
    """Keeps spans in memory; `spans` is a list of dicts, parents by index."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.op = None  # (operation id, kind) that new spans belong to
        self.enabled = False  # wrappers record only while this is set

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append({
            "name": name, "start": time.perf_counter(),
            "end": None, "parent": parent,
            "op": None if self.op is None else self.op[0],
            "kind": None if self.op is None else self.op[1],
        })
        self._stack.append(idx)
        return idx

    def close(self, idx, info=None, end=None):
        self.spans[idx]["end"] = time.perf_counter() if end is None else end
        if info:
            self.spans[idx].update(info)
        self._stack.pop()

    def adopt(self, child_spans, parent):
        """Append spans recorded in a child process under span `parent`."""
        base = len(self.spans)
        op = self.spans[parent]
        for s in child_spans:
            s = dict(s, op=op["op"], kind=op["kind"])
            s["parent"] = parent if s["parent"] is None else base + s["parent"]
            self.spans.append(s)

    def _wrap(self, fn, name, info_fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            end = time.perf_counter()
            tracer.close(idx, info_fn(args, kwargs, out) if info_fn else None, end)
            return out

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target; raises TraceSetupError if one is missing."""
        resolved = [(_resolve(mod, path), name, info) for mod, path, name, info in targets]
        for (owner, attr, original), name, info in resolved:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, info))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
