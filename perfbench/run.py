#!/usr/bin/env python3
"""kooplift benchmark: fit, validation, rollout, predict and CLI timings.

Run from the repository root:

    python3 perfbench/run.py --workload accept_poly2 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

`--trace 0` measures the end-to-end metrics with nothing installed in the
program. `--trace 1` alternates untraced rounds with rounds in which
perfbench/tracing.py wraps kooplift's public functions, and reports the
per-layer metrics. The last line of standard output is one JSON object
(correct, attempted, failed, metrics); a failed gate exits with code 1.
Every run also writes its environment, sample counts and spans to
perfbench/results/. See perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT = 150
SETUP_REPS = 3
LIBRARY_MODULES = ("_kernels", "errors", "data", "differentiation", "observables",
                   "regression", "model", "serialize", "systems")
ALL_WORKLOADS = ("accept_poly2", "vdp_rbf_control", "kdmd_gram", "cli_csv")

# name -> unit, for the two kinds of run; the order is the printing order
END_TO_END = {
    "setup_s": "s", "fit_s": "s", "validate_s": "s",
    "rollout_ms_p50": "ms", "rollout_ms_p90": "ms",
    "predict_us_p50": "us", "predict_us_p99": "us", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "systems.integrate_s": "s",
    "data.pairs_s": "s", "data.pairs_calls": "count",
    "observables.prepare_s": "s", "observables.lift_s": "s",
    "observables.rows_per_pair": "ratio", "observables.lifted_mb": "MB",
    "observables.reconstruction_s": "s",
    "regression.fit_s": "s", "regression.eig_s": "s", "regression.gram_s": "s",
    "regression.gram_mb": "MB", "regression.m": "count", "regression.rank": "count",
    "model.fit_self_s": "s", "model.validate_self_s": "s",
    "model.rollout_steps": "count", "model.predict_calls": "count",
    "serialize.save_s": "s", "serialize.load_s": "s", "serialize.model_kb": "KB",
    "csvio.read_s": "s", "csvio.write_s": "s", "csvio.setup_write_s": "s", "csvio.mb": "MB",
    "cli.startup_s": "s", "cli.import_s": "s",
    **{f"cli.import.{mod}_s": "s" for mod in LIBRARY_MODULES},
    "trace.coverage": "ratio", "trace.overhead_share": "ratio",
}
# span name -> per-layer metric holding the span's self time per round
ROUND_SELF_TIMES = {
    "data.pairs": "data.pairs_s", "observables.prepare": "observables.prepare_s",
    "observables.lift": "observables.lift_s",
    "observables.reconstruction": "observables.reconstruction_s",
    "regression.fit": "regression.fit_s", "regression.eig": "regression.eig_s",
    "regression.gram": "regression.gram_s", "model.fit": "model.fit_self_s",
    "model.validate": "model.validate_self_s", "serialize.save": "serialize.save_s",
    "serialize.load": "serialize.load_s", "csvio.read": "csvio.read_s",
    "csvio.write": "csvio.write_s", "cli.process": "cli.startup_s",
}


def _cap_blas_threads():
    """Keep BLAS and OpenMP pools at or below the CPU count, for this process
    and its children; must run before numpy is imported."""
    nproc = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(os.environ.get(var, nproc))
        except ValueError:
            want = nproc
        os.environ[var] = str(max(1, min(want, nproc)))


def _percentile(xs, q):
    import numpy as np

    return float(np.percentile(xs, q))


class Run:
    """Times operations, counts attempts and failures, drives tracing."""

    def __init__(self, workdir, tracer):
        from speed import SpeedProbe

        self.workdir = workdir
        self.tracer = tracer
        self.traced = False  # whether the current round is traced
        self.round = -1
        self.speed = SpeedProbe()
        # kind -> [(round, start, seconds)], for untraced and traced operations
        self.samples = {}
        self.traced_samples = {}
        self.op_round = {}  # operation id -> round, for traced operations
        self.setup_ops = []  # operation ids of traced set-ups
        self.attempted = 0
        self.failures = []
        self._seq = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))

    def _fail(self, kind, exc):
        self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")

    @contextlib.contextmanager
    def tracing_setup(self):
        """In a traced run, record spans of the input generation in set-up."""
        if self.tracer is None:
            yield
            return
        self._seq += 1
        self.setup_ops.append(self._seq)
        self.tracer.op = (self._seq, "setup")
        self.tracer.install()
        self.tracer.enabled = True
        try:
            yield
        finally:
            self.tracer.enabled = False
            self.tracer.uninstall()

    def record(self, kind, start, seconds, traced=False):
        table = self.traced_samples if traced else self.samples
        table.setdefault(kind, []).append((self.round, start, seconds))

    def op(self, kind, fn, *args, check=None, **kwargs):
        """Time one operation, then check its output outside the timing."""
        self.attempted += 1
        self._seq += 1
        self.speed.maybe_measure()
        tracing = self.traced
        if tracing:
            self.tracer.op = (self._seq, kind)
            self.op_round[self._seq] = self.round
            self.tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # an operation that raises is a failed operation
            self._fail(kind, exc)
            return None
        finally:
            elapsed = time.perf_counter() - t0
            if tracing:
                self.tracer.enabled = False
        self.record(kind, t0, elapsed, traced=tracing)
        if check is not None:
            try:
                check(out)
            except Exception as exc:  # a gate that fails, or cannot be evaluated
                self._fail(kind, exc)
                return None
        return out

    def scaled(self, kind, traced=False):
        """Samples of one kind, in seconds at the probe's reference speed;
        set-up, which is mostly a fresh interpreter's import, is not scaled."""
        table = self.traced_samples if traced else self.samples
        samples = [(start, sec) for _, start, sec in table.get(kind, [])]
        if kind == "setup":
            return [sec for _, sec in samples]
        parts = ("call", "array") if kind in ("rollout", "predict") else ("array",)
        return self.speed.scaled(samples, parts)

    def check(self, name, fn):
        """A run-level gate, counted as one attempted operation."""
        self.attempted += 1
        try:
            fn()
        except Exception as exc:
            self._fail(name, exc)

    def cli(self, argv):
        """One `kooplift` command in a fresh interpreter."""
        if not self.traced:
            return subprocess.run([sys.executable, "-m", "kooplift.cli", *argv], env=self.env,
                                  capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        spans_path = os.path.join(self.workdir, "child-spans.json")
        idx = self.tracer.open("cli.process")
        try:
            res = subprocess.run([sys.executable, CHILD, "cli", spans_path, *argv], env=self.env,
                                 capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        finally:
            self.tracer.close(idx)
        with open(spans_path) as fh:
            self.tracer.adopt(json.load(fh), idx)
        os.remove(spans_path)
        return res

    def import_child(self, importtime):
        """Seconds for `import kooplift` in a fresh interpreter, and with
        -X importtime the cumulative seconds per kooplift submodule."""
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [CHILD, "import"]
        res = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                             timeout=CHILD_TIMEOUT, check=True)
        modules = {}
        for line in res.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                name = parts[2].strip()
                if name.startswith("kooplift.") and parts[1].strip().isdigit():
                    modules[name[len("kooplift."):]] = int(parts[1]) * 1e-6
        return json.loads(res.stdout)["import_s"], modules


def warm_up():
    """A tiny fit, rollout and predict, so lazy set-up is done before timing."""
    import numpy as np

    import kooplift
    import kooplift.model

    pts = np.array([[-0.5, -0.5], [-0.5, 0.5], [0.5, -0.5], [0.5, 0.5]])
    spec = kooplift.get_system("slow_manifold")
    data = kooplift.TrajectoryDataset(list(kooplift.integrate_rk4_batch(spec, pts, 0.02, 9)), 0.02)
    model = kooplift.model.fit(kooplift.Polynomial(2), "edmd", data)
    model.simulate(pts[0], 3)
    model.predict(pts[0])


def environment():
    import numpy as np
    import scipy

    import kooplift

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "kooplift_backend": kooplift.BACKEND,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(), "cpu": platform.machine(), "caches": {},
        "warm_up": True,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    record["cpu"] = line.split(":", 1)[1].strip()
                    break
        base = "/sys/devices/system/cpu/cpu0/cache"
        for entry in sorted(os.listdir(base)):
            with open(f"{base}/{entry}/level") as a, open(f"{base}/{entry}/type") as b, \
                    open(f"{base}/{entry}/size") as c:
                record["caches"][f"L{a.read().strip()} {b.read().strip()}"] = c.read().strip()
    except OSError:
        pass  # not Linux, or not readable: the record says what it could
    return record


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(run, cli_children):
    """Metric name -> (value, sample count, wall-clock value) for an
    untraced run; timings are scaled to the probe's reference speed."""
    out = {}
    for name, kind, q, scale in (("setup_s", "setup", 50, 1.0),
                                 ("fit_s", "fit", 50, 1.0),
                                 ("validate_s", "validate", 50, 1.0),
                                 ("rollout_ms_p50", "rollout", 50, 1e3),
                                 ("rollout_ms_p90", "rollout", 90, 1e3),
                                 ("predict_us_p50", "predict", 50, 1e6),
                                 ("predict_us_p99", "predict", 99, 1e6),
                                 ("cli_simulate_s", "cli_simulate", 50, 1.0)):
        values = run.scaled(kind)
        if values:
            raw = None if kind == "setup" else \
                _percentile([sec for _, _, sec in run.samples[kind]], q) * scale
            out[name] = (_percentile(values, q) * scale, len(values), raw)
    who = resource.RUSAGE_CHILDREN if cli_children else resource.RUSAGE_SELF
    out["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024.0, 1, None)
    return out


def per_layer(run, tracer, imports):
    """Metric name -> (value, sample count, None) from the traced rounds'
    spans; span times are wall clock."""
    spans = tracer.spans
    dur = [sp["end"] - sp["start"] for sp in spans]
    covered = [0.0] * len(spans)
    for i, sp in enumerate(spans):
        if sp["parent"] is not None:
            covered[sp["parent"]] += dur[i]

    def under(i, name):
        p = spans[i]["parent"]
        while p is not None:
            if spans[p]["name"] == name:
                return True
            p = spans[p]["parent"]
        return False

    rounds = sorted(set(run.op_round.values()))
    per_round = {r: {} for r in rounds}
    setup = {op: {} for op in run.setup_ops}

    def add(table, key, value):
        table[key] = table.get(key, 0.0) + value

    fits = pairs_calls = lift_rows = lift_bytes = pairs_m = 0
    gram_bytes, last_fit, model_bytes = 0, {}, 0
    fit_time = fit_covered = 0.0
    steps = []
    for i, sp in enumerate(spans):
        name, self_time = sp["name"], dur[i] - covered[i]
        if sp["op"] in setup:
            add(setup[sp["op"]], name, self_time)
            continue
        table = per_round[run.op_round[sp["op"]]]
        add(table, name, self_time)
        if sp["parent"] is None and sp["kind"] == "fit":
            fit_time += dur[i]
            fit_covered += covered[i]
        if name == "model.fit":
            fits += 1
        elif name == "data.pairs" and under(i, "model.fit"):
            pairs_calls += 1
        elif name == "observables.lift" and under(i, "model.fit") and \
                spans[sp["parent"]]["name"] != "observables.lift":
            lift_rows += sp.get("rows", 0)
            lift_bytes += sp.get("bytes", 0)
        elif name == "regression.fit":
            pairs_m += sp.get("m", 0)
            last_fit = sp
        elif name == "regression.gram":
            gram_bytes = max(gram_bytes, sp.get("bytes", 0))
        elif name == "serialize.save":
            model_bytes = sp.get("bytes", 0)
        if name == "model.simulate":
            steps.append(sp.get("steps", 0))
        elif name == "model.predict":
            add(table, "predicts", 1)
        elif name.startswith("csvio."):
            add(table, "csv_bytes", sp.get("bytes", 0))

    def round_median(key):
        return _median([per_round[r].get(key, 0.0) for r in rounds])

    out = {metric: (round_median(name), len(rounds)) for name, metric in ROUND_SELF_TIMES.items()}
    out["systems.integrate_s"] = (_median([t.get("systems.integrate", 0.0) for t in setup.values()]),
                                  len(setup))
    out["csvio.setup_write_s"] = (_median([t.get("csvio.write", 0.0) for t in setup.values()]),
                                  len(setup))
    out["data.pairs_calls"] = (pairs_calls / fits if fits else 0.0, fits)
    out["observables.rows_per_pair"] = (lift_rows / pairs_m if pairs_m else 0.0, fits)
    out["observables.lifted_mb"] = (lift_bytes / fits / 1e6 if fits else 0.0, fits)
    out["regression.gram_mb"] = (gram_bytes / 1e6, fits)
    out["regression.m"] = (last_fit.get("m", 0), fits)
    out["regression.rank"] = (last_fit.get("rank", 0), fits)
    out["model.rollout_steps"] = (_median(steps), len(steps))
    out["model.predict_calls"] = (round_median("predicts"), len(rounds))
    out["serialize.model_kb"] = (model_bytes / 1024.0, fits)
    out["csvio.mb"] = (round_median("csv_bytes") / 1e6, len(rounds))
    out["cli.import_s"] = (_median([t for t, _ in imports]), len(imports))
    for mod in LIBRARY_MODULES:
        out[f"cli.import.{mod}_s"] = (_median([m.get(mod, 0.0) for _, m in imports]), len(imports))
    out["trace.coverage"] = (fit_covered / fit_time if fit_time else 0.0, fits)
    traced = untraced = 0.0
    for kind, samples in run.traced_samples.items():
        if run.samples.get(kind):
            traced += len(samples) * _median(run.scaled(kind, traced=True))
            untraced += len(samples) * _median(run.scaled(kind))
    out["trace.overhead_share"] = (traced / untraced - 1.0 if untraced else 0.0, len(rounds))
    return {key: (value, n, None) for key, (value, n) in out.items()}


def run_workload(name, seed, seconds, trace):
    import kooplift
    from tracing import Tracer
    from workloads import WORKLOADS

    if os.path.realpath(os.path.dirname(kooplift.__file__)) != \
            os.path.realpath(os.path.join(SRC, "kooplift")):
        raise SystemExit(f"kooplift was imported from {kooplift.__file__}, not from {SRC}")
    workdir = os.path.join(HERE, "work", f"{name}-{os.getpid()}")
    os.makedirs(workdir)
    tracer = Tracer() if trace else None
    run = Run(workdir, tracer)
    try:
        workload = WORKLOADS[name](seed, workdir)
        imports = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            imports.append(run.import_child(importtime=trace))
            t0 = time.perf_counter()
            with run.tracing_setup():
                workload.generate()
            warm_up()
            run.record("setup", start, imports[-1][0] + time.perf_counter() - t0)

        deadline = time.perf_counter() + seconds
        while run.round + 1 < workload.min_rounds or time.perf_counter() < deadline:
            run.round += 1
            run.traced = trace and run.round % 2 == 1
            if run.traced:
                tracer.install()
            try:
                workload.round(run, run.round)
            finally:
                if run.traced:
                    tracer.uninstall()
                run.traced = False
        run.speed.measure()
        workload.finish(run)

        if trace:
            metrics = per_layer(run, tracer, imports)
        else:
            metrics = end_to_end(run, cli_children=(name == "cli_csv"))
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "environment": environment(), "rounds": run.round + 1,
                  "attempted": run.attempted, "failed": len(run.failures),
                  "failures": run.failures,
                  "metrics": {k: {"value": v, "n": n, "raw": raw}
                              for k, (v, n, raw) in metrics.items()},
                  "samples": run.samples, "traced_samples": run.traced_samples,
                  "probes": {"start": run.speed.starts, **run.speed.seconds},
                  "spans": tracer.spans if trace else []}
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        path = os.path.join(HERE, "results", f"{name}-seed{seed}-trace{int(trace)}.json")
        with open(path, "w") as fh:
            json.dump(record, fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if trace else END_TO_END
    print(f"workload {name} seed {seed} rounds {run.round + 1} environment "
          + json.dumps(record["environment"], sort_keys=True))
    for key, (value, n, raw) in metrics.items():
        unit = units.get(key, "s")
        wall = "" if raw is None else f"  (wall clock {raw:.6g})"
        print(f"  {key:34s} {value:14.6g} {unit:6s} n={n}{wall}")
    failed = len(run.failures)
    print(f"  {'failed_ratio':34s} {failed / max(run.attempted, 1):14.6g} {'1':6s} "
          f"n={run.attempted}")
    for failure in run.failures[:10]:
        print(f"  FAILED {failure}", file=sys.stderr)
    result = {
        "correct": failed == 0 and all(k in metrics for k in units),
        "attempted": run.attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": u} for k, u in units.items() if k in metrics},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(seed, seconds, trace):
    """Every workload in its own process; non-zero if any gate fails."""
    status = 0
    for name in ALL_WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
               "--trace", str(int(trace))] + (["--seconds", str(seconds)] if seconds else [])
        code = subprocess.run(cmd, timeout=600).returncode
        status = status or code
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ALL_WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kooplift", "__init__.py")):
        print(f"error: no kooplift sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            seconds = json.load(fh)["run_seconds"]
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
