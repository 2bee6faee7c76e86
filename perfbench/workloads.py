"""The four workloads: inputs drawn from the seed, one round of operations,
and the correctness gates checked on every output.

Every call into kooplift goes through the module attribute its callers use
(`kooplift.model.fit`, `kooplift.systems.integrate_rk4_batch`, ...), looked
up at call time, so the traced run sees the same calls as the untraced one.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

import kooplift
import kooplift.csvio
import kooplift.model
import kooplift.serialize
import kooplift.systems

SLOW_MANIFOLD_MUS = (-0.05, -0.1, -1.0)


class GateError(Exception):
    """An output failed a correctness gate."""


def gate(ok, message):
    if not ok:
        raise GateError(message)


def _integrate(name, X0, dt, n_steps, inputs=None):
    spec = kooplift.systems.get_system(name)
    return kooplift.systems.integrate_rk4_batch(spec, X0, dt, n_steps, inputs)


def _acceptance_grid():
    """The acceptance run's fixed training set: 10 x 10 grid, 2500 samples."""
    pts = np.linspace(-1.0, 1.0, 10)
    X0 = np.array([[a, b] for a in pts for b in pts])
    return kooplift.TrajectoryDataset(list(_integrate("slow_manifold", X0, 0.02, 2499)), dt=0.02)


def _gate_spectrum(model, tol):
    mus = model.continuous_eigenvalues()
    err = max(float(np.min(np.abs(mus - t))) for t in SLOW_MANIFOLD_MUS)
    gate(err <= tol, f"slow-manifold spectrum off by {err:.3e} (tol {tol:g})")


def _gate_training_scores(model, result):
    scores, _ = result
    gate(np.all(np.isfinite(scores)), "validation scores are not finite")
    gate(np.allclose(scores, model.training_scores, rtol=1e-9, atol=1e-12),
         "validation on the training data disagrees with the fit's own scores")


def _gate_rmse(sim, truth, tol):
    gate(sim.shape == truth.shape, f"rollout shape {sim.shape} != {truth.shape}")
    rmse = float(np.sqrt(np.mean((sim - truth) ** 2)))
    gate(rmse <= tol, f"rollout RMSE {rmse:.3e} > {tol:g}")


def _gate_step(pred, truth, tol):
    err = float(np.max(np.abs(pred - truth)))
    gate(err <= tol, f"one-step error {err:.3e} > {tol:g}")
    return err


class Workload:
    """One named workload. Subclasses set the sizes and implement the round:
    the heavy operations (fit, validation, CLI commands), each followed by a
    light phase of rollouts and predicts."""

    name = ""
    min_rounds = 1
    light_seconds = 0.5  # length of one light phase
    predicts_per_rollout = 10

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.rollouts = 0
        self.predicts = 0

    def rng(self):
        # one stream per workload, so workloads never share draws
        return np.random.default_rng([self.seed, sum(map(ord, self.name))])

    def generate(self):
        raise NotImplementedError

    def round(self, run, r):
        raise NotImplementedError

    def finish(self, run):
        """Run-level gates, checked after the measured rounds."""

    def rollout(self, run, model, k):
        raise NotImplementedError

    def predict(self, run, model, k):
        raise NotImplementedError

    def light(self, run, model):
        """Rollouts interleaved with predicts for light_seconds. Between the
        heavy operations these short ones sample the whole run, not a few
        instants of it, so a shared machine's slow spells hit every metric
        alike."""
        end = time.perf_counter() + self.light_seconds
        while time.perf_counter() < end:
            self.rollout(run, model, self.rollouts)
            self.rollouts += 1
            for _ in range(self.predicts_per_rollout):
                self.predict(run, model, self.predicts)
                self.predicts += 1


class AcceptPoly2(Workload):
    """Acceptance run: fixed grid, Polynomial(2), edmd; unseen rollouts."""

    name = "accept_poly2"
    min_rounds = 4
    light_seconds = 0.35
    steps = 2499

    def generate(self):
        rng = self.rng()
        self.data = _acceptance_grid()
        x0 = rng.uniform(-1.0, 1.0, size=(100, 2))
        self.rollout_truth = _integrate("slow_manifold", x0, 0.02, self.steps)
        xq = rng.uniform(-1.0, 1.0, size=(1000, 2))
        self.predict_truth = _integrate("slow_manifold", xq, 0.02, 1)

    def round(self, run, r):
        model = run.op("fit", kooplift.model.fit, kooplift.Polynomial(2), "edmd", self.data,
                       check=lambda m: _gate_spectrum(m, 1e-4))
        if model is None:
            return
        self.light(run, model)
        run.op("validate", model.linearity_consistency, self.data,
               check=lambda res: _gate_training_scores(model, res))
        self.light(run, model)

    def rollout(self, run, model, k):
        truth = self.rollout_truth[k % len(self.rollout_truth)]
        run.op("rollout", model.simulate, truth[0], self.steps,
               check=lambda sim: _gate_rmse(sim, truth, 1e-3))

    def predict(self, run, model, k):
        pair = self.predict_truth[k % len(self.predict_truth)]
        run.op("predict", model.predict, pair[0],
               check=lambda x: _gate_step(x, pair[1], 1e-8))


class VdpRbfControl(Workload):
    """Van der Pol with a held input, 100 Gaussian RBF centers, edmdc."""

    name = "vdp_rbf_control"
    min_rounds = 2
    light_seconds = 0.75
    steps = 500
    hold = 20
    dt = 0.01

    def _trajectories(self, rng, count, n_steps):
        x0 = rng.uniform(-2.0, 2.0, size=(count, 2))
        held = rng.uniform(-1.0, 1.0, size=(count, n_steps // self.hold, 1))
        U = np.repeat(held, self.hold, axis=1)
        return _integrate("vdp_osc", x0, self.dt, n_steps, U), U

    def generate(self):
        rng = self.rng()
        X, U = self._trajectories(rng, 50, 2000)
        # the dataset wants one input row per sample; the last row is unused
        inputs = [np.vstack([u, u[-1:]]) for u in U]
        self.data = kooplift.TrajectoryDataset(list(X), dt=self.dt, inputs=inputs)
        self.center_seed = int(rng.integers(2**31))
        # held-out one-step queries from settled parts of unseen trajectories
        Xh, Uh = self._trajectories(rng, 10, 2000)
        i = rng.integers(0, 10, size=1000)
        k = rng.integers(500, 2000, size=1000)
        self.queries = (Xh[i, k], Uh[i, k], Xh[i, k + 1])
        self.rollout_x0 = rng.uniform(-2.0, 2.0, size=(100, 2))
        held = rng.uniform(-1.0, 1.0, size=(100, 1, self.steps // self.hold))
        self.rollout_u = np.repeat(held, self.hold, axis=2)
        self.sq_err = []

    def round(self, run, r):
        library = kooplift.RadialBasis("gauss", n_centers=100, seed=self.center_seed)
        model = run.op("fit", kooplift.model.fit, library, "edmdc", self.data,
                       check=lambda m: gate(np.all(np.isfinite(m.eigenvalues)),
                                            "non-finite eigenvalues"))
        if model is None:
            return
        self.light(run, model)
        run.op("validate", model.linearity_consistency, self.data,
               check=lambda res: _gate_training_scores(model, res))
        self.light(run, model)

    def rollout(self, run, model, k):
        x0 = self.rollout_x0[k % 100]
        U = self.rollout_u[k % 100]

        def check(sim):
            # long controlled rollouts are loose on this model, so the gate is
            # that the rollout is finite and starts with the one-step predict
            gate(sim.shape == (self.steps + 1, 2) and np.all(np.isfinite(sim)),
                 "controlled rollout is not finite")
            gate(np.allclose(sim[1], model.predict(x0, U[:, 0]), rtol=1e-12, atol=1e-12),
                 "rollout's first step disagrees with predict")

        run.op("rollout", model.simulate, x0, self.steps, U=U, check=check)

    def predict(self, run, model, k):
        x, u, truth = (a[k % 1000] for a in self.queries)

        def check(pred):
            self.sq_err.append(_gate_step(pred, truth, 0.05) ** 2)

        run.op("predict", model.predict, x, u, check=check)

    def finish(self, run):
        rmse = float(np.sqrt(np.mean(self.sq_err))) if self.sq_err else 0.0
        run.check("predict_rmse", lambda: gate(rmse <= 5e-3, f"one-step RMSE {rmse:.3e} > 5e-3"))


class KdmdGram(Workload):
    """Kernel EDMD on the slow manifold: Gaussian Gram, dense eigh, rank 20."""

    name = "kdmd_gram"
    min_rounds = 2
    light_seconds = 0.6
    steps = 2500

    def generate(self):
        rng = self.rng()
        x0 = rng.uniform(-1.0, 1.0, size=(36, 2))
        self.data = kooplift.TrajectoryDataset(
            list(_integrate("slow_manifold", x0, 0.02, 79)), dt=0.02)
        self.config = kooplift.RegressorConfig(
            kind="kdmd", rank=20,
            kernel=kooplift.KernelConfig(kind="gaussian", sigma=2.0, reg_eps=1e-10))
        self.rollout_truth = _integrate(
            "slow_manifold", rng.uniform(-1.0, 1.0, size=(100, 2)), 0.02, self.steps)
        self.predict_truth = _integrate(
            "slow_manifold", rng.uniform(-1.0, 1.0, size=(1000, 2)), 0.02, 1)

    def round(self, run, r):
        model = run.op("fit", kooplift.model.fit, None, self.config, self.data,
                       check=lambda m: _gate_spectrum(m, 0.03))
        if model is None:
            return
        self.light(run, model)
        run.op("validate", model.linearity_consistency, self.data,
               check=lambda res: _gate_training_scores(model, res))
        self.light(run, model)

    def rollout(self, run, model, k):
        truth = self.rollout_truth[k % 100]
        run.op("rollout", model.simulate, truth[0], self.steps,
               check=lambda sim: _gate_rmse(sim, truth, 0.05))

    def predict(self, run, model, k):
        pair = self.predict_truth[k % 1000]
        run.op("predict", model.predict, pair[0],
               check=lambda x: _gate_step(x, pair[1], 0.05))


class CliCsv(Workload):
    """The acceptance data through `kooplift fit`, `simulate` and `eig --data`
    processes, with an hdmd (8 delays) model; the model the CLI wrote is then
    rolled out and queried in-process."""

    name = "cli_csv"
    min_rounds = 2
    delays = 8
    steps = 2400
    cli_steps = 20000

    def generate(self):
        rng = self.rng()
        data = _acceptance_grid()
        self.data_csv = os.path.join(self.workdir, "train.csv")
        kooplift.csvio.write_trajectory_csv(self.data_csv, list(data.trajectories), dt=data.dt)
        self.config = os.path.join(self.workdir, "fit.json")
        with open(self.config, "w") as fh:
            json.dump({"observables": {"kind": "identity"},
                       "regressor": {"kind": "hdmd", "delays": self.delays}}, fh)
        trajs = np.stack(data.trajectories)
        w = self.delays + 1
        # windows of d+1 samples and what follows them, from the data itself
        i = rng.integers(0, len(trajs), size=100)
        s = rng.integers(0, trajs.shape[1] - w - self.steps, size=100)
        self.rollout_windows = [trajs[a, b:b + w + self.steps] for a, b in zip(i, s)]
        i = rng.integers(0, len(trajs), size=1000)
        s = rng.integers(0, trajs.shape[1] - w - 1, size=1000)
        self.predict_windows = [trajs[a, b:b + w + 1] for a, b in zip(i, s)]
        self.first_model = None

    def round(self, run, r):
        model_path = os.path.join(self.workdir, f"model-{r}.json")
        fitted = run.op("fit", run.cli, ["fit", self.config, self.data_csv, model_path, "--quiet"],
                        check=lambda res: self._check_fit(res, model_path))
        if fitted is None:
            return
        model = kooplift.serialize.load_model(model_path)
        self.light(run, model)
        window = self.rollout_windows[r % 100][: self.delays + 1]
        x0 = ";".join(",".join(repr(float(v)) for v in row) for row in window)
        out = os.path.join(self.workdir, f"sim-{r}.csv")
        run.op("cli_simulate", run.cli,
               ["simulate", model_path, out, "--steps", str(self.cli_steps), f"--x0={x0}", "--quiet"],
               check=lambda res: self._check_simulate(res, model, window, out))
        run.op("validate", run.cli, ["eig", model_path, "--data", self.data_csv, "--format", "json"],
               check=lambda res: self._check_eig(res, model))
        self.light(run, model)

    def _check_fit(self, res, path):
        gate(res.returncode == 0, f"kooplift fit exited {res.returncode}: {res.stderr[-300:]}")
        with open(path, "rb") as fh:
            text = fh.read()
        if self.first_model is None:
            self.first_model = text
        gate(text == self.first_model, "repeated fits wrote different model JSON")

    def _check_simulate(self, res, model, window, out):
        gate(res.returncode == 0, f"kooplift simulate exited {res.returncode}: {res.stderr[-300:]}")
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        gate(table.shape == (self.cli_steps + 1, 3), f"simulate wrote shape {table.shape}")
        gate(np.array_equal(table[:, 1:], model.simulate(window, self.cli_steps)),
             "simulate CSV differs from the loaded model's rollout")

    def _check_eig(self, res, model):
        gate(res.returncode == 0, f"kooplift eig exited {res.returncode}: {res.stderr[-300:]}")
        rows = json.loads(res.stdout)
        lam = np.array([complex(row["lambda_re"], row["lambda_im"]) for row in rows])
        gate(np.array_equal(lam, model.eigenvalues), "eig output differs from the model's spectrum")
        gate(all(np.isfinite(row["score"]) for row in rows), "eig --data scores are not finite")

    def rollout(self, run, model, k):
        seq = self.rollout_windows[k % 100]
        w = self.delays + 1
        run.op("rollout", model.simulate, seq[:w], self.steps,
               check=lambda sim: _gate_rmse(sim, seq[w - 1:], 1e-6))

    def predict(self, run, model, k):
        seq = self.predict_windows[k % 1000]
        run.op("predict", model.predict, seq[:-1],
               check=lambda x: _gate_step(x, seq[-1], 1e-9))


WORKLOADS = {cls.name: cls for cls in (AcceptPoly2, VdpRbfControl, KdmdGram, CliCsv)}
