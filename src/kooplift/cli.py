"""Command-line front end: fit, simulate, eig, diff, bench.

Exit codes: 0 success, 2 bad configuration, 3 bad data, 4 regression
failure. Diagnostics go to stderr; outputs are written atomically so error
paths never leave partial files. Outputs are byte-identical across runs for
identical inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .csvio import read_numeric_csv, read_trajectory_csv, write_trajectory_csv
from .data import TrajectoryDataset
from .differentiation import METHODS, DifferentiationConfig, differentiate
from .errors import (ConfigError, DataError, KoopliftError, RegressionError,
                     call_with_options, check_int, check_real)
from .model import fit as fit_model
from .model import RegressorConfig
from .observables import TimeDelay, observable_from_config
from .regression import KernelConfig
from .serialize import atomic_write_text, load_model, save_model
from .systems import (
    SYSTEM_NAMES,
    get_system,
    integrate_rk4,
    linear2d_step,
    torus_signal,
)

_FIT_KEYS = {"observables", "regressor", "dt", "output"}


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None


def _seeded(obs_cfg, seed: int):
    """The observable config with `seed` given to each rbf or random_fourier
    config, at the top or among concat parts, that sets none itself."""
    if not isinstance(obs_cfg, dict):
        return obs_cfg
    if obs_cfg.get("kind") in ("rbf", "random_fourier") and "seed" not in obs_cfg:
        return {**obs_cfg, "seed": seed}
    if obs_cfg.get("kind") == "concat" and isinstance(obs_cfg.get("parts"), list):
        return {**obs_cfg, "parts": [_seeded(p, seed) for p in obs_cfg["parts"]]}
    return obs_cfg


def _parse_fit_config(cfg: dict, seed=None):
    if not isinstance(cfg, dict):
        raise ConfigError("fit config must be a JSON object")
    extra = set(cfg) - _FIT_KEYS
    if extra:
        raise ConfigError(f"unknown keys in fit config: {sorted(extra)}")
    obs_cfg = cfg.get("observables", {"kind": "identity"})
    if seed is not None:
        obs_cfg = _seeded(obs_cfg, seed)
    library = observable_from_config(obs_cfg)
    reg_cfg = cfg.get("regressor", {})
    if not isinstance(reg_cfg, dict):
        raise ConfigError("regressor config must be a JSON object")
    # n_inputs is read by the CSV reader, the rest by RegressorConfig
    options = {k: v for k, v in reg_cfg.items() if k != "n_inputs"}
    if "kernel" in options:
        options["kernel"] = KernelConfig.from_dict(options["kernel"])
    regressor = call_with_options(RegressorConfig, options, "regressor")
    n_inputs = check_int(reg_cfg.get("n_inputs", 0), "n_inputs", 0)
    dt_override = cfg.get("dt")
    if dt_override is not None:
        dt_override = check_real(dt_override, "dt", positive=True)
    return library, regressor, n_inputs, dt_override, cfg.get("output")


def _eig_table(model, scores=None):
    lam = model.eigenvalues
    mus = model.continuous_eigenvalues()
    rows = []
    for j in range(lam.shape[0]):
        row = {
            "index": j,
            "lambda_re": float(lam[j].real),
            "lambda_im": float(lam[j].imag),
            "lambda_abs": float(abs(lam[j])),
            "mu_re": float(mus[j].real),
            "mu_im": float(mus[j].imag),
        }
        if scores is not None:
            row["score"] = float(scores[j])
        rows.append(row)
    return rows


def _print_table(rows, stream):
    if not rows:
        return
    cols = list(rows[0].keys())
    widths = {c: max(len(c), 14) for c in cols}
    stream.write("  ".join(c.rjust(widths[c]) for c in cols) + "\n")
    for row in rows:
        cells = []
        for c in cols:
            v = row[c]
            cells.append(
                (f"{v:d}" if isinstance(v, int) else f"{v: .6e}").rjust(widths[c])
            )
        stream.write("  ".join(cells) + "\n")


def cmd_fit(args) -> int:
    cfg = _load_json(args.config)
    library, regressor, n_inputs, dt_override, cfg_output = _parse_fit_config(
        cfg, seed=args.seed
    )
    out_path = args.model or cfg_output
    if out_path is None:
        raise ConfigError("no output model path: pass it as an argument or set "
                          "'output' in the config")
    data = read_trajectory_csv(args.data, n_inputs=n_inputs)
    if dt_override is not None:
        data = TrajectoryDataset(data.trajectories, dt_override, inputs=data.inputs)
    model = fit_model(library, regressor, data)
    save_model(model, out_path)
    lam = model.eigenvalues[:10]
    mus = model.continuous_eigenvalues()[:10]
    if args.json:
        payload = {
            "model": out_path,
            "m": model.metadata["m"],
            "rank": model.metadata["rank"],
            "residual": model.metadata["residual"],
            "eigenvalues": [[v.real, v.imag] for v in lam],
            "continuous_eigenvalues": [[v.real, v.imag] for v in mus],
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    elif not args.quiet:
        sys.stdout.write(
            f"fit: m={model.metadata['m']} rank={model.metadata['rank']} "
            f"residual={model.metadata['residual']:.6e}\n"
        )
        sys.stdout.write(f"model written to {out_path}\n")
        _print_table(_eig_table(model)[:10], sys.stdout)
    return 0


def _parse_x0(text: str) -> np.ndarray:
    try:
        rows = [
            [float(c) for c in chunk.split(",") if c.strip() != ""]
            for chunk in text.split(";")
        ]
    except ValueError:
        raise DataError(f"cannot parse --x0 value {text!r}") from None
    if len({len(row) for row in rows}) > 1:
        raise DataError(f"--x0 rows must all have the same number of values, got {text!r}")
    arr = np.array(rows, dtype=float)
    return arr[0] if arr.shape[0] == 1 else arr


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    x0 = _parse_x0(args.x0)
    if isinstance(model.observables, TimeDelay) and model.observables.delays > 0:
        expected = (model.observables.delays + 1, model.n)
        if np.atleast_2d(x0).shape != expected:
            raise DataError(
                f"time-delay model needs an initial window of shape {expected} "
                f"(rows separated by ';'), got {np.atleast_2d(x0).shape}"
            )
    elif np.atleast_1d(x0).ndim != 1 or np.atleast_1d(x0).shape[0] != model.n:
        raise DataError(f"--x0 must have {model.n} value(s)")
    U = None
    if args.input_csv is not None:
        table = read_numeric_csv(args.input_csv)
        if table.shape[1] < 1 + model.q:
            raise DataError(
                f"input CSV needs time + {model.q} channel column(s), "
                f"got {table.shape[1]} columns"
            )
        if table.shape[0] < args.steps:
            raise DataError(
                f"input CSV has {table.shape[0]} rows, need {args.steps}"
            )
        U = table[: args.steps, 1 : 1 + model.q].T
    traj = model.simulate(x0, args.steps, U=U)
    write_trajectory_csv(args.out, [traj], dt=model.dt)
    if args.json:
        sys.stdout.write(json.dumps({"out": args.out, "rows": int(traj.shape[0])}) + "\n")
    elif not args.quiet:
        sys.stdout.write(f"wrote {traj.shape[0]} rows to {args.out}\n")
    return 0


def cmd_eig(args) -> int:
    model = load_model(args.model)
    scores = None
    if args.data is not None:
        data = read_trajectory_csv(args.data, n_inputs=model.q)
        scores, _ = model.linearity_consistency(data)
    rows = _eig_table(model, scores)
    if args.format == "json":
        sys.stdout.write(json.dumps(rows, sort_keys=True) + "\n")
    elif args.format == "csv":
        # the values are Python ints and floats, written with repr
        cols = list(rows[0].keys()) if rows else []
        lines = [",".join(cols), *(",".join(map(repr, row.values())) for row in rows)]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _print_table(rows, sys.stdout)
    return 0


def cmd_diff(args) -> int:
    config = DifferentiationConfig(
        method=args.method,
        window=args.window,
        smoothing=args.smoothing,
        tv_lambda=args.tv_lambda,
        tv_iters=args.tv_iters,
        periodic=args.periodic,
    )
    data = read_trajectory_csv(args.data, n_inputs=0)
    derivs = []
    for traj in data.trajectories:
        t = np.arange(traj.shape[0]) * data.dt
        derivs.append(differentiate(config, traj, t))
    write_trajectory_csv(args.out, derivs, dt=data.dt)
    if not args.quiet and not args.json:
        sys.stdout.write(f"wrote derivatives for {len(derivs)} trajectorie(s) to {args.out}\n")
    elif args.json:
        sys.stdout.write(json.dumps({"out": args.out, "trajectories": len(derivs)}) + "\n")
    return 0


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--params expects key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        try:
            params[key.strip()] = float(val)
        except ValueError:
            raise ConfigError(f"parameter {key!r} has non-numeric value {val!r}") from None
    return params


def cmd_bench(args) -> int:
    params = _parse_params(args.params)
    check_real(args.dt, "--dt", positive=True)
    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    if args.system == "torus":
        if params:
            raise ConfigError("torus takes no --params")
        t = np.arange(args.steps + 1) * args.dt
        traj = torus_signal(t)
    elif args.system == "linear2d":
        x0 = _parse_x0(args.x0) if args.x0 else np.ones(2)
        if np.atleast_1d(x0).shape != (2,):
            raise DataError("--x0 must have 2 values for linear2d")
        traj = np.empty((args.steps + 1, 2))
        traj[0] = x0
        for k in range(args.steps):
            traj[k + 1] = linear2d_step(traj[k])
    else:
        spec = get_system(args.system, **params)
        x0 = _parse_x0(args.x0) if args.x0 else np.ones(spec.n)
        if np.atleast_1d(x0).shape != (spec.n,):
            raise DataError(f"--x0 must have {spec.n} value(s) for {args.system}")
        traj = integrate_rk4(spec, x0, args.dt, args.steps)
    write_trajectory_csv(args.out, [traj], dt=args.dt)
    if args.json:
        sys.stdout.write(json.dumps({"out": args.out, "rows": int(traj.shape[0])}) + "\n")
    elif not args.quiet:
        sys.stdout.write(f"wrote {traj.shape[0]} rows to {args.out}\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="default RNG seed")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--quiet", action="store_true", help="suppress report output")

    parser = argparse.ArgumentParser(
        prog="kooplift",
        description="Lift trajectories into observable space and fit linear "
        "evolution operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", parents=[common], help="fit a model from a trajectory CSV")
    p.add_argument("config", help="fit config JSON")
    p.add_argument("data", help="trajectory CSV")
    p.add_argument("model", nargs="?", default=None, help="output model JSON")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", parents=[common], help="roll a model forward")
    p.add_argument("model", help="model JSON")
    p.add_argument("out", help="output trajectory CSV")
    p.add_argument("--x0", required=True,
                   help="initial state 'a,b,...' (use ';' between window rows "
                        "for time-delay models)")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--input-csv", default=None, help="CSV of inputs (time + channels)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("eig", parents=[common], help="inspect the fitted spectrum")
    p.add_argument("model", help="model JSON")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--data", default=None,
                   help="trajectory CSV for per-mode linearity scores")
    p.set_defaults(func=cmd_eig)

    p = sub.add_parser("diff", parents=[common], help="differentiate a trajectory CSV")
    p.add_argument("data", help="trajectory CSV")
    p.add_argument("out", help="output derivative CSV")
    p.add_argument("--method", choices=METHODS, default="fd2")
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--smoothing", type=float, default=0.0)
    p.add_argument("--tv-lambda", type=float, default=1e-4)
    p.add_argument("--tv-iters", type=int, default=100)
    p.add_argument("--periodic", action="store_true")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("bench", parents=[common], help="generate benchmark data")
    p.add_argument("out", help="output trajectory CSV")
    p.add_argument("--system", required=True, choices=SYSTEM_NAMES + ("linear2d", "torus"))
    p.add_argument("--x0", default=None, help="initial state 'a,b,...'")
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--params", action="append", default=None, metavar="KEY=VAL")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KoopliftError as exc:
        sys.stderr.write(f"error: {exc}\n")
        codes = ((ConfigError, 2), (DataError, 3), (RegressionError, 4))
        return next((code for cls, code in codes if isinstance(exc, cls)), 1)


if __name__ == "__main__":
    sys.exit(main())
