"""Command-line entry point.

Subcommands: ``demo`` (bundled two-state showcase system, emits plot-ready
per-step CSV), ``trial`` (one seeded trial as JSON), ``montecarlo`` (the
full statistical comparison), ``theory-check`` (constructive-theory oracle
suites). Exit codes: 0 success, 1 check failure, 2 usage/config error.

Options may come from a flat ``key = value`` config file (``--config``);
explicit flags win. Unknown config keys, and boolean values other than
1/0/true/false/yes/no/on/off, are rejected. ``LEO_SEED`` is the seed
fallback when neither source sets one.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .exceptions import LeoError
from .experiments import (
    DEFAULT_DIMENSION_GRID,
    ZERO_REFERENCE_TOL,
    TrialSpec,
    execute_trial,
    run_monte_carlo,
)
from .learning import TrainConfig
from .local_lti import run_theory_checks
from .lti_core import LtiParams, TrueSystem, kernel_name, _blas_core, _load_kernel

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

_CONFIG_KEYS = {
    "seed",
    "out_dir",
    "dims",
    "trials",
    "epochs",
    "format",
    "two_sided",
    "rollout",
    "parallel",
    "cases",
}

_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}

# Bundled two-state showcase system: real model, its initial state, and the
# perturbed nominal model the refinement starts from.
DEMO_REAL = LtiParams(
    A=[[1.0200, 0.6800], [-0.6800, 0.3400]],
    B=[[1.5000], [0.7000]],
    C=[[1.0000, 0.0000]],
)
DEMO_X0_REAL = np.array([0.4617, 0.2674])
DEMO_NOMINAL = LtiParams(
    A=[[1.0368, 0.6864], [-0.6683, 0.3515]],
    B=[[1.4439], [0.6907]],
    C=[[1.1104, -0.0319]],
)
DEMO_X0_GUESS = np.array([5.8107, 8.3609])


def demo_system() -> TrueSystem:
    return TrueSystem(
        real=DEMO_REAL,
        delta_A=DEMO_REAL.A - DEMO_NOMINAL.A,
        delta_B=DEMO_REAL.B - DEMO_NOMINAL.B,
        delta_C=DEMO_REAL.C - DEMO_NOMINAL.C,
        x0_real=DEMO_X0_REAL,
    )


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _version_string() -> str:
    """``git describe`` of the checkout this package is in, or, where no
    repository tracks this file (an installed copy, even inside another
    project's repository), ``leo-observer-<version>``."""
    here, name = os.path.split(os.path.abspath(__file__))

    def git(*args):
        return subprocess.run(["git", *args], capture_output=True, text=True, timeout=5, cwd=here)

    try:
        if git("ls-files", "--error-unmatch", name).returncode == 0:
            out = git("describe", "--always", "--dirty")
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):  # no git, or it hangs
        pass
    return f"leo-observer-{__version__}"


class _VersionAction(argparse.Action):
    """``--version`` that runs ``git describe`` only when the flag is given."""

    def __call__(self, parser, namespace, values, option_string=None):
        print(_version_string())
        parser.exit()


def _parse_config_file(path: str) -> dict:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown config key '{key}'")
            values[key] = val.strip()
    return values


def _parse_dims(text: str) -> list[tuple[int, int, int]]:
    dims_list = []
    for chunk in text.split(";"):
        parts = [p for p in chunk.replace(" ", "").split(",") if p]
        if len(parts) != 3:
            raise ValueError(f"dims entry '{chunk}' is not of the form n,p,q")
        values = []
        for part in parts:
            try:
                values.append(int(part))
            except ValueError:
                raise ValueError(f"dims entry '{chunk}' has a non-integer value '{part}'") from None
        dims_list.append(tuple(values))
    if not dims_list:
        raise ValueError("empty dims list")
    return dims_list


def _resolve(args, config: dict, key: str, cast, fallback):
    flag_val = getattr(args, key, None)
    if flag_val is not None:
        return flag_val
    if key in config:
        raw = config[key]
        if cast is bool:
            if raw.lower() not in _BOOLEANS:
                raise ValueError(f"{key} must be one of {', '.join(_BOOLEANS)}, got '{raw}'")
            return _BOOLEANS[raw.lower()]
        try:
            return cast(raw)
        except ValueError:  # int is the one cast that can fail
            raise ValueError(f"config key '{key}' must be an integer, got {raw!r}") from None
    return fallback


def _seed(args, config: dict) -> int:
    """The master seed: ``--seed``, else the config's ``seed``, else
    ``LEO_SEED``, else 0. A negative or non-integer value is a usage error
    that names where it came from."""
    if getattr(args, "seed", None) is not None:
        source, raw = "--seed", args.seed
    elif "seed" in config:
        source, raw = "config key 'seed'", config["seed"]
    elif "LEO_SEED" in os.environ:
        source, raw = "environment variable LEO_SEED", os.environ["LEO_SEED"]
    else:
        return 0
    try:
        seed = int(raw)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {raw!r}")
    return seed


def _build_train_cfg(epochs: int | None, rollout: str | None) -> TrainConfig:
    cfg = TrainConfig()
    if epochs is not None:
        cfg = replace(cfg, epochs=epochs)
    if rollout is not None:
        cfg = replace(cfg, rollout_mode=rollout)
    return cfg


def _demo_csv(execution) -> str:
    truth = execution.truth
    rolls = execution.rollouts
    noise_w, noise_v = execution.noise.w, execution.noise.v
    T = truth.horizon
    n = truth.states.shape[1]
    kinds = ("open_nom", "open_enh", "luen_nom", "luen_enh")
    roll_of = {
        "open_nom": rolls["nom_open"],
        "open_enh": rolls["enh_open"],
        "luen_nom": rolls["nom_closed"],
        "luen_enh": rolls["enh_closed"],
    }
    header = ["k", "u", "v"] + [f"w{i + 1}" for i in range(n)]
    for i in range(n):
        header.append(f"x{i + 1}_real")
        header += [f"x{i + 1}_{kind}" for kind in kinds]
    for i in range(n):
        header += [f"e{i + 1}_{kind}" for kind in kinds]

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for k in range(T + 1):
        row = [str(k)]
        row.append(_fmt(truth.inputs[k, 0]) if k < T else "")
        row.append(_fmt(noise_v[k, 0]))
        for i in range(n):
            row.append(_fmt(noise_w[k, i]) if k < T else "")
        for i in range(n):
            row.append(_fmt(truth.states[k, i]))
            row += [_fmt(roll_of[kind].states[k, i]) for kind in kinds]
        for i in range(n):
            ref = truth.states[k, i]
            for kind in kinds:
                if abs(ref) < ZERO_REFERENCE_TOL:
                    row.append("")
                else:
                    row.append(_fmt(abs((roll_of[kind].states[k, i] - ref) / ref)))
        writer.writerow(row)
    return buf.getvalue()


def cmd_demo(args, config: dict) -> int:
    seed = _seed(args, config)
    out_dir = _resolve(args, config, "out_dir", str, ".")
    epochs = _resolve(args, config, "epochs", int, None)
    rollout = _resolve(args, config, "rollout", str, None)
    cfg = _build_train_cfg(epochs, rollout)
    spec = TrialSpec(dims=(2, 1, 1), seed=seed)
    system = demo_system()

    execution = execute_trial(
        spec, cfg, system_override=system, x0_hat_override=DEMO_X0_GUESS
    )
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "demo_trajectories.csv")
    _atomic_write(csv_path, _demo_csv(execution))

    e = execution.errors
    result = execution.result()
    print(f"wrote {csv_path} ({spec.horizon + 1} data rows)")
    print("steady-state normalized errors:")
    print(f"  open loop   nominal {e['nom_open']:.6f}  enhanced {e['enh_open']:.6f}  "
          f"reduction {result.reduction_open_pct:+.2f}%")
    print(f"  closed loop nominal {e['nom_closed']:.6f}  enhanced {e['enh_closed']:.6f}  "
          f"reduction {result.reduction_closed_pct:+.2f}%")
    return EXIT_OK


def cmd_trial(args, config: dict) -> int:
    seed = _seed(args, config)
    epochs = _resolve(args, config, "epochs", int, None)
    rollout = _resolve(args, config, "rollout", str, None)
    dims_list = _parse_dims(_resolve(args, config, "dims", str, "2,1,1"))
    if len(dims_list) != 1:
        raise ValueError("trial takes exactly one n,p,q triple")
    spec = TrialSpec(dims=dims_list[0], seed=seed)
    cfg = _build_train_cfg(epochs, rollout)
    execution = execute_trial(spec, cfg)
    print(json.dumps(execution.result().to_json(), indent=2))
    if args.dump_params:
        _atomic_write(args.dump_params, json.dumps(execution.enhanced.to_json(), indent=2))
        print(f"wrote learned parameters to {args.dump_params}", file=sys.stderr)
    return EXIT_OK


def _c_passes() -> dict:
    """Which C passes load in this process (the kernel loads if no kernel
    call has yet): the time-step loop, the loss pass, the placement pass
    and the training pass."""
    kernel = _load_kernel()
    return {
        "loop": bool(kernel.loop),
        "loss": bool(kernel.loss),
        "placement": bool(kernel.place),
        "train": bool(kernel.train),
    }


def _summary_table(summaries) -> str:
    lines = [
        f"{'(n,p,q)':<10} {'ERR_open':>9} {'SR_open':>8} {'p_open':>10} "
        f"{'ERR_closed':>11} {'SR_closed':>10} {'p_closed':>10}"
    ]
    for s in summaries:
        dims = f"({s.dims[0]},{s.dims[1]},{s.dims[2]})"
        lines.append(
            f"{dims:<10} {s.err_open_pct:>8.2f}% {s.sr_open:>7.0%} {s.p_open:>10.2e} "
            f"{s.err_closed_pct:>10.2f}% {s.sr_closed:>9.0%} {s.p_closed:>10.2e}"
        )
    return "\n".join(lines)


def _trials_csv(results) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "dims", "seed", "trial_index",
            "e_nom_open", "e_enh_open", "e_nom_cl", "e_enh_cl",
            "red_open_pct", "red_cl_pct", "flags",
        ]
    )
    for r in results:
        flags = ";".join(sorted(k for k, v in r.flags.items() if v))
        writer.writerow(
            [
                "x".join(str(d) for d in r.spec.dims),
                str(r.spec.seed),
                str(r.spec.trial_index),
                _fmt(r.e_nominal_open), _fmt(r.e_enhanced_open),
                _fmt(r.e_nominal_closed), _fmt(r.e_enhanced_closed),
                _fmt(r.reduction_open_pct), _fmt(r.reduction_closed_pct),
                flags,
            ]
        )
    return buf.getvalue()


def cmd_montecarlo(args, config: dict) -> int:
    seed = _seed(args, config)
    out_dir = _resolve(args, config, "out_dir", str, ".")
    trials = _resolve(args, config, "trials", int, 100)
    epochs = _resolve(args, config, "epochs", int, None)
    rollout = _resolve(args, config, "rollout", str, None)
    parallel = _resolve(args, config, "parallel", int, 1)
    out_format = _resolve(args, config, "format", str, "csv")
    two_sided = _resolve(args, config, "two_sided", bool, False)
    dims_text = _resolve(args, config, "dims", str, None)
    dims_list = list(DEFAULT_DIMENSION_GRID) if dims_text is None else _parse_dims(dims_text)
    if out_format not in ("csv", "json"):
        raise ValueError("format must be csv or json")
    cfg = _build_train_cfg(epochs, rollout)

    summaries, results = run_monte_carlo(
        dims_list,
        trials=trials,
        master_seed=seed,
        train_cfg=cfg,
        parallel=parallel,
        two_sided=two_sided,
    )

    os.makedirs(out_dir, exist_ok=True)
    if out_format == "csv":
        trials_path = os.path.join(out_dir, "trials.csv")
        _atomic_write(trials_path, _trials_csv(results))
    else:
        trials_path = os.path.join(out_dir, "trials.json")
        _atomic_write(
            trials_path, json.dumps([r.to_json() for r in results], indent=1) + "\n"
        )
    summary_path = os.path.join(out_dir, "summary.json")
    payload = {
        "version": _version_string(),
        "kernel": kernel_name(),
        "c_passes": _c_passes(),
        "blas_core": _blas_core(),
        "config": {
            "trials": trials,
            "master_seed": seed,
            "dims": [list(d) for d in dims_list],
            "epochs": cfg.epochs,
            "rollout_mode": cfg.rollout_mode,
            "two_sided": two_sided,
        },
        "summaries": [s.to_json() for s in summaries],
    }
    _atomic_write(summary_path, json.dumps(payload, indent=1) + "\n")

    print(_summary_table(summaries))
    print(f"wrote {trials_path} and {summary_path}")
    return EXIT_OK


def cmd_theory_check(args, config: dict) -> int:
    seed = _seed(args, config)
    cases = _resolve(args, config, "cases", int, 100)
    report = run_theory_checks(cases=cases, seed=seed)
    all_passed = True
    for name, info in report.items():
        status = "PASS" if info["passed"] else "FAIL"
        all_passed &= info["passed"]
        print(
            f"check {name}: {status}  worst residual {info['worst_residual']:.3e}"
            f" (threshold {info['threshold']:.0e})"
        )
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leo",
        description="Learning-enhanced Luenberger observers for uncertain LTI systems.",
    )
    parser.add_argument(
        "--version", action=_VersionAction, nargs=0, default=argparse.SUPPRESS,
        help="show program's version number and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", metavar="PATH",
        help="flat 'key = value' config file; accepted keys: "
        + ", ".join(sorted(_CONFIG_KEYS)) + "; explicit flags win",
    )
    common.add_argument("--seed", type=int, help="master seed (fallback: env LEO_SEED, then 0)")
    common.add_argument("--out-dir", dest="out_dir", metavar="PATH", help="output directory")

    train_opts = argparse.ArgumentParser(add_help=False)
    train_opts.add_argument("--epochs", type=int, help="training epochs (default 250)")
    train_opts.add_argument(
        "--rollout", choices=["luenberger", "open_loop"],
        help="observer structure used inside the training loss",
    )

    p_demo = sub.add_parser(
        "demo", parents=[common, train_opts],
        help="run the bundled two-state example and emit plot-ready CSV",
    )
    p_demo.set_defaults(func=cmd_demo)

    p_trial = sub.add_parser(
        "trial", parents=[common, train_opts], help="run one seeded trial, print JSON"
    )
    p_trial.add_argument("--dims", help="one n,p,q triple (default 2,1,1)")
    p_trial.add_argument(
        "--dump-params", metavar="PATH", help="also write the learned matrices as JSON"
    )
    p_trial.set_defaults(func=cmd_trial)

    p_mc = sub.add_parser(
        "montecarlo", parents=[common, train_opts],
        help="run the randomized comparison over dimension triples",
    )
    p_mc.add_argument("--dims", help="semicolon-separated n,p,q triples (default: full grid)")
    p_mc.add_argument("--trials", type=int, help="trials per triple (>= 10, default 100)")
    p_mc.add_argument("--parallel", type=int, help="worker processes (default 1)")
    p_mc.add_argument("--format", choices=["csv", "json"], help="per-trial dump format")
    p_mc.add_argument(
        "--two-sided", action="store_true", default=None,
        help="two-sided signed-rank test instead of the one-sided improvement test",
    )
    p_mc.set_defaults(func=cmd_montecarlo)

    p_theory = sub.add_parser(
        "theory-check", parents=[common],
        help="run the constructive-theory oracle suites",
    )
    p_theory.add_argument("--cases", type=int, help="cases per suite (default 100)")
    p_theory.set_defaults(func=cmd_theory_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors already
        return int(exc.code or 0)
    config: dict = {}
    try:
        if getattr(args, "config", None):
            config = _parse_config_file(args.config)
        return args.func(args, config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LeoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
