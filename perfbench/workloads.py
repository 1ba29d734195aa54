"""The benchmark's workloads: the calls each one times, and how their outputs
are digested and checked.

Every workload is a fixed list of calls into a public leo entry point, built
from the workload seed. One pass over that list is a cycle; the runner
repeats cycles until its time is up, so every cycle does the same work and
must give the same digest.
"""

from __future__ import annotations

import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from leo import cli, experiments
from leo.experiments import DEFAULT_DIMENSION_GRID, TrialSpec
from leo.learning import TrainConfig

# One `leo montecarlo --dims "2,1,1;3,2,1;4,3,2" --trials 10` call per cycle;
# run_monte_carlo refuses fewer than 10 trials.
MC_DIMS = ((2, 1, 1), (3, 2, 1), (4, 3, 2))
MC_TRIALS = 10
# Cases per suite in one `leo theory-check` call; the CLI runs four suites.
THEORY_CASES = 100
THEORY_SUITES = 4
# Training epochs of a --tiny run (the smoke test); full runs use the default 250.
TINY_EPOCHS = 25

# Tolerances of the output check, stored with the references they apply to.
TRIAL_TOLERANCE = {"rtol": 1e-9, "atol": 1e-12}
# The CLI prints residuals to four significant digits.
THEORY_TOLERANCE = {"rtol": 1e-3, "atol": 1e-12}


@dataclass(frozen=True)
class Call:
    """One timed call into the program; ``ops`` operations complete in it."""

    kind: str
    ops: int
    run: Callable[[], object]


@dataclass(frozen=True)
class Workload:
    name: str
    op_name: str  # what one operation is, for the printed report
    tolerance: dict
    calls: Callable[[int, bool], list[Call]]
    warmup: Callable[[int], object]  # untimed call that loads lazy code paths
    digest: Callable[[object], object]
    problems: Callable[[object], list[str]]
    failed_ops: Callable[[object], int]


def _guard(fn):
    """Run fn; an exception becomes the call's output so the run goes on."""
    try:
        return fn()
    except Exception as exc:  # the benchmark reports it as a failed operation
        return {"error": f"{type(exc).__name__}: {exc}"}


def _train_cfg(rollout: str, tiny: bool) -> TrainConfig:
    cfg = TrainConfig(rollout_mode=rollout)
    return replace(cfg, epochs=TINY_EPOCHS) if tiny else cfg


# --------------------------------------------------------------- Monte Carlo


def _mc_calls(rollout: str):
    def calls(seed: int, tiny: bool) -> list[Call]:
        cfg = _train_cfg(rollout, tiny)
        dims_list = list(MC_DIMS[:1] if tiny else MC_DIMS)
        return [Call(
            kind="montecarlo",
            ops=MC_TRIALS * len(dims_list),
            run=lambda: _guard(lambda: experiments.run_monte_carlo(
                dims_list, trials=MC_TRIALS, master_seed=seed, train_cfg=cfg, parallel=1)),
        )]

    return calls


def _mc_warmup(rollout: str):
    cfg = _train_cfg(rollout, True)
    return lambda seed: experiments.run_trial(TrialSpec(dims=MC_DIMS[0], seed=seed), cfg)


def _trial_errors(r) -> list[float]:
    return [r.e_nominal_open, r.e_enhanced_open, r.e_nominal_closed, r.e_enhanced_closed]


def _flag_state(flags: dict) -> str:
    if flags.get("error"):
        return "error"
    return "divergence" if flags.get("divergence") else "ok"


def _mc_digest(out):
    if isinstance(out, dict):
        return out
    summaries, results = out
    keys = ("err_open_pct", "err_closed_pct", "sr_open", "sr_closed", "p_open", "p_closed", "failures")
    return {
        "summaries": [{"dims": list(s.dims), **{k: getattr(s, k) for k in keys}} for s in summaries],
        "trials": [_trial_errors(r) + [_flag_state(r.flags)] for r in results],
    }


def _trimmed_mean(values, k: int) -> float:
    vals = sorted(values)
    return float(np.mean(vals[k: len(vals) - k]))


def _reduction(e_nom: float, e_enh: float) -> float:
    if e_nom == e_enh or not math.isfinite(e_nom) or e_nom <= 0.0:
        return 0.0
    return 100.0 * (e_nom - e_enh) / e_nom


def _close(a: float, b: float, rtol: float = 1e-9, atol: float = 1e-12) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def _mc_problems(out) -> list[str]:
    """Recompute ERR/SR/p from the per-trial errors, independently of leo."""
    from scipy import stats

    if isinstance(out, dict):
        return [out["error"]]
    summaries, results = out
    problems = []
    if len(results) != MC_TRIALS * len(summaries):
        problems.append(f"{len(results)} trial results for {len(summaries)} triples")
    for i, summary in enumerate(summaries):
        tag = "x".join(map(str, summary.dims))
        errs = np.array([_trial_errors(r) for r in results[i * MC_TRIALS:(i + 1) * MC_TRIALS]])
        if not np.all(np.isfinite(errs)) or np.any(errs < 0):
            problems.append(f"{tag}: non-finite or negative trial error")
            continue
        for side, nom, enh in (("open", 0, 1), ("closed", 2, 3)):
            red = [_reduction(a, b) for a, b in errs[:, [nom, enh]]]
            checks = {
                f"err_{side}_pct": _trimmed_mean(red, int(0.10 * len(red))),
                f"sr_{side}": float(np.mean(errs[:, enh] < errs[:, nom])),
            }
            d = errs[:, nom] - errs[:, enh]
            # scipy's exact test matches leo's only without zero or tied differences.
            if np.all(d != 0) and np.unique(np.abs(d)).size == d.size:
                checks[f"p_{side}"] = float(stats.wilcoxon(
                    errs[:, nom], errs[:, enh], alternative="greater", method="exact").pvalue)
            for key, want in checks.items():
                got = getattr(summary, key)
                if not _close(got, want):
                    problems.append(f"{tag} {key}: leo {got!r} != recomputed {want!r}")
    return problems


def _mc_failed(out) -> int:
    if isinstance(out, dict):
        return MC_TRIALS * len(MC_DIMS)
    _, results = out
    return sum(1 for r in results if _flag_state(r.flags) != "ok")


# -------------------------------------------------------------- single trial


def _trial_calls(seed: int, tiny: bool) -> list[Call]:
    grid = DEFAULT_DIMENSION_GRID[:2] if tiny else DEFAULT_DIMENSION_GRID
    cfg = _train_cfg("luenberger", tiny)
    specs = [TrialSpec(dims=dims, seed=seed) for dims in grid]
    return [
        Call(
            kind="x".join(map(str, spec.dims)),
            ops=1,
            run=lambda spec=spec: _guard(lambda: experiments.run_trial(spec, cfg)),
        )
        for spec in specs
    ]


def _trial_digest(out):
    if isinstance(out, dict):
        return out
    return {
        "dims": list(out.spec.dims),
        "errors": _trial_errors(out),
        "reductions": [out.reduction_open_pct, out.reduction_closed_pct],
        "state": _flag_state(out.flags),
    }


def _trial_problems(out) -> list[str]:
    if isinstance(out, dict):
        return [out["error"]]
    e = _trial_errors(out)
    problems = []
    if not all(math.isfinite(x) and x > 0 for x in e):
        problems.append(f"{out.spec.dims}: non-finite or non-positive error {e}")
    for got, want in ((out.reduction_open_pct, _reduction(e[0], e[1])),
                      (out.reduction_closed_pct, _reduction(e[2], e[3]))):
        if not _close(got, want):
            problems.append(f"{out.spec.dims}: reduction {got!r} != recomputed {want!r}")
    return problems


def _trial_failed(out) -> int:
    return 1 if isinstance(out, dict) or _flag_state(out.flags) != "ok" else 0


# -------------------------------------------------------------- theory check


def _theory_calls(seed: int, tiny: bool) -> list[Call]:
    cases = 5 if tiny else THEORY_CASES
    argv = ["theory-check", "--cases", str(cases), "--seed", str(seed)]
    return [Call(kind="theory-check", ops=THEORY_SUITES * cases, run=lambda: _run_cli(argv))]


def _run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _theory_suites(out) -> dict:
    """Parse `check NAME: STATUS  worst residual R (threshold T)` lines."""
    suites = {}
    for line in out["stdout"].splitlines():
        if not line.startswith("check "):
            continue
        head, _, rest = line[len("check "):].partition(":")
        words = rest.split()
        suites[head] = {
            "status": words[0],
            "worst_residual": float(words[3]),
            "threshold": float(words[5].rstrip(")")),
        }
    return suites


def _theory_digest(out):
    return {"exit": out["exit"], "suites": _theory_suites(out)}


def _theory_problems(out) -> list[str]:
    problems = []
    if out["exit"] != 0:
        problems.append(f"theory-check exited {out['exit']}: {out['stderr'].strip()}")
    suites = _theory_suites(out)
    if len(suites) != THEORY_SUITES:
        problems.append(f"expected {THEORY_SUITES} suites, parsed {sorted(suites)}")
    for name, s in suites.items():
        if s["status"] != "PASS" or not s["worst_residual"] <= s["threshold"]:
            problems.append(f"suite {name}: {s}")
    return problems


def _theory_failed(out) -> int:
    return 0 if out["exit"] == 0 else 1


def _trial_warmup(seed: int):
    cfg = _train_cfg("luenberger", True)
    return experiments.run_trial(TrialSpec(dims=DEFAULT_DIMENSION_GRID[0], seed=seed), cfg)


def _theory_warmup(seed: int):
    return _run_cli(["theory-check", "--cases", "5", "--seed", str(seed)])


WORKLOADS = {
    "mc_closed": Workload(
        "mc_closed", "trial", TRIAL_TOLERANCE, _mc_calls("luenberger"),
        _mc_warmup("luenberger"), _mc_digest, _mc_problems, _mc_failed,
    ),
    "mc_open": Workload(
        "mc_open", "trial", TRIAL_TOLERANCE, _mc_calls("open_loop"),
        _mc_warmup("open_loop"), _mc_digest, _mc_problems, _mc_failed,
    ),
    "trial_single": Workload(
        "trial_single", "trial", TRIAL_TOLERANCE, _trial_calls,
        _trial_warmup, _trial_digest, _trial_problems, _trial_failed,
    ),
    "theory_check": Workload(
        "theory_check", "oracle case of one suite", THEORY_TOLERANCE, _theory_calls,
        _theory_warmup, _theory_digest, _theory_problems, _theory_failed,
    ),
}


def compare(actual, reference, rtol: float, atol: float, path: str = "") -> list[str]:
    """Differences between two digests; floats within atol + rtol*|ref|."""
    if isinstance(reference, dict) and isinstance(actual, dict):
        if set(actual) != set(reference):
            return [f"{path}: keys {sorted(actual)} != {sorted(reference)}"]
        return [m for k in reference for m in compare(actual[k], reference[k], rtol, atol, f"{path}/{k}")]
    if isinstance(reference, list) and isinstance(actual, list):
        if len(actual) != len(reference):
            return [f"{path}: length {len(actual)} != {len(reference)}"]
        return [m for i, (a, r) in enumerate(zip(actual, reference))
                for m in compare(a, r, rtol, atol, f"{path}[{i}]")]
    if isinstance(reference, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        if math.isnan(reference) and math.isnan(actual):
            return []
        if actual == reference or abs(actual - reference) <= atol + rtol * abs(reference):
            return []
        return [f"{path}: {actual!r} != reference {reference!r}"]
    if actual != reference or type(actual) is not type(reference):
        return [f"{path}: {actual!r} != reference {reference!r}"]
    return []
