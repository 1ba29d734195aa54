"""Benchmark of the leo Monte Carlo pipeline, end to end and per layer.

    python3 perfbench/run.py --workload mc_closed --seed 0 --seconds 20 --trace 0

Runs one workload (see perfbench/README.md) from the repository root, checks
its outputs, and prints a report followed by one JSON line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones, timed with tracing off; with ``--trace 1``
the run times an untraced pass, then a traced pass, and reports the
per-layer metrics. ``--workload all`` runs every workload, one child process
each, and prints every end-to-end metric. The exit code is nonzero when an
output does not match its reference or fails its check.
"""

import os

# Pin BLAS threading before numpy loads: the timed work is single-threaded
# numerics on matrices of order <= 4, and idle BLAS threads only add noise.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFS = HERE / "refs"

WORKLOAD_NAMES = ("mc_closed", "mc_open", "trial_single", "theory_check")
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "call_p50_ms": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "observer.place_observer_poles.calls": "count",
    "observer.place_observer_poles.us_per_call": "us",
    "observer.place_observer_poles.self_share": "ratio",
    "observer.placement_success_ratio": "ratio",
    "observer.run_luenberger.us_per_call": "us",
    "observer.run_open_loop.us_per_call": "us",
    "learning.train.ms_per_call": "ms",
    "learning.train.self_share": "ratio",
    "learning.loss.us_per_call": "us",
    "learning.gradient.us_per_call": "us",
    "learning.adam_step.us_per_call": "us",
    "learning.adam_step.self_share": "ratio",
    "learning.epochs_run": "epochs",
    "learning.useful_epoch_ratio": "ratio",
    "learning.transforms_applied": "count",
    "learning.lr_halvings": "count",
    "learning.aborted": "count",
    "lti_core.is_observable.calls": "count",
    "lti_core.is_observable.us_per_call": "us",
    "lti_core.condition_number.calls": "count",
    "lti_core.condition_number.us_per_call": "us",
    "lti_core.observability_matrix.calls": "count",
    "lti_core.observability_matrix.us_per_call": "us",
    "lti_core.observability.self_share": "ratio",
    "lti_core.simulate_true.us_per_call": "us",
    "lti_core.random_system.us_per_call": "us",
    "lti_core.pinv.us_per_call": "us",
    "experiments.run_trial.self_share": "ratio",
    "experiments.normalized_error.us_per_call": "us",
    "experiments.wilcoxon_signed_rank.us_per_call": "us",
    "local_lti.fit_local_lti.calls": "count",
    "local_lti.fit_local_lti.us_per_call": "us",
    "local_lti.back_solve_initial_state.calls": "count",
    "local_lti.back_solve_initial_state.us_per_call": "us",
    "local_lti.make_invertible.calls": "count",
    "local_lti.make_invertible.us_per_call": "us",
    "local_lti.initial_state_gap_bound.calls": "count",
    "local_lti.initial_state_gap_bound.us_per_call": "us",
    "cli.main.self_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
}
SETUP_REPEATS = 3
DIRECT_REPEATS = 25  # calls of loss/gradient timed on a recorded trial
TIMING_NOTE = "in-process timing only; no machine settings changed, no cache drops"


class SetupError(RuntimeError):
    pass


def _import_workloads():
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


# ------------------------------------------------------------------- set-up


def measure_setup(workload: str, seed: int, repeats: int) -> float:
    """Median wall time of a fresh interpreter importing leo and building specs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError(proc.stderr.strip() or f"set-up probe exited {proc.returncode}")
    return statistics.median(times)


def context() -> dict:
    import numpy
    import scipy

    git = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        git = proc.stdout.strip() or git
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_describe": git,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pinning": {var: os.environ[var] for var in THREAD_VARS},
        "src_leo_lines": sum(len(p.read_text().splitlines()) for p in sorted((SRC / "leo").glob("*.py"))),
        "timing": TIMING_NOTE,
    }


# --------------------------------------------------------------- timed runs


class Pass:
    """Timed cycles of one workload: call durations, outputs and digests."""

    def __init__(self, wl, calls, seconds: float):
        self.calls = calls
        self.durations = [[] for _ in calls]
        self.failed_by_call = [0 for _ in calls]
        self.outputs = None
        self.digest = None
        self.unstable_cycles = 0
        self.cycles = 0
        clock = time.perf_counter
        start = clock()
        while True:
            outputs = []
            for call, durations in zip(calls, self.durations):
                t0 = clock()
                outputs.append(call.run())
                durations.append(clock() - t0)
            digest = [wl.digest(out) for out in outputs]
            self.cycles += 1
            if self.outputs is None:
                self.outputs, self.digest = outputs, digest
            for i, (call, out) in enumerate(zip(calls, outputs)):
                # Same inputs, different outputs: every operation of the call fails.
                unstable = digest[i] != self.digest[i]
                self.failed_by_call[i] += call.ops if unstable else min(call.ops, wl.failed_ops(out))
            self.unstable_cycles += digest != self.digest
            # Stop when another cycle would end more than half a cycle late,
            # so that a run lasts about `seconds` even when cycles are long.
            elapsed = clock() - start
            if elapsed + 0.5 * elapsed / self.cycles >= seconds:
                break

    @property
    def attempted(self) -> int:
        return self.cycles * sum(call.ops for call in self.calls)

    @property
    def all_durations(self) -> list[float]:
        return [d for ds in self.durations for d in ds]

    def ops_per_s(self) -> float:
        """Operations of one cycle over the sum of each call's median time."""
        cycle_s = sum(statistics.median(ds) for ds in self.durations)
        return sum(call.ops for call in self.calls) / cycle_s


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, n) at the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n, n


def digest_sha(digest) -> str:
    """Hash of a digest with floats rounded to 6 significant digits.

    It is for comparing runs of seeds that have no reference; the reference
    check itself compares full values with the stated tolerance.
    """
    def rounded(x):
        if isinstance(x, float):
            return float(f"{x:.6g}")
        if isinstance(x, list):
            return [rounded(v) for v in x]
        if isinstance(x, dict):
            return {k: rounded(v) for k, v in x.items()}
        return x

    text = json.dumps(rounded(digest), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_outputs(wl, wls, p: Pass, seed: int, tiny: bool) -> tuple[list[str], int, str]:
    """Problems found, failed operations, and how the reference check went.

    Every operation of a call whose output has a problem counts as failed.
    """
    problems, failed_ops = [], 0
    ref_status = "not checked (tiny run)"
    reference = None
    if not tiny:
        ref_file = REFS / f"{wl.name}.json"
        refs = json.loads(ref_file.read_text()) if ref_file.exists() else {"seeds": {}}
        reference = refs["seeds"].get(str(seed))
        ref_status = (f"compared with the reference for seed {seed}" if reference is not None
                      else f"no reference for seed {seed}; digest recorded for comparison")
    for i, (call, out) in enumerate(zip(p.calls, p.outputs)):
        found = list(wl.problems(out))
        if reference is not None:
            found += wls.compare(p.digest[i], reference[i], path=f"{wl.name}[{call.kind}]",
                                 **refs["tolerance"])
        problems += found
        failed_ops += call.ops * p.cycles if found else p.failed_by_call[i]
    if p.unstable_cycles:
        problems.append(f"{p.unstable_cycles} cycle(s) gave a digest different from the first")
    return problems, failed_ops, ref_status


# ---------------------------------------------------------------- tracing


class TrainProbe:
    """Collects what the traced ``train`` wrapper sees."""

    def __init__(self):
        self.diagnostics: list[tuple[dict, int]] = []
        self.first_args = None

    def __call__(self, args, kwargs, result):
        if self.first_args is None:
            from leo import learning

            self.first_args = inspect.signature(learning.train).bind(*args, **kwargs).arguments
        self.diagnostics.append((result.diagnostics, len(result.log)))


def time_loss_and_gradient(first_args) -> tuple[float, float]:
    """Median µs of learning.loss and learning.gradient on a recorded trial."""
    from leo import learning, observer

    if first_args is None:
        return 0.0, 0.0
    init, inputs, measured, cfg = (first_args[k] for k in ("init", "inputs", "measured_outputs", "cfg"))
    gain = None
    if cfg.rollout_mode == "luenberger":
        n = init.dims[0]
        gain = observer.place_observer_poles(init.A_hat, init.C_hat,
                                             observer.default_observer_poles(n))
    out = []
    for fn in (learning.loss, learning.gradient):
        times = []
        for _ in range(DIRECT_REPEATS):
            t0 = time.perf_counter()
            fn(init, gain, inputs, measured, cfg, init)
            times.append(time.perf_counter() - t0)
        out.append(statistics.median(times) * 1e6)
    return out[0], out[1]


def layer_metrics(stats: dict, wall: float, cycles: int, probe: TrainProbe,
                  loss_us: float, grad_us: float, overhead_pct: float) -> dict:
    def get(name):
        return stats.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def calls(name):
        return get(name)["calls"] / cycles

    def us_per_call(name):
        s = get(name)
        return s["total_s"] / s["calls"] * 1e6 if s["calls"] else 0.0

    def self_share(*names):
        return sum(get(name)["self_s"] for name in names) / wall

    diag = [d for d, _ in probe.diagnostics]
    logged = sum(n for _, n in probe.diagnostics)
    rollbacks = sum(d["lr_halvings"] for d in diag)
    aborted = sum(bool(d["aborted"]) for d in diag)
    refreshes = sum(d["gain_refreshes"] for d in diag)
    placements = refreshes + sum(d["gain_reuses"] for d in diag)
    cli_self = sum(s["self_s"] for name, s in stats.items() if name.startswith("cli."))
    main_calls = get("cli.main")["calls"]
    m = {
        "observer.place_observer_poles.self_share": self_share("observer.place_observer_poles"),
        "observer.placement_success_ratio": refreshes / placements if placements else 0.0,
        "learning.train.ms_per_call": us_per_call("learning.train") / 1e3,
        "learning.train.self_share": self_share("learning.train"),
        "learning.loss.us_per_call": loss_us,
        "learning.gradient.us_per_call": grad_us,
        "learning.adam_step.self_share": self_share("learning.adam_step"),
        "learning.epochs_run": logged / len(diag) if diag else 0.0,
        "learning.useful_epoch_ratio": logged / (logged + rollbacks + aborted) if diag else 0.0,
        "learning.transforms_applied": sum(d["transforms_applied"] for d in diag) / cycles,
        "learning.lr_halvings": rollbacks / cycles,
        "learning.aborted": aborted / cycles,
        "lti_core.observability.self_share": self_share(
            "lti_core.is_observable", "lti_core.condition_number", "lti_core.observability_matrix"),
        "experiments.run_trial.self_share": self_share(
            "experiments.run_trial", "experiments.execute_trial"),
        "cli.main.self_ms": cli_self / main_calls * 1e3 if main_calls else 0.0,
        "trace.overhead_pct": overhead_pct,
        "trace.coverage_pct": 100.0 * sum(s["self_s"] for s in stats.values()) / wall,
    }
    for name in PER_LAYER:  # the rest are plain calls / us_per_call of one function
        if name not in m:
            fn, _, kind = name.rpartition(".")
            m[name] = calls(fn) if kind == "calls" else us_per_call(fn)
    return m


# ---------------------------------------------------------------- reporting


def report_lines(wl, seed: int, trace: int, p: Pass, e2e: dict, failed: int, attempted: int) -> list[str]:
    """The human-readable report, with the metric names the README uses."""
    lines = [f"== {wl.name}  seed={seed}  trace={trace}  cycles={p.cycles}  "
             f"timed calls={len(p.all_durations)}"]
    rate_name = "theory_cases_per_s" if wl.name == "theory_check" else "trials_per_s"
    lines.append(f"  setup_s            {e2e['setup_s']:.4f} s")
    lines.append(f"  {rate_name:<18} {e2e['ops_per_s']:.4f} 1/s   (ops_per_s; one op = one {wl.op_name})")
    lines.append(f"  call_p50_ms        {e2e['call_p50_ms']:.3f} ms")
    if wl.name == "trial_single":
        lines.append(f"  trial_p50_ms       {e2e['call_p50_ms']:.3f} ms")
        t = tail(p.all_durations)
        lines.append("  trial_tail_ms      " + (f"{t[0] * 1e3:.3f} ms at p{t[1]:.1f} of {t[2]} samples"
                                              if t else f"n/a ({len(p.all_durations)} samples < 11)"))
    lines.append(f"  peak_rss_mb        {e2e['peak_rss_mb']:.2f} MB")
    lines.append(f"  failed_share       {failed / attempted:.4f}   ({failed} of {attempted} ops)")
    return lines


def metric_block(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


# --------------------------------------------------------------------- main


def run_workload(args) -> int:
    try:
        setup_s = None if args.record_reference else measure_setup(
            args.workload, args.seed, 1 if args.tiny else SETUP_REPEATS)
        wls = _import_workloads()
    except (SetupError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"error: the program could not be set up: {exc}", file=sys.stderr)
        return 2
    wl = wls.WORKLOADS[args.workload]
    calls = wl.calls(args.seed, args.tiny)
    ctx = context()

    # Warm-up: first calls load lazily imported code and fill allocator pools.
    wl.warmup(args.seed)

    if args.record_reference:
        p = Pass(wl, calls, 0.0)
        problems = [msg for out in p.outputs for msg in wl.problems(out)]
        if problems:
            print("\n".join(["error: not recording a reference for failing outputs:"] + problems),
                  file=sys.stderr)
            return 1
        ref_file = REFS / f"{wl.name}.json"
        data = (json.loads(ref_file.read_text()) if ref_file.exists()
                else {"workload": wl.name, "tolerance": wl.tolerance, "seeds": {}})
        data["seeds"][str(args.seed)] = p.digest
        data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
        REFS.mkdir(exist_ok=True)
        ref_file.write_text(json.dumps(data, indent=1) + "\n")
        print(f"recorded the {wl.name} reference for seed {args.seed} in {ref_file.relative_to(ROOT)}")
        return 0

    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = Pass(wl, calls, budget)
    passes = [untraced]
    problems, failed, ref_status = check_outputs(wl, wls, untraced, args.seed, args.tiny)
    layers = None
    if args.trace:
        from tracing import Tracer

        probe = TrainProbe()
        with Tracer(on_return={"learning.train": probe}) as tracer:
            traced = Pass(wl, calls, budget)
        passes.append(traced)
        if traced.digest != untraced.digest:
            problems.append("the traced run's digest differs from the untraced run's")
            failed += traced.attempted
        else:
            failed += sum(traced.failed_by_call)
        loss_us, grad_us = time_loss_and_gradient(probe.first_args)
        overhead = 100.0 * (untraced.ops_per_s() / traced.ops_per_s() - 1.0)
        stats = tracer.by_name()
        layers = layer_metrics(stats, sum(traced.all_durations), traced.cycles, probe,
                               loss_us, grad_us, overhead)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{wl.name}.jsonl")

    attempted = sum(x.attempted for x in passes)
    e2e = {
        "setup_s": setup_s,
        "ops_per_s": untraced.ops_per_s(),
        "call_p50_ms": statistics.median(untraced.all_durations) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    correct = not problems
    sha = digest_sha(untraced.digest)

    lines = ["context: " + json.dumps(ctx)]
    lines += report_lines(wl, args.seed, args.trace, untraced, e2e, failed, attempted)
    if layers is not None:
        lines.append("  per layer (traced pass):")
        lines += [f"    {name:<48} {layers[name]:.6g} {unit}" for name, unit in PER_LAYER.items()]
    lines.append(f"  output digest      {sha}  ({ref_status})")
    lines += [f"  MISMATCH {msg}" for msg in problems]
    print("\n".join(lines))

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "tiny": args.tiny, "context": ctx, "end_to_end": e2e, "per_layer": layers,
        "call_durations_s": {c.kind: ds for c, ds in zip(calls, untraced.durations)},
        "digest_sha": sha, "digest": untraced.digest, "reference": ref_status,
        "problems": problems,
    }
    if args.trace:
        record["layers_by_function"] = stats
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    metrics = metric_block(layers, PER_LAYER) if args.trace else metric_block(e2e, END_TO_END)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own child process, one after another."""
    results, worst = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode in (0, 1) and lines:
            results[name] = json.loads(lines[-1])
    print("== all workloads")
    for name, res in results.items():
        for metric, m in res["metrics"].items():
            print(f"  {name:<13} {metric:<48} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": worst == 0 and len(results) == len(WORKLOAD_NAMES),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }))
    return worst if results else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, one set-up probe; for the smoke test")
    parser.add_argument("--record-reference", action="store_true",
                        help="run one cycle and store its digest as the seed's reference")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _import_workloads().WORKLOADS[args.workload].calls(args.seed, False)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
