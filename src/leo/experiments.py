"""Monte Carlo comparison of nominal and learning-enhanced observers.

One trial draws a random system, simulates it under Gaussian inputs and
noise, refines the perturbed nominal matrices on the recorded data, and
scores four observers (nominal/enhanced x open/closed loop) by normalized
steady-state state error on the same realized trajectory. The harness
aggregates trimmed mean error reductions, success rates, and one-sided
Wilcoxon signed-rank p-values per dimension triple.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import DegenerateReferenceError, LeoError, ShapeError
from .learning import LearnableParams, TrainConfig, _blocks, _train_batch
from .lti_core import (
    NoiseRealization,
    RngStream,
    SystemGenConfig,
    TrueSystem,
    Trajectory,
    _affine_rollout,
    _simulate_stack,
    random_system,
)
from .observer import (
    PLACED,
    UNOBSERVABLE,
    _checked_poles,
    _failure,
    _place_poles,
    default_observer_poles,
)

__all__ = [
    "DEFAULT_DIMENSION_GRID",
    "TrialSpec",
    "TrialResult",
    "TrialExecution",
    "McSummary",
    "normalized_error",
    "execute_trial",
    "run_trial",
    "trimmed_mean_reduction",
    "success_rate",
    "wilcoxon_signed_rank",
    "run_monte_carlo",
]

# The benchmark grid of (n, p, q) dimension triples.
DEFAULT_DIMENSION_GRID: tuple[tuple[int, int, int], ...] = (
    (2, 1, 1), (2, 2, 1),
    (3, 1, 1), (3, 2, 1), (3, 2, 2), (3, 3, 1), (3, 3, 2),
    (4, 2, 1), (4, 2, 2), (4, 3, 1), (4, 3, 2), (4, 3, 3),
    (4, 4, 1), (4, 4, 2), (4, 4, 3),
)

# Reference-state components smaller than this are excluded from the
# normalized error (the componentwise quotient is undefined at zero).
ZERO_REFERENCE_TOL = 1e-8

# Most non-zero pairs for which method="auto" uses the exact null distribution.
WILCOXON_EXACT_CUTOFF = 12


@dataclass(frozen=True)
class TrialSpec:
    """Sampling distributions and seeding of one Monte Carlo trial."""

    dims: tuple[int, int, int]
    horizon: int = 260
    process_noise_std: float = 0.1
    measurement_noise_std: float = 0.1
    perturbation_std: float = 0.05
    x0_offset_std: float = 10.0
    input_std: float = 1.0
    seed: int = 0
    trial_index: int = 0
    max_regenerations: int = 20

    def __post_init__(self):
        try:
            dims = tuple(self.dims)
        except TypeError:
            dims = ()
        if len(dims) != 3 or not all(isinstance(d, numbers.Integral) for d in dims):
            raise ValueError(f"dims must be three integers (n, p, q), got {self.dims!r}")
        n, p, q = dims = tuple(int(d) for d in dims)
        object.__setattr__(self, "dims", dims)
        if not (1 <= p <= n) or q < 1:
            raise ValueError(f"invalid dimensions (n,p,q)=({n},{p},{q})")
        for name in ("horizon", "seed", "trial_index", "max_regenerations"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be positive")
        if self.max_regenerations < 1:
            raise ValueError(f"max_regenerations must be at least 1, got {self.max_regenerations}")
        for name in ("seed", "trial_index"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("process_noise_std", "measurement_noise_std", "perturbation_std",
                     "x0_offset_std", "input_std"):
            # Written so that NaN fails it.
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(
                    f"{name} must be non-negative and finite, got {getattr(self, name)!r}"
                )


@dataclass(frozen=True)
class TrialResult:
    """Steady-state normalized errors of the four observers in one trial."""

    spec: TrialSpec
    e_nominal_open: float
    e_enhanced_open: float
    e_nominal_closed: float
    e_enhanced_closed: float
    reduction_open_pct: float
    reduction_closed_pct: float
    flags: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "dims": list(self.spec.dims),
            "seed": self.spec.seed,
            "trial_index": self.spec.trial_index,
            "e_nominal_open": self.e_nominal_open,
            "e_enhanced_open": self.e_enhanced_open,
            "e_nominal_closed": self.e_nominal_closed,
            "e_enhanced_closed": self.e_enhanced_closed,
            "reduction_open_pct": self.reduction_open_pct,
            "reduction_closed_pct": self.reduction_closed_pct,
            "flags": dict(self.flags),
        }


@dataclass(frozen=True)
class McSummary:
    """Aggregate statistics for one dimension triple."""

    dims: tuple[int, int, int]
    trials: int
    master_seed: int
    err_open_pct: float
    err_closed_pct: float
    sr_open: float
    sr_closed: float
    p_open: float
    p_closed: float
    failures: int = 0

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "err_open_pct": self.err_open_pct,
            "err_closed_pct": self.err_closed_pct,
            "sr_open": self.sr_open,
            "sr_closed": self.sr_closed,
            "p_open": self.p_open,
            "p_closed": self.p_closed,
            "failures": self.failures,
        }


def normalized_error(
    x_hat: Trajectory | np.ndarray,
    x: Trajectory | np.ndarray,
    window_start: int,
    window_len: int,
) -> float:
    """Mean absolute componentwise ratio (x_hat - x) / x over a window.

    The window is rows ``window_start`` .. ``window_start + window_len``;
    both must be non-negative integers. Components whose reference
    magnitude is below ``ZERO_REFERENCE_TOL`` are excluded; if nothing
    remains the reference is degenerate.
    """
    for name, value in (("window_start", window_start), ("window_len", window_len)):
        if not isinstance(value, numbers.Integral) or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    xs = x_hat.states if isinstance(x_hat, Trajectory) else np.asarray(x_hat, dtype=float)
    xr = x.states if isinstance(x, Trajectory) else np.asarray(x, dtype=float)
    lo, hi = window_start, window_start + window_len + 1
    if xs.shape[0] < hi or xr.shape[0] < hi:
        raise ValueError("trajectories do not cover the evaluation window")
    xs, xr = xs[lo:hi], xr[lo:hi]
    mask = np.abs(xr) >= ZERO_REFERENCE_TOL
    if not mask.any():
        raise DegenerateReferenceError(
            "every reference component in the window is (near) zero"
        )
    return float(np.abs((xs[mask] - xr[mask]) / xr[mask]).mean())


def _reduction_pct(e_nominal: float, e_enhanced: float) -> float:
    if e_nominal == e_enhanced:
        return 0.0
    if not math.isfinite(e_nominal) or e_nominal <= 0.0:
        return 0.0
    return 100.0 * (e_nominal - e_enhanced) / e_nominal


@dataclass(frozen=True)
class TrialExecution:
    """Everything produced by one trial: trajectories, errors, learned model."""

    spec: TrialSpec
    truth: Trajectory
    noise: NoiseRealization
    rollouts: dict  # keys: nom_open, enh_open, nom_closed, enh_closed
    errors: dict    # same keys, normalized steady-state errors
    enhanced: LearnableParams
    flags: dict

    def result(self) -> TrialResult:
        e = self.errors
        return TrialResult(
            spec=self.spec,
            e_nominal_open=e["nom_open"],
            e_enhanced_open=e["enh_open"],
            e_nominal_closed=e["nom_closed"],
            e_enhanced_closed=e["enh_closed"],
            reduction_open_pct=_reduction_pct(e["nom_open"], e["enh_open"]),
            reduction_closed_pct=_reduction_pct(e["nom_closed"], e["enh_closed"]),
            flags=self.flags,
        )


def execute_trial(
    spec: TrialSpec,
    train_cfg: TrainConfig | None = None,
    system_override: TrueSystem | None = None,
    x0_hat_override: np.ndarray | None = None,
) -> TrialExecution:
    """Run one seeded trial end to end, keeping the full trajectories.

    A draw whose nominal pair is unobservable is regenerated on the next
    sub-seed (counted in the flags); an override never is. Training
    failures do not raise: the enhanced errors fall back to the nominal
    ones with a zero reduction, so failed trials count as non-successes
    instead of disappearing from the statistics. A horizon too short for
    the training window is a configuration error and raises ``ValueError``
    before any work; so do, as a ``ShapeError``, an override whose dims are
    not ``spec.dims`` and an ``x0_hat_override`` that is not n finite
    numbers. The trial is a batch of one of the Monte Carlo pipeline, and
    gives bitwise what it gives inside a batch.
    """
    cfg = train_cfg or TrainConfig()
    (outcome,) = _run_trials([spec], cfg, system_override, x0_hat_override)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _run_trials(
    specs: list[TrialSpec],
    cfg: TrainConfig,
    system_override: TrueSystem | None = None,
    x0_hat_override: np.ndarray | None = None,
) -> list:
    """The trial pipeline: trials that share dims, horizon and
    ``max_regenerations``, run as one batch.

    Each draw attempt places the nominal gains of the trials still drawing
    in one call; only a trial whose nominal pair is unobservable draws
    again, on its next substream. The drawn trials are simulated as one
    stack and train as one batch. One call places the enhanced gains of
    the runs that did not abort, and the four observers roll out as one
    stack; each trial's errors are then scored on its own. Returns per
    trial its ``TrialExecution``, or the ``LeoError`` or ``LinAlgError``
    that failed it. Each trial draws from its own stream and every stacked
    call computes each row as a call of its own would, so a trial's
    outcome does not depend on its batch.
    """
    n, p, q = dims = specs[0].dims
    T, k0, K = specs[0].horizon, cfg.window_start, cfg.window_len
    if T < k0 + K:
        raise ValueError(
            f"trial horizon {T} ends before the training window's last step"
            f" {k0 + K} (window_start + window_len)"
        )
    if system_override is not None and system_override.real.dims != dims:
        raise ShapeError(
            f"system_override has dims {system_override.real.dims}, spec.dims are {dims}"
        )
    if x0_hat_override is not None:
        x0_hat_override = np.asarray(x0_hat_override, dtype=float).reshape(-1)
        if x0_hat_override.size != n or not np.isfinite(x0_hat_override).all():
            raise ShapeError(
                f"x0_hat_override must be {n} finite numbers, got {x0_hat_override.tolist()}"
            )
    poles = _checked_poles(default_observer_poles(n), n)
    outcomes: list = [None] * len(specs)  # a trial's error, at the end its execution
    flags = [{"regenerations": 0, "divergence": False, "placement_fallback": False} for _ in specs]
    drawn = [None] * len(specs)  # per trial: its stream, system and nominal model
    gain_nominal = np.zeros((len(specs), n, q))
    rows = list(range(len(specs)))
    for attempt in range(specs[0].max_regenerations):
        for i in rows:
            drawn[i] = _guarded(_draw_system, specs[i], attempt, system_override)
        rows = _surviving(rows, drawn, outcomes)
        if not rows:
            break
        # Placement consumes no random numbers; its observability gate
        # decides a regeneration, and an override is never regenerated.
        nominal = [drawn[i][2] for i in rows]
        gains, reason, best = _place_poles(
            np.stack([m.A for m in nominal]), np.stack([m.C for m in nominal]), poles
        )
        gain_nominal[rows] = gains
        for i, why, deviation in zip(rows, reason.tolist(), best.tolist()):
            if why == UNOBSERVABLE and system_override is None:
                flags[i]["regenerations"] += 1
            elif why != PLACED:
                outcomes[i] = _failure(why, deviation)
        rows = [i for i, why in zip(rows, reason) if why == UNOBSERVABLE and outcomes[i] is None]
    for i in rows:
        outcomes[i] = LeoError(
            f"could not draw an observable nominal pair in {specs[0].max_regenerations} attempts"
        )

    rows = [i for i in range(len(specs)) if outcomes[i] is None]
    data = [None] * len(specs)  # per trial: inputs, noise, initial model, truth
    for i in rows:
        data[i] = _guarded(_trial_data, specs[i], *drawn[i], x0_hat_override)
    rows = _surviving(rows, data, outcomes)
    if rows:
        states, outputs = _simulate_stack(*(np.stack(a) for a in zip(*(
            (s.real.A, s.real.B, s.real.C, s.x0_real, u, noise.w, noise.v)
            for (_, s, _), (u, noise, _) in ((drawn[i], data[i]) for i in rows)
        ))))
        for i, x, y in zip(rows, states, outputs):
            truth = _guarded(Trajectory, data[i][0], x, y)
            data[i] = truth if isinstance(truth, Exception) else (*data[i], truth)
        rows = _surviving(rows, data, outcomes)
    if not rows:
        return outcomes

    anchor = np.stack([data[i][2].theta for i in rows])
    u = np.stack([data[i][0] for i in rows])
    y = np.stack([data[i][3].outputs for i in rows])
    theta, final_gain, counts, _ = _train_batch(
        dims, cfg, anchor, u[:, : k0 + K], y[:, : k0 + K + 1]
    )
    # An aborted run keeps its start and the nominal gain; the others'
    # enhanced gains are placed in one call, and a run's last training
    # gain stands in where that fails.
    aborted = counts[:, 5] >= 0
    theta = np.where(aborted[:, None], anchor, theta)
    A, B, C, x0 = (np.stack(pair) for pair in zip(_blocks(anchor, *dims), _blocks(theta, *dims)))
    L = np.stack((gain_nominal[rows], gain_nominal[rows]))
    trained = np.flatnonzero(~aborted)
    if len(trained):
        placed, reason, _ = _place_poles(A[1, trained], C[1, trained], poles)
        fallback = reason != PLACED
        last = final_gain if cfg.rollout_mode == "luenberger" and cfg.epochs > 0 else L[1]
        placed[fallback] = last[trained[fallback]]
        L[1, trained] = placed
        for r in trained[fallback]:
            flags[rows[r]]["placement_fallback"] = True
    for r in np.flatnonzero(aborted):
        flags[rows[r]]["divergence"] = True

    # Nominal and enhanced, open then closed loop; an unstable refined
    # model can overflow its rollout, which scoring reads as divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        drive = u @ B.swapaxes(-1, -2)
        M = np.concatenate((A, A - L @ C))
        forcing = np.concatenate((drive, drive + y[:, :T] @ L.swapaxes(-1, -2)))
        x0 = np.concatenate((x0, x0))
        rolled = _affine_rollout(M.reshape(-1, n, n), x0.reshape(-1, n), forcing.reshape(-1, T, n))
    rolled = rolled.reshape(4, len(rows), T + 1, n).swapaxes(0, 1)
    for i, x, row in zip(rows, rolled, theta):
        enhanced = LearnableParams(*_blocks(row, *dims))
        outcomes[i] = _guarded(_scored, specs[i], *data[i], enhanced, x, flags[i], cfg)
    return outcomes


def _surviving(rows: list, values: list, outcomes: list) -> list:
    """The rows whose value is not an exception; each other row's outcome
    becomes its exception."""
    for i in rows:
        if isinstance(values[i], Exception):
            outcomes[i] = values[i]
    return [i for i in rows if outcomes[i] is None]


def _draw_system(spec: TrialSpec, attempt: int, system_override: TrueSystem | None):
    """A trial's stream for a draw attempt, the system drawn from it (or
    the override) and the system's nominal model."""
    gen = RngStream(spec.seed, (*spec.dims, spec.trial_index)).substream(attempt).generator()
    system = system_override or random_system(
        *spec.dims, gen, SystemGenConfig(perturbation_std=spec.perturbation_std)
    )
    return gen, system, system.nominal()


def _trial_data(spec: TrialSpec, gen, system: TrueSystem, nominal, x0_hat):
    """A trial's inputs, noise and initial model, drawn from its stream
    after its system; the initial state estimate too, where ``x0_hat`` is
    None."""
    n, p, q = spec.dims
    T = spec.horizon
    inputs = gen.normal(0.0, spec.input_std, (T, p))
    noise = NoiseRealization(
        w=gen.normal(0.0, spec.process_noise_std, (T, n)),
        v=gen.normal(0.0, spec.measurement_noise_std, (T + 1, q)),
    )
    if x0_hat is None:
        x0_hat = system.x0_real + gen.normal(0.0, spec.x0_offset_std, n)
    return inputs, noise, LearnableParams.from_lti(nominal, x0_hat)


def _scored(spec, inputs, noise, init, truth, enhanced, states, flags, cfg) -> TrialExecution:
    """A trial's execution from the states of its four rollouts (nominal
    and enhanced, open then closed loop).

    An enhanced rollout that leaves the finite numbers, or whose error
    does, counts as divergence: the enhanced observer falls back to the
    nominal one.
    """
    rolls = {
        key: Trajectory(inputs, x, x @ init.C_hat.T)
        for key, x in (("nom_open", states[0]), ("nom_closed", states[2]))
    }
    with np.errstate(over="ignore", invalid="ignore"):
        for side, x in (("open", states[1]), ("closed", states[3])):
            roll = _guarded(Trajectory, inputs, x, x @ enhanced.C_hat.T)
            if isinstance(roll, Exception):
                roll = rolls[f"nom_{side}"]
                flags["divergence"] = True
            rolls[f"enh_{side}"] = roll
    errors = {}
    for key, roll in rolls.items():
        e = normalized_error(roll, truth, cfg.window_start, cfg.window_len)
        errors[key] = e if math.isfinite(e) else math.inf
    for side in ("open", "closed"):
        if not math.isfinite(errors[f"enh_{side}"]):
            errors[f"enh_{side}"] = errors[f"nom_{side}"]
            flags["divergence"] = True
    return TrialExecution(spec, truth, noise, rolls, errors, enhanced, flags)


def run_trial(
    spec: TrialSpec,
    train_cfg: TrainConfig | None = None,
    system_override: TrueSystem | None = None,
    x0_hat_override: np.ndarray | None = None,
) -> TrialResult:
    """One seeded trial, reduced to its headline error statistics."""
    return execute_trial(spec, train_cfg, system_override, x0_hat_override).result()


def _batch_results(specs: list[TrialSpec], cfg: TrainConfig) -> list[TrialResult]:
    """The results of a batch of trials (``_run_trials``) for the harness.

    A trial that failed records matching zero errors so it counts as a
    non-success everywhere (and as a dropped zero difference in the
    signed-rank test) instead of aborting the whole run.
    """
    return [
        TrialResult(spec, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                    {"divergence": True, "error": f"{type(outcome).__name__}: {outcome}"})
        if isinstance(outcome, Exception) else outcome.result()
        for spec, outcome in zip(specs, _run_trials(specs, cfg))
    ]


def _guarded(fn, *args):
    """``fn(*args)``, or the ``LeoError`` or ``LinAlgError`` it raised."""
    try:
        return fn(*args)
    except (LeoError, np.linalg.LinAlgError) as exc:
        return exc


def trimmed_mean_reduction(values, trim_frac: float = 0.10) -> float:
    """Mean after dropping floor(trim_frac * len) values from each end;
    NaN is rejected."""
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size < 3:
        raise ValueError("need at least 3 values to trim")
    if np.isnan(vals).any():
        raise ValueError("values must not contain NaN")
    if not (0.0 <= trim_frac < 0.5):
        raise ValueError("trim fraction must be in [0, 0.5)")
    k = int(trim_frac * vals.size)
    return float(vals[k : vals.size - k].mean())


def success_rate(e_nominal, e_enhanced) -> float:
    """Fraction of trials where the enhanced error is strictly smaller;
    NaN is rejected."""
    a = np.asarray(e_nominal, dtype=float)
    b = np.asarray(e_enhanced, dtype=float)
    if a.shape != b.shape or a.size < 1:
        raise ValueError("error lists must be non-empty and aligned")
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("paired samples must not contain NaN")
    return float((b < a).mean())


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties replaced by the mean rank of their group."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _wilcoxon_exact_tail(ranks: np.ndarray, w_obs: float) -> tuple[float, float]:
    """(P[W+ >= w_obs], P[W+ <= w_obs]) under the exact sign-flip null.

    Doubled midranks are integers, so counting the sign patterns per doubled
    sum is a subset-sum DP in O(m * sum(ranks)) time instead of 2^m patterns.
    Counts are exact integers in float64 up to m = 52.
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    counts = np.zeros(int(doubled.sum()) + 1)
    counts[0] = 1.0
    for r in doubled:
        counts[r:] = counts[r:] + counts[:-r]
    w2 = int(round(2.0 * w_obs))
    patterns = 2.0**ranks.size
    return float(counts[w2:].sum() / patterns), float(counts[: w2 + 1].sum() / patterns)


def _wilcoxon_normal_tail(ranks: np.ndarray, w_obs: float) -> tuple[float, float]:
    """Tail probabilities from the tie-corrected normal approximation."""
    m = ranks.size
    mean = m * (m + 1) / 4.0
    var = m * (m + 1) * (2 * m + 1) / 24.0
    _, counts = np.unique(ranks, return_counts=True)
    var -= float(np.sum(counts**3 - counts)) / 48.0
    if var <= 0:
        return 1.0, 1.0
    sd = math.sqrt(var)
    # 0.5 continuity correction toward the mean
    upper = 0.5 * math.erfc((w_obs - 0.5 - mean) / (sd * math.sqrt(2.0)))
    lower = 0.5 * math.erfc((mean - (w_obs + 0.5)) / (sd * math.sqrt(2.0)))
    return upper, lower


def wilcoxon_signed_rank(
    e_nominal,
    e_enhanced,
    two_sided: bool = False,
    method: str = "auto",
) -> float:
    """Paired signed-rank p-value for "enhanced < nominal".

    Differences d = e_nominal - e_enhanced are ranked by magnitude with
    midrank ties; W+ sums the ranks of positive differences. With
    ``method="auto"``, up to ``WILCOXON_EXACT_CUTOFF`` non-zero pairs use
    the exact null distribution over all sign patterns; beyond that a
    tie-corrected normal approximation with continuity correction is used.
    ``"exact"`` and ``"approx"`` force one of the two. All-zero differences
    give p = 1.0 by convention. A pair of equal errors is a zero difference,
    also when both are infinite (two unscorable rollouts); NaN is rejected.
    """
    if method not in ("auto", "exact", "approx"):
        raise ValueError("method must be auto, exact or approx")
    a = np.asarray(e_nominal, dtype=float)
    b = np.asarray(e_enhanced, dtype=float)
    if a.shape != b.shape:
        raise ValueError("paired samples must be aligned")
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("paired samples must not contain NaN")
    differ = a != b
    d = a[differ] - b[differ]
    if d.size == 0:
        return 1.0
    ranks = _midranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    use_exact = method == "exact" or (method == "auto" and d.size <= WILCOXON_EXACT_CUTOFF)
    if use_exact:
        upper, lower = _wilcoxon_exact_tail(ranks, w_plus)
    else:
        upper, lower = _wilcoxon_normal_tail(ranks, w_plus)
    if two_sided:
        return float(min(1.0, 2.0 * min(upper, lower)))
    return float(min(1.0, upper))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS
    has one (``taskset`` and cpusets narrow it below the host's count),
    else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_monte_carlo(
    dims_list,
    trials: int = 100,
    master_seed: int = 0,
    train_cfg: TrainConfig | None = None,
    trial_spec: TrialSpec | None = None,
    parallel: int = 1,
    two_sided: bool = False,
) -> tuple[list[McSummary], list[TrialResult]]:
    """Run the full comparison for every dimension triple.

    Each trial draws its own random stream from (master_seed, dims, trial
    index), so the summaries depend only on the seed and configuration, not
    on execution order, batch grouping or the number of workers. The trials
    of one triple train as one batch; with ``parallel`` worker
    processes (at most ``_usable_cpus()``, one pool for the whole run)
    each triple's trials are split into that many contiguous batches.
    """
    for name, value in (("trials", trials), ("parallel", parallel)):
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if trials < 10:
        raise ValueError("need at least 10 trials for meaningful statistics")
    if parallel < 1:
        raise ValueError(f"parallel must be at least 1, got {parallel}")
    workers = min(parallel, _usable_cpus())
    cfg = train_cfg or TrainConfig()
    base_spec = trial_spec or TrialSpec(dims=(2, 1, 1))
    dims_list = [replace(base_spec, dims=dims).dims for dims in dims_list]
    size = math.ceil(trials / workers)
    batches = [
        [
            replace(base_spec, dims=dims, seed=master_seed, trial_index=t)
            for t in range(start, min(start + size, trials))
        ]
        for dims in dims_list
        for start in range(0, trials, size)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batch_results = list(pool.map(_batch_results, batches, [cfg] * len(batches)))
    else:
        batch_results = [_batch_results(batch, cfg) for batch in batches]
    all_results = [r for results in batch_results for r in results]
    summaries: list[McSummary] = []
    for i, dims in enumerate(dims_list):
        results = all_results[i * trials : (i + 1) * trials]
        e_no = [r.e_nominal_open for r in results]
        e_eo = [r.e_enhanced_open for r in results]
        e_nc = [r.e_nominal_closed for r in results]
        e_ec = [r.e_enhanced_closed for r in results]
        summaries.append(
            McSummary(
                dims=dims,
                trials=trials,
                master_seed=master_seed,
                err_open_pct=trimmed_mean_reduction([r.reduction_open_pct for r in results]),
                err_closed_pct=trimmed_mean_reduction([r.reduction_closed_pct for r in results]),
                sr_open=success_rate(e_no, e_eo),
                sr_closed=success_rate(e_nc, e_ec),
                p_open=wilcoxon_signed_rank(e_no, e_eo, two_sided=two_sided),
                p_closed=wilcoxon_signed_rank(e_nc, e_ec, two_sided=two_sided),
                failures=sum(1 for r in results if r.flags.get("divergence")),
            )
        )
    return summaries, all_results
