"""Gradient-based refinement of uncertain system matrices.

The trainable object is the matrix triple plus the initial state estimate,
held as one parameter vector θ. Each epoch rolls a Luenberger observer (or
a pure predictor) over the recorded input/output data, measures the mean
absolute output discrepancy over a steady-state window, adds anchored
regularization that keeps the matrices near their starting values, and
takes one Adam step on the exact reverse-mode gradient. The observer gain
is re-synthesized from the current matrices between epochs and treated as a
constant inside the gradient: the rollout is then an affine recursion, so
its adjoint is the matching backward affine recursion.

The training loop is a step generator: each epoch it yields an
observability-condition request, a gain-placement request and a loss
request to ``_lockstep``, which serves the requests of many runs (the
trials of a Monte Carlo batch) with one stacked call each. The loss request
is served by ``_stacked_loss``, whose forward rollout and adjoint take one
stacked matrix-vector product per time step for all the runs. ``loss`` and
``gradient`` call it on one run, ``train`` runs the loop alone; a run's
results are bitwise the same alone or batched.

The subgradient of ``|r|`` at ``r = 0`` is taken to be 0 throughout.
"""

from __future__ import annotations

import json
import numbers
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DivergedRollout, RankDeficientError, ShapeError, SynthesisFailureError
from .lti_core import (
    LtiParams,
    matrix_to_json,
    _affine_adjoint,
    _affine_rollout,
    _observability_condition,
)
from .observer import (
    CoordinateTransform,
    apply_transform,
    default_observer_poles,
    invert_transform,
    _checked_poles,
    _conditioning_transform,
    _gain_matrix,
    _place_poles,
)

__all__ = [
    "LearnableParams",
    "TrainConfig",
    "AdamState",
    "LossBreakdown",
    "TrainResult",
    "elementwise_mean_abs",
    "lambda_coefficients",
    "loss",
    "gradient",
    "adam_step",
    "train",
    "log_to_jsonl",
]

ROLLOUT_MODES = ("luenberger", "open_loop")

# Adam moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class LearnableParams:
    """The optimizable quantities: system matrices and initial state guess.

    One vector ``theta`` holds A, B and C row-major, then x0. The fields are
    read-only views of it, so training's rollback snapshots cannot change.
    """

    A_hat: np.ndarray
    B_hat: np.ndarray
    C_hat: np.ndarray
    x0_hat: np.ndarray
    theta: np.ndarray = field(init=False, repr=False, compare=False)
    dims: tuple[int, int, int] = field(init=False, compare=False)

    def __post_init__(self):
        A = np.asarray(self.A_hat, dtype=float)
        B = np.asarray(self.B_hat, dtype=float)
        C = np.asarray(self.C_hat, dtype=float)
        x0 = np.asarray(self.x0_hat, dtype=float).reshape(-1)
        if A.ndim != 2 or B.ndim != 2 or C.ndim != 2:
            raise ShapeError("learnable matrices must be 2-D")
        n = A.shape[0]
        if A.shape != (n, n) or B.shape[0] != n or C.shape[1] != n or x0.size != n:
            raise ShapeError("inconsistent learnable parameter shapes")
        self._bind(np.concatenate((A, B, C, x0), axis=None), (n, B.shape[1], C.shape[0]))

    @staticmethod
    def _of(theta: np.ndarray, dims: tuple[int, int, int]) -> "LearnableParams":
        """Parameters that take over θ; like the constructor, checks it finite once."""
        return object.__new__(LearnableParams)._bind(theta, dims)

    def _bind(self, theta: np.ndarray, dims: tuple[int, int, int]) -> "LearnableParams":
        if not np.isfinite(theta).all():
            raise ShapeError("learnable parameters contain non-finite entries")
        theta.flags.writeable = False
        names = ("theta", "dims", "A_hat", "B_hat", "C_hat", "x0_hat")
        for name, value in zip(names, (theta, dims, *_blocks(theta, *dims))):
            object.__setattr__(self, name, value)
        return self

    def as_lti(self) -> LtiParams:
        return LtiParams._of(self.A_hat, self.B_hat, self.C_hat)

    @staticmethod
    def from_lti(params: LtiParams, x0_hat: np.ndarray) -> "LearnableParams":
        return LearnableParams(A_hat=params.A, B_hat=params.B, C_hat=params.C, x0_hat=x0_hat)

    def to_json(self) -> dict:
        return {
            "A": matrix_to_json(self.A_hat),
            "B": matrix_to_json(self.B_hat),
            "C": matrix_to_json(self.C_hat),
            "x0": [float(x) for x in self.x0_hat],
        }


def _blocks(theta: np.ndarray, n: int, p: int, q: int) -> tuple[np.ndarray, ...]:
    """Views of the A, B, C and x0 blocks of a θ-shaped vector, or of each
    row of a stack of them."""
    lead = theta.shape[:-1]
    b, c, x = n * n, n * (n + p), n * (n + p + q)
    return (
        theta[..., :b].reshape(*lead, n, n),
        theta[..., b:c].reshape(*lead, n, p),
        theta[..., c:x].reshape(*lead, q, n),
        theta[..., x:],
    )


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the refinement loop.

    The learning rate follows lr0 / decay_factor^floor(epoch / decay_every);
    with the defaults exactly one tenfold reduction fires at epoch 200.
    ``lambda_*`` of None means the dimension-based coefficients of
    ``lambda_coefficients`` are used. Weight decay is decoupled: it shrinks
    the parameters directly instead of entering the gradient.
    """

    lr0: float = 1e-4
    epochs: int = 250
    decay_factor: float = 10.0
    decay_every: int = 200
    weight_decay: float = 1e-5
    window_start: int = 201
    window_len: int = 50
    lambda_A: float | None = None
    lambda_B: float | None = None
    lambda_C: float | None = None
    rollout_mode: str = "luenberger"
    conditioning_threshold: float = 1e8

    def __post_init__(self):
        # Every comparison is written so that NaN fails it.
        for name in ("epochs", "decay_every", "window_start", "window_len"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
        if not (0 < self.lr0 < np.inf and 0 < self.decay_factor < np.inf and self.decay_every > 0):
            raise ValueError("learning-rate schedule values must be positive and finite")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.window_start < 0 or self.window_len <= 0:
            raise ValueError("steady-state window must be non-degenerate")
        lambdas = [x for x in (self.lambda_A, self.lambda_B, self.lambda_C) if x is not None]
        if not all(0 <= x < np.inf for x in (self.weight_decay, *lambdas)):
            raise ValueError("weight_decay and lambda_* must be non-negative and finite")
        if not self.conditioning_threshold > 0:
            raise ValueError("conditioning_threshold must be positive")
        if self.rollout_mode not in ROLLOUT_MODES:
            raise ValueError(f"rollout_mode must be one of {ROLLOUT_MODES}")

    def lr_at(self, epoch: int) -> float:
        return self.lr0 / self.decay_factor ** (epoch // self.decay_every)

    def resolved_lambdas(self, n: int, p: int, q: int) -> tuple[float, float, float]:
        la, lb, lc = lambda_coefficients(n, p, q)
        return (
            la if self.lambda_A is None else self.lambda_A,
            lb if self.lambda_B is None else self.lambda_B,
            lc if self.lambda_C is None else self.lambda_C,
        )


@dataclass(frozen=True)
class AdamState:
    """First/second moment vectors, shaped like the parameter vector θ."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @staticmethod
    def for_params(params: LearnableParams) -> "AdamState":
        return AdamState(m=np.zeros_like(params.theta), v=np.zeros_like(params.theta))


@dataclass(frozen=True)
class LossBreakdown:
    data_term: float
    reg_A: float
    reg_B: float
    reg_C: float
    total: float


def elementwise_mean_abs(M) -> float:
    """Mean of the absolute values of all entries."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        raise ValueError("mean absolute value of an empty array is undefined")
    return float(np.abs(M).mean())


def lambda_coefficients(n: int, p: int, q: int) -> tuple[float, float, float]:
    """Regularization weights proportional to each matrix's share of entries.

    The three coefficients sum to 1e-3 exactly.
    """
    if min(n, p, q) < 1:
        raise ValueError("dimensions must be positive")
    denom = n * n + n * p + n * q
    return (1e-3 * n * n / denom, 1e-3 * n * p / denom, 1e-3 * n * q / denom)


def _loss_request(
    params: LearnableParams,
    gain,
    inputs,
    measured_outputs,
    cfg: TrainConfig,
    init: LearnableParams | None,
    want_gradient: bool,
) -> tuple:
    """The ``("loss", static, θ, anchor θ, inputs, measured[, L])`` request of one run.

    ``static`` is what runs must share to be stacked: dims, window, resolved
    lambdas, rollout mode and ``want_gradient``. The data stop at the
    window's last state, as nothing after it reaches the loss; L is there in
    Luenberger mode only.
    """
    n, p, q = params.dims
    k0, K = cfg.window_start, cfg.window_len
    inputs = np.asarray(inputs, dtype=float).reshape(-1, p)
    measured = np.asarray(measured_outputs, dtype=float).reshape(-1, q)
    T = inputs.shape[0]
    if k0 + K > T:
        raise ShapeError(f"steady-state window [{k0}, {k0 + K}] exceeds horizon {T}")
    if measured.shape[0] <= k0 + K:
        raise ShapeError("not enough measured outputs for the window")
    anchor = init if init is not None else params
    static = (params.dims, k0, K, cfg.resolved_lambdas(n, p, q), cfg.rollout_mode, want_gradient)
    request = ("loss", static, params.theta, anchor.theta, inputs[: k0 + K], measured[: k0 + K + 1])
    if cfg.rollout_mode == "open_loop":
        return request
    return request + (_gain_matrix(gain, n, q),)


def _stacked_loss(static: tuple, theta, anchor, inputs, measured, L=None) -> list:
    """Loss and, if ``static`` asks for it, gradient of a stack of runs.

    The runs share ``static`` (see ``_loss_request``); the rest has a
    leading run axis: θ and anchor θ (B, P), inputs (B, k0 + K, p),
    measured outputs (B, k0 + K + 1, q) and, in Luenberger mode, gains
    L (B, n, q). Each step is one stacked call and each row's reductions run
    along a contiguous axis, so every row is bitwise its own one-row call.
    Returns per row a ``(LossBreakdown, grads or None)`` pair, or the row's
    own ``DivergedRollout`` or ``ShapeError``. A 1-D θ is a batch of one:
    the pair is returned, the error raised.
    """
    if theta.ndim == 1:
        arrays = (theta, anchor, inputs, measured) + (() if L is None else (L,))
        (row,) = _stacked_loss(static, *(a[None] for a in arrays))
        if isinstance(row, Exception):
            raise row
        return row
    (n, p, q), k0, K, (lam_A, lam_B, lam_C), mode, want_gradient = static
    closed = mode == "luenberger"
    A, B, C, x0 = _blocks(theta, n, p, q)

    # The observer is the affine recursion x_{k+1} = M x_k + f_k.
    M = A - L @ C if closed else A
    forcing = inputs @ B.transpose(0, 2, 1)
    if closed:
        forcing += measured[:, :-1] @ L.transpose(0, 2, 1)
    # Overflow is reported by the finiteness check below.
    with np.errstate(over="ignore", invalid="ignore"):
        states = _affine_rollout(M, x0, forcing)
    finite = np.isfinite(states).all(axis=2)
    out: list = [None] * len(theta)
    kept = finite.all(axis=1)
    for row in np.flatnonzero(~kept):
        out[row] = DivergedRollout(int(np.argmax(~finite[row])))
    if not kept.any():
        return out
    if not kept.all():
        # Nothing below sees a diverged row's non-finite states.
        theta, anchor, inputs, measured, states, M, C = (
            a[kept] for a in (theta, anchor, inputs, measured, states, M, C)
        )
        L = L[kept] if closed else None
    window = slice(k0, k0 + K + 1)
    residuals = measured[:, window] - states[:, window] @ C.transpose(0, 2, 1)
    data_term = np.abs(residuals).mean(axis=2).sum(axis=1) / K

    dA, dB, dC, _ = _blocks(theta - anchor, n, p, q)
    reg_A, reg_B, reg_C = (np.abs(d).mean(axis=(1, 2)) for d in (dA, dB, dC))
    total = data_term + lam_A * reg_A + lam_B * reg_B + lam_C * reg_C
    breakdowns = [
        LossBreakdown(*terms)
        for terms in zip(*(v.tolist() for v in (data_term, reg_A, reg_B, reg_C, total)))
    ]
    rows = np.flatnonzero(kept)
    if not want_gradient:
        for row, breakdown in zip(rows, breakdowns):
            out[row] = breakdown, None
        return out

    # Residual sensitivities: d(data)/d(residual_k) has entries sign/(K q).
    S = np.zeros(measured.shape)
    S[:, window] = np.sign(residuals) / (K * q)
    adj = _affine_adjoint(M, -S @ C)

    adj_t = adj[:, 1:].transpose(0, 2, 1)
    gA = adj_t @ states[:, :-1]
    gB = adj_t @ inputs
    gC = -(S.transpose(0, 2, 1) @ states)
    if closed:
        gC -= L.transpose(0, 2, 1) @ gA

    gA += lam_A * np.sign(dA) / (n * n)
    gB += lam_B * np.sign(dB) / (n * p)
    gC += lam_C * np.sign(dC) / (q * n)
    grads = np.concatenate([g.reshape(len(g), -1) for g in (gA, gB, gC, adj[:, 0])], axis=1)
    for row, breakdown, g in zip(rows, breakdowns, grads):
        try:
            out[row] = breakdown, LearnableParams._of(g, (n, p, q))
        except ShapeError as exc:
            out[row] = exc
    return out


def _lockstep(steps: list) -> list:
    """Run step generators together, one stacked call per request group.

    A step generator yields requests and is sent the result for its own
    arrays: ``("condition", A, C)`` gets ``_observability_condition``,
    ``("place", A, C, poles)`` an ``ObserverGain`` and ``("loss", static,
    θ, anchor θ, inputs, measured[, L])`` a ``(LossBreakdown, grads)``
    pair. A failure of its own (``SynthesisFailureError``,
    ``DivergedRollout``, ``ShapeError``) is thrown into it instead. Each
    round serves the largest group of pending requests that agree in kind,
    array shapes and every other value (poles, ``static``) with one
    ``_serve`` call, so a generator that falls out of phase (a rollback
    repeats its epoch's loss) rejoins the others a round later. The stacked
    calls compute every row as its own call would, so no outcome depends on
    the grouping. Returns each generator's return value, or the exception
    it raised: one generator's failure never reaches the others.
    """
    outcomes: list = [None] * len(steps)
    pending: dict[int, tuple] = {}

    def advance(i: int, value) -> None:
        try:
            if isinstance(value, Exception):
                pending[i] = steps[i].throw(value)
            else:
                pending[i] = steps[i].send(value)
        except StopIteration as stop:
            outcomes[i] = stop.value
        except Exception as exc:
            outcomes[i] = exc

    for i in range(len(steps)):
        advance(i, None)
    while pending:
        groups: dict[tuple, list[int]] = defaultdict(list)
        for i, request in pending.items():
            groups[tuple(a.shape if isinstance(a, np.ndarray) else a for a in request)].append(i)
        (kind, *_), members = max(groups.items(), key=lambda group: len(group[1]))
        requests = [pending.pop(i)[1:] for i in members]
        for i, row in zip(members, _serve(kind, requests)):
            advance(i, row)
    return outcomes


def _serve(kind: str, requests: list) -> list:
    """One stacked call for one group of requests: a result per request.

    ``"condition"`` is served by ``_observability_condition``, ``"place"``
    by ``_place_poles`` and ``"loss"`` by ``_stacked_loss``, each on the
    stack of the requests' arrays. If the stacked call raises, each request
    is served alone, so the exception reaches only the requests whose own
    call raises it.
    """
    try:
        if kind == "loss":
            arrays = (_stack(a) for a in zip(*(r[1:] for r in requests)))
            return _stacked_loss(requests[0][0], *arrays)
        if kind == "place":
            A, C = (_stack(a) for a in zip(*(r[:2] for r in requests)))
            return _place_poles(A, C, np.asarray(requests[0][2]))
        return _observability_condition(*(_stack(a) for a in zip(*requests)))
    except Exception as exc:
        if len(requests) == 1:
            return [exc]
        return [_serve(kind, [request])[0] for request in requests]


def _stack(arrays: tuple) -> np.ndarray:
    """One argument of a request group with a leading request axis; a lone
    request's array becomes a view instead of a copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _run(step):
    """The return value of one step generator; what it raises is raised."""
    (outcome,) = _lockstep([step])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def loss(
    params: LearnableParams,
    gain,
    inputs,
    measured_outputs,
    cfg: TrainConfig,
    init: LearnableParams | None = None,
) -> LossBreakdown:
    """Steady-state output discrepancy plus anchored regularization.

    The data term averages the mean absolute output residual over the
    window [window_start, window_start + window_len]; each regularizer is
    the mean absolute deviation of a matrix from its value in ``init``
    (zero when ``init`` is omitted or equals ``params``).
    """
    _, static, *arrays = _loss_request(
        params, gain, inputs, measured_outputs, cfg, init, want_gradient=False
    )
    breakdown, _ = _stacked_loss(static, *arrays)
    return breakdown


def gradient(
    params: LearnableParams,
    gain,
    inputs,
    measured_outputs,
    cfg: TrainConfig,
    init: LearnableParams | None = None,
) -> LearnableParams:
    """Exact reverse-mode gradient of ``loss(...).total``.

    The result has the shape of the parameters: each field holds the
    derivative with respect to the matching parameter field.
    The observer gain is held constant (no differentiation through its
    synthesis), matching how the training loop treats it.
    """
    _, static, *arrays = _loss_request(
        params, gain, inputs, measured_outputs, cfg, init, want_gradient=True
    )
    _, grads = _stacked_loss(static, *arrays)
    return grads


def adam_step(
    state: AdamState,
    params: LearnableParams,
    grads: LearnableParams,
    lr: float,
    weight_decay: float = 0.0,
) -> tuple[AdamState, LearnableParams]:
    """One Adam update with bias correction and decoupled weight decay.

    Weight decay shrinks the parameters directly, by the factor
    ``1 - lr * weight_decay``, before the Adam increment; it never enters
    the gradient or the moments.
    """
    t = state.step + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    g = grads.theta
    m = b1 * state.m + (1 - b1) * g
    v = b2 * state.v + (1 - b2) * np.square(g)
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    theta = params.theta * (1 - lr * weight_decay) - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return AdamState(m=m, v=v, step=t), LearnableParams._of(theta, params.dims)


@dataclass
class TrainResult:
    """Optimized parameters plus per-epoch log and run diagnostics.

    ``log`` entries carry exactly the keys serialized by ``log_to_jsonl``.
    ``diagnostics`` includes: transforms_applied, gain_reuses, gain_refreshes,
    never_observable, aborted, abort_epoch, lr_halvings, and final_gain (the
    last synthesized gain mapped back to the original coordinates, or None).
    """

    params: LearnableParams
    log: list = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


def log_to_jsonl(log: list[dict]) -> str:
    """Serialize a training log as JSON lines."""
    return "\n".join(json.dumps(entry) for entry in log) + ("\n" if log else "")


def train(
    init: LearnableParams,
    inputs,
    measured_outputs,
    cfg: TrainConfig,
) -> TrainResult:
    """Run the full refinement loop (conditioning, gain refresh, Adam).

    Per epoch: (a) ``conditioning_transform`` decides, from one SVD of the
    current matrices' observability stack (stacked across a lockstep batch),
    whether the pair is observable
    and whether the stack is worse-conditioned than
    ``cfg.conditioning_threshold``; in that case training switches to better
    coordinates (parameters, anchors, initial state and previous gain all
    move together, and the Adam moments are reset since they live in the
    old coordinates); (b) re-synthesize the observer gain from the current
    matrices when the pair is observable, otherwise keep the previous gain;
    (c) evaluate loss and gradient with the gain frozen; (d) Adam step at
    the scheduled learning rate.

    A non-finite rollout rolls the parameters back one step and halves the
    learning rate before retrying; two consecutive failures abort the run.
    All of this is reported in ``diagnostics`` rather than raised, so the
    partial log survives. The returned parameters are always expressed in
    the original coordinates.
    """
    return _run(_train_steps(init, inputs, measured_outputs, cfg))


def _train_steps(init: LearnableParams, inputs, measured_outputs, cfg: TrainConfig):
    """Step generator of ``train``: yields kernel requests, returns the result."""
    n, p, q = init.dims
    inputs = np.asarray(inputs, dtype=float).reshape(-1, p)
    measured = np.asarray(measured_outputs, dtype=float).reshape(-1, q)

    current = init
    anchor = init
    total_tf = CoordinateTransform.identity(n)
    adam = AdamState.for_params(current)
    poles = tuple(_checked_poles(default_observer_poles(n), n))
    L: np.ndarray | None = None
    luenberger = cfg.rollout_mode == "luenberger"

    diagnostics = {
        "transforms_applied": 0,
        "gain_refreshes": 0,
        "gain_reuses": 0,
        "observable_epochs": 0,
        "never_observable": False,
        "aborted": False,
        "abort_epoch": None,
        "lr_halvings": 0,
        "final_gain": None,
    }
    log: list[dict] = []
    prev_snapshot: tuple[LearnableParams, AdamState] | None = None
    consecutive_failures = 0

    epoch = 0
    while epoch < cfg.epochs:
        lr = cfg.lr_at(epoch) * 0.5 ** diagnostics["lr_halvings"]

        current_lti = current.as_lti()
        cond = yield ("condition", current.A_hat, current.C_hat)
        try:
            tf, transformed = _conditioning_transform(current_lti, cfg.conditioning_threshold, cond)
        except RankDeficientError:
            observable = False
        else:
            observable = True
            diagnostics["observable_epochs"] += 1
            if not tf.is_identity():
                current = LearnableParams.from_lti(transformed, tf.T @ current.x0_hat)
                anchor = LearnableParams.from_lti(
                    apply_transform(tf, anchor.as_lti()), tf.T @ anchor.x0_hat
                )
                if L is not None:
                    L = tf.T @ L
                total_tf = tf.compose(total_tf)
                adam = AdamState.for_params(current)
                prev_snapshot = None
                diagnostics["transforms_applied"] += 1
                current_lti = transformed

        refreshed = False
        if luenberger:
            if observable:
                try:
                    L = (yield ("place", current_lti.A, current_lti.C, poles)).L
                    refreshed = True
                except SynthesisFailureError:
                    pass
            if not refreshed:
                diagnostics["gain_reuses"] += 1
                if L is None:
                    L = np.zeros((n, q))
            else:
                diagnostics["gain_refreshes"] += 1

        try:
            breakdown, grads = yield _loss_request(
                current, L, inputs, measured, cfg, anchor, want_gradient=True
            )
        except DivergedRollout:
            consecutive_failures += 1
            if consecutive_failures >= 2 or prev_snapshot is None:
                diagnostics["aborted"] = True
                diagnostics["abort_epoch"] = epoch
                break
            current, adam = prev_snapshot
            prev_snapshot = None
            diagnostics["lr_halvings"] += 1
            continue
        consecutive_failures = 0

        log.append(
            {
                "epoch": epoch,
                "loss_total": breakdown.total,
                "loss_data": breakdown.data_term,
                "reg_A": breakdown.reg_A,
                "reg_B": breakdown.reg_B,
                "reg_C": breakdown.reg_C,
                "lr": lr,
                "L_refreshed": refreshed,
            }
        )
        prev_snapshot = (current, adam)
        adam, current = adam_step(adam, current, grads, lr, weight_decay=cfg.weight_decay)
        epoch += 1

    diagnostics["never_observable"] = bool(
        luenberger and log and diagnostics["observable_epochs"] == 0
    )

    # Map everything back to the caller's coordinates.
    out_lti = invert_transform(total_tf, current.as_lti())
    out = LearnableParams.from_lti(out_lti, total_tf.T_inv @ current.x0_hat)
    if L is not None:
        diagnostics["final_gain"] = total_tf.T_inv @ L
    return TrainResult(params=out, log=log, diagnostics=diagnostics)
