"""Gradient-based refinement of uncertain system matrices.

The trainable object is the matrix triple plus the initial state estimate.
Each epoch rolls a Luenberger observer (or a pure predictor) over the
recorded input/output data, measures the mean absolute output discrepancy
over a steady-state window, adds anchored regularization that keeps the
matrices near their starting values, and takes one Adam step on the exact
reverse-mode gradient. The observer gain is re-synthesized from the current
matrices between epochs and treated as a constant inside the gradient: the
rollout is then an affine recursion, so its adjoint is the matching
backward affine recursion.

The subgradient of ``|r|`` at ``r = 0`` is taken to be 0 throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import DivergedRollout, RankDeficientError, ShapeError
from .lti_core import (
    LtiParams,
    matrix_to_json,
    _affine_adjoint,
    _affine_rollout,
)
from .observer import (
    CoordinateTransform,
    PolePlacementInfeasible,
    SynthesisFailureError,
    apply_transform,
    conditioning_transform,
    default_observer_poles,
    invert_transform,
    place_observer_poles,
    _gain_matrix,
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
    """The optimizable quantities: system matrices and initial state guess."""

    A_hat: np.ndarray
    B_hat: np.ndarray
    C_hat: np.ndarray
    x0_hat: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A_hat, dtype=float)
        B = np.asarray(self.B_hat, dtype=float)
        C = np.asarray(self.C_hat, dtype=float)
        x0 = np.asarray(self.x0_hat, dtype=float).reshape(-1)
        n = A.shape[0]
        if A.shape != (n, n) or B.shape[0] != n or C.shape[1] != n or x0.size != n:
            raise ShapeError("inconsistent learnable parameter shapes")
        for name, arr in (("A_hat", A), ("B_hat", B), ("C_hat", C), ("x0_hat", x0)):
            if not np.all(np.isfinite(arr)):
                raise ShapeError(f"{name} contains non-finite entries")
            object.__setattr__(self, name, arr)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.A_hat.shape[0], self.B_hat.shape[1], self.C_hat.shape[0]

    def as_lti(self) -> LtiParams:
        return LtiParams(A=self.A_hat, B=self.B_hat, C=self.C_hat)

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
        if self.lr0 <= 0 or self.decay_factor <= 0 or self.decay_every <= 0:
            raise ValueError("learning-rate schedule values must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.window_start < 0 or self.window_len <= 0:
            raise ValueError("steady-state window must be non-degenerate")
        if self.weight_decay < 0:
            raise ValueError("weight decay must be non-negative")
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
    """First/second moment accumulators, one pair per learnable tensor."""

    m: dict
    v: dict
    step: int = 0

    @staticmethod
    def for_params(params: LearnableParams) -> "AdamState":
        zeros = {k: np.zeros_like(t) for k, t in _tensors(params).items()}
        return AdamState(m=zeros, v={k: z.copy() for k, z in zeros.items()})


@dataclass(frozen=True)
class LossBreakdown:
    data_term: float
    reg_A: float
    reg_B: float
    reg_C: float
    total: float


def _tensors(obj) -> dict:
    return {
        "A": obj.A_hat,
        "B": obj.B_hat,
        "C": obj.C_hat,
        "x0": obj.x0_hat,
    }


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


def _loss_and_gradient(
    params: LearnableParams,
    gain,
    inputs: np.ndarray,
    measured_outputs: np.ndarray,
    cfg: TrainConfig,
    init: LearnableParams | None,
    want_gradient: bool,
) -> tuple[LossBreakdown, LearnableParams | None]:
    n, p, q = params.dims
    k0, K = cfg.window_start, cfg.window_len
    inputs = np.asarray(inputs, dtype=float).reshape(-1, p)
    measured = np.asarray(measured_outputs, dtype=float).reshape(-1, q)
    T = inputs.shape[0]
    if k0 + K > T:
        raise ShapeError(f"steady-state window [{k0}, {k0 + K}] exceeds horizon {T}")
    if measured.shape[0] <= k0 + K:
        raise ShapeError("not enough measured outputs for the window")
    # Nothing after the window's last state reaches the loss, so the rollout
    # and its adjoint stop there.
    inputs, measured = inputs[: k0 + K], measured[: k0 + K + 1]
    L = None if cfg.rollout_mode == "open_loop" else _gain_matrix(gain, n, q)
    anchor = init if init is not None else params
    lam_A, lam_B, lam_C = cfg.resolved_lambdas(n, p, q)

    # The observer is the affine recursion x_{k+1} = M x_k + f_k.
    M = params.A_hat if L is None else params.A_hat - L @ params.C_hat
    forcing = inputs @ params.B_hat.T
    if L is not None:
        forcing += measured[:-1] @ L.T
    with np.errstate(over="ignore", invalid="ignore"):
        states = _affine_rollout(M, params.x0_hat, forcing)
    finite = np.all(np.isfinite(states), axis=1)
    if not finite.all():
        raise DivergedRollout(int(np.argmax(~finite)))
    window = slice(k0, k0 + K + 1)
    residuals = measured[window] - states[window] @ params.C_hat.T
    data_term = float(np.abs(residuals).mean(axis=1).sum() / K)

    dA = params.A_hat - anchor.A_hat
    dB = params.B_hat - anchor.B_hat
    dC = params.C_hat - anchor.C_hat
    reg_A = elementwise_mean_abs(dA)
    reg_B = elementwise_mean_abs(dB)
    reg_C = elementwise_mean_abs(dC)
    breakdown = LossBreakdown(
        data_term=data_term,
        reg_A=reg_A,
        reg_B=reg_B,
        reg_C=reg_C,
        total=data_term + lam_A * reg_A + lam_B * reg_B + lam_C * reg_C,
    )
    if not want_gradient:
        return breakdown, None

    # Residual sensitivities: d(data)/d(residual_k) has entries sign/(K q).
    S = np.zeros_like(measured)
    S[window] = np.sign(residuals) / (K * q)
    adj = _affine_adjoint(M, -S @ params.C_hat)

    gA = adj[1:].T @ states[:-1]
    gB = adj[1:].T @ inputs
    gC = -(S.T @ states)
    if L is not None:
        gC -= L.T @ gA
    gx0 = adj[0].copy()

    gA += lam_A * np.sign(dA) / dA.size
    gB += lam_B * np.sign(dB) / dB.size
    gC += lam_C * np.sign(dC) / dC.size
    return breakdown, LearnableParams(A_hat=gA, B_hat=gB, C_hat=gC, x0_hat=gx0)


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
    breakdown, _ = _loss_and_gradient(
        params, gain, inputs, measured_outputs, cfg, init, want_gradient=False
    )
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
    _, grads = _loss_and_gradient(
        params, gain, inputs, measured_outputs, cfg, init, want_gradient=True
    )
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
    new_m, new_v, new_p = {}, {}, {}
    p_tensors = _tensors(params)
    g_tensors = _tensors(grads)
    for key, p in p_tensors.items():
        g = g_tensors[key]
        m = b1 * state.m[key] + (1 - b1) * g
        v = b2 * state.v[key] + (1 - b2) * np.square(g)
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        new_p[key] = p * (1 - lr * weight_decay) - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        new_m[key], new_v[key] = m, v
    out_params = LearnableParams(
        A_hat=new_p["A"], B_hat=new_p["B"], C_hat=new_p["C"], x0_hat=new_p["x0"]
    )
    return replace(state, m=new_m, v=new_v, step=t), out_params


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
    current matrices' observability stack, whether the pair is observable
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
    n, p, q = init.dims
    inputs = np.asarray(inputs, dtype=float).reshape(-1, p)
    measured = np.asarray(measured_outputs, dtype=float).reshape(-1, q)

    current = init
    anchor = init
    total_tf = CoordinateTransform.identity(n)
    adam = AdamState.for_params(current)
    poles = default_observer_poles(n)
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
        try:
            tf, transformed = conditioning_transform(current_lti, cfg.conditioning_threshold)
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
                    L = place_observer_poles(current_lti.A, current_lti.C, poles).L
                    refreshed = True
                except (PolePlacementInfeasible, SynthesisFailureError):
                    pass
            if not refreshed:
                diagnostics["gain_reuses"] += 1
                if L is None:
                    L = np.zeros((n, q))
            else:
                diagnostics["gain_refreshes"] += 1

        try:
            breakdown, grads = _loss_and_gradient(
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
