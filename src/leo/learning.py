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

Training runs a batch of runs that share dims and one ``TrainConfig`` (the
trials of a Monte Carlo batch) as plain arrays with a leading run axis: θ,
the anchor θ, the Adam moments, per-run counters and a per-epoch log. For
n = 2..4 the whole batch, every epoch of every run, is one call of the C
training pass of ``_kernel.c`` where it loads. Elsewhere ``_round_loop``,
its reference, runs each round (one epoch of every live run) with one
stacked call per stage: gain re-synthesis (``_place_poles``, which first
decides which pairs are observable: one call of the C placement pass where
it loads, else ``observer._numpy_place``), loss and gradient
(``_stacked_loss``, one call of the C loss pass where it loads, else the
numpy pass ``_numpy_loss``) and the Adam update; rollback, abort and gain
reuse are masked assignments. The training pass runs the same stages in
the same order, in C. The C passes load together, in one order family,
on the first call of any (``lti_core._load_kernel``), and the training
pass only where the loss and placement passes load. Every stage gives
each finite row a result: a pair it cannot place keeps its gain, and a
diverged rollout or a gradient, Adam step or second moment that leaves
the finite numbers fails that run's epoch, which one rule rolls back or
aborts. Every path computes each row bitwise as a batch of one would, so
a run's result does not depend on its batch or path; ``train``, ``loss``
and ``gradient`` are batches of one.

The subgradient of ``|r|`` at ``r = 0`` is taken to be 0 throughout.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DivergedRollout, ShapeError
from .lti_core import (
    RANK_RTOL, LtiParams, matrix_to_json, _affine_adjoint, _affine_rollout, _load_kernel,
    _same_bits,
)
from .observer import (
    PLACED, UNOBSERVABLE, _PLACEMENT_TOL, default_observer_poles, _checked_poles, _gain_matrix,
    _place_poles, _placement_constants,
)

__all__ = [
    "LearnableParams",
    "TrainConfig",
    "LossBreakdown",
    "TrainResult",
    "lambda_coefficients",
    "loss",
    "gradient",
    "train",
    "log_to_jsonl",
]

ROLLOUT_MODES = ("luenberger", "open_loop")

# Adam moment decay rates and denominator guard.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

_NON_FINITE = "learnable parameters contain non-finite entries"


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
        theta = np.concatenate((A, B, C, x0), axis=None)
        if not np.isfinite(theta).all():
            raise ShapeError(_NON_FINITE)
        theta.flags.writeable = False
        dims = (n, B.shape[1], C.shape[0])
        names = ("theta", "dims", "A_hat", "B_hat", "C_hat", "x0_hat")
        for name, value in zip(names, (theta, dims, *_blocks(theta, *dims))):
            object.__setattr__(self, name, value)

    def as_lti(self) -> LtiParams:
        return LtiParams(self.A_hat, self.B_hat, self.C_hat)

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
        if self.rollout_mode not in ROLLOUT_MODES:
            raise ValueError(f"rollout_mode must be one of {ROLLOUT_MODES}")

    def lr_at(self, epoch: int) -> float:
        k = epoch // self.decay_every
        try:
            return self.lr0 / self.decay_factor**k
        except (OverflowError, ZeroDivisionError):
            import decimal

            # The power left the floats: the quotient, 0.0 or subnormal (or,
            # for a factor below 1, inf), rounded from 60 digits.
            ctx = decimal.Context(prec=60, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=[])
            power = ctx.power(decimal.Decimal(self.decay_factor), k)
            return float(ctx.divide(decimal.Decimal(self.lr0), power))

    def resolved_lambdas(self, n: int, p: int, q: int) -> tuple[float, float, float]:
        la, lb, lc = lambda_coefficients(n, p, q)
        return (
            la if self.lambda_A is None else self.lambda_A,
            lb if self.lambda_B is None else self.lambda_B,
            lc if self.lambda_C is None else self.lambda_C,
        )


@dataclass(frozen=True)
class LossBreakdown:
    data_term: float
    reg_A: float
    reg_B: float
    reg_C: float
    total: float


def lambda_coefficients(n: int, p: int, q: int) -> tuple[float, float, float]:
    """Regularization weights proportional to each matrix's share of entries.

    The three coefficients sum to 1e-3 exactly.
    """
    if min(n, p, q) < 1:
        raise ValueError("dimensions must be positive")
    denom = n * n + n * p + n * q
    return (1e-3 * n * n / denom, 1e-3 * n * p / denom, 1e-3 * n * q / denom)


def _window_data(inputs, measured_outputs, dims: tuple[int, int, int], cfg: TrainConfig):
    """The inputs and measured outputs up to the window's last state, as
    nothing after it reaches the loss; raises ``ShapeError`` if they do not
    cover the window or hold a non-finite entry up to its end."""
    _, p, q = dims
    k0, K = cfg.window_start, cfg.window_len
    inputs = np.asarray(inputs, dtype=float).reshape(-1, p)
    measured = np.asarray(measured_outputs, dtype=float).reshape(-1, q)
    T = inputs.shape[0]
    if k0 + K > T:
        raise ShapeError(f"steady-state window [{k0}, {k0 + K}] exceeds horizon {T}")
    if measured.shape[0] <= k0 + K:
        raise ShapeError("not enough measured outputs for the window")
    inputs, measured = inputs[: k0 + K], measured[: k0 + K + 1]
    if not (np.isfinite(inputs).all() and np.isfinite(measured).all()):
        raise ShapeError("inputs or measured outputs up to the window's end are not all finite")
    return inputs, measured


def _stacked_loss(dims, cfg: TrainConfig, theta, anchor, inputs, measured, L=None,
                  want_gradient=True):
    """Loss terms and gradient of a stack of runs that share dims and ``cfg``.

    θ and anchor θ are (B, P), inputs (B, k0 + K, p) and measured outputs
    (B, k0 + K + 1, q), as ``_window_data`` cuts them; gains L (B, n, q) are
    given in Luenberger mode only. Returns per row the terms (data, reg_A,
    reg_B, reg_C, total) as a (B, 5) array, the gradient (B, P) or None,
    and the first step at which the rollout left the finite numbers, or 0
    where it stayed finite (x0 is finite, so step 0 always is). A diverged
    row's terms and gradient mean nothing, and a gradient may itself
    overflow: the caller checks.

    The C pass of ``_kernel.c`` runs it where it loads and takes the stack,
    else ``_numpy_loss``; each gives every row bitwise as its own one-row
    call of ``_numpy_loss`` would. The pass takes n = 2..4 and horizons
    k0 + K of 2..256 steps: at n = 1 or one step numpy's products make
    other BLAS calls, and past 256 steps OpenBLAS's dgemm splits its sums
    on some cores.
    """
    horizon = cfg.window_start + cfg.window_len
    loss_pass = 2 <= dims[0] <= 4 and 2 <= horizon <= 256 and _load_kernel().loss
    got = loss_pass and loss_pass(dims, cfg, theta, anchor, inputs, measured, L, want_gradient)
    return got or _numpy_loss(dims, cfg, theta, anchor, inputs, measured, L, want_gradient)


def _numpy_loss(dims, cfg: TrainConfig, theta, anchor, inputs, measured, L=None,
                want_gradient=True):
    """``_stacked_loss`` in numpy: the fallback and the reference.

    Each step is one stacked call and each row's reductions run along a
    contiguous axis, so every row is bitwise its own one-row call.
    """
    n, p, q = dims
    k0, K = cfg.window_start, cfg.window_len
    lam_A, lam_B, lam_C = cfg.resolved_lambdas(n, p, q)
    A, B, C, x0 = _blocks(theta, n, p, q)
    closed = L is not None

    # Overflow and NaN are reported through the returned values instead.
    with np.errstate(over="ignore", invalid="ignore"):
        # The observer is the affine recursion x_{k+1} = M x_k + f_k.
        M = A - L @ C if closed else A
        forcing = inputs @ B.transpose(0, 2, 1)
        if closed:
            forcing += measured[:, :-1] @ L.transpose(0, 2, 1)
        states = _affine_rollout(M, x0, forcing)
        finite = np.isfinite(states)
        if finite.all():
            diverged_at = np.zeros(len(states), dtype=np.intp)
        else:
            diverged_at = (~finite.all(axis=2)).argmax(axis=1)
        window = slice(k0, k0 + K + 1)
        residuals = measured[:, window] - states[:, window] @ C.transpose(0, 2, 1)
        # sum / count is the reduction that mean runs, without its overhead
        data_term = (np.abs(residuals).sum(axis=2) / q).sum(axis=1) / K

        dA, dB, dC, _ = _blocks(theta - anchor, n, p, q)
        reg_A, reg_B, reg_C = (
            np.abs(d).sum(axis=(1, 2)) / size for d, size in ((dA, n * n), (dB, n * p), (dC, q * n))
        )
        total = data_term + lam_A * reg_A + lam_B * reg_B + lam_C * reg_C
        terms = np.stack((data_term, reg_A, reg_B, reg_C, total), axis=1)
        if not want_gradient:
            return terms, None, diverged_at

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
    return terms, grads, diverged_at


def _family_pass(lib, family: int, blas: list):
    """The C loss pass in order family ``family``, calling the CBLAS
    routines at the addresses ``blas`` (``lti_core._BLAS``; the pass
    declines every stack where one is None), as ``_stacked_loss`` calls it."""
    leo_loss = lib.leo_loss

    def loss_pass(dims, cfg, theta, anchor, inputs, measured, L, want_gradient):
        """``_stacked_loss`` from one C call, or None, with nothing run,
        where the pass does not take the stack: dims or a horizon outside
        its range, an array that is not C-contiguous, or a family this CPU
        cannot run."""
        n, p, q = dims
        arrays = (theta, anchor, inputs, measured, L)
        if not all(a.flags.c_contiguous for a in arrays if a is not None):
            return None
        B, P = theta.shape
        buf = np.empty(B * (6 + P))  # terms, grads and diverged (see _kernel.c)
        if not leo_loss(
            family, B, n, p, q, cfg.window_start, cfg.window_len, want_gradient,
            *cfg.resolved_lambdas(n, p, q), theta.ctypes.data, anchor.ctypes.data,
            inputs.ctypes.data, measured.ctypes.data, None if L is None else L.ctypes.data,
            *blas, buf.ctypes.data,
        ):
            return None
        terms, grads = buf[: 5 * B].reshape(B, 5), buf[5 * B : -B].reshape(B, P)
        return terms, grads if want_gradient else None, buf[-B:].astype(np.intp)

    return loss_pass


def _pass_matches_numpy(loss_pass) -> bool:
    """True iff ``loss_pass`` runs and gives ``_numpy_loss``'s bits, with
    any NaN for a NaN, on a fixed seeded stack per dims (n, p, q) with
    n = 2..4, in both rollout modes, with and without the gradient (whose
    terms are those of the numpy call with it).

    Its rows hold exact zeros, -0.0 and subnormal products, exactly-zero
    residuals, -0.0 deviations from the anchor, and a rollout that
    overflows; its window is long enough for the eight-way blocks of
    numpy's pairwise summation.
    """
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(20251020)))
    k0, K = 3, 9
    every_dims = [(n, p, q) for n in range(2, 5) for p in range(1, n + 1) for q in range(1, n + 1)]
    for n, p, q in every_dims:
        size = n * (n + p + q + 1)
        theta = 0.5 * gen.standard_normal((4, size))
        anchor = theta + 0.01 * gen.standard_normal((4, size))
        inputs = gen.standard_normal((4, k0 + K, p))
        measured = gen.standard_normal((4, k0 + K + 1, q))
        L = 0.3 * gen.standard_normal((4, n, q))
        # row 0: zero state and data, with -0.0 outputs; -0.0 - 0.0 deviations
        theta[0, -n:], inputs[0], measured[0, ::2], measured[0, 1::2] = 0.0, 0.0, -0.0, 0.0
        theta[0, :3], anchor[0, :3] = -0.0, (0.0, 0.0, theta[0, 2])
        # row 1: subnormal products; row 2: a rollout that overflows
        theta[1] *= 1e-160
        theta[2, : n * n] *= 1e3
        theta[2, -n:] = 1e300
        for mode, gains in (("luenberger", L), ("open_loop", None)):
            cfg = TrainConfig(rollout_mode=mode, window_start=k0, window_len=K)
            args = ((n, p, q), cfg, theta, anchor, inputs, measured, gains)
            want = _numpy_loss(*args)
            got, terms = loss_pass(*args, True), loss_pass(*args, False)
            if (got is None or terms is None or not all(map(_same_bits, got, want))
                    or not all(map(_same_bits, terms, (want[0], None, want[2])))):
                return False
    return True


def _one_run_loss(params, gain, inputs, measured_outputs, cfg, init, want_gradient):
    """``_stacked_loss`` of one run; raises ``DivergedRollout`` if its rollout diverges."""
    n, _, q = params.dims
    inputs, measured = _window_data(inputs, measured_outputs, params.dims, cfg)
    L = _gain_matrix(gain, n, q)[None] if cfg.rollout_mode == "luenberger" else None
    anchor = init if init is not None else params
    terms, grads, diverged_at = _stacked_loss(
        params.dims, cfg, params.theta[None], anchor.theta[None], inputs[None], measured[None], L,
        want_gradient,
    )
    if diverged_at[0]:
        raise DivergedRollout(int(diverged_at[0]))
    return terms[0], grads


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
    terms, _ = _one_run_loss(params, gain, inputs, measured_outputs, cfg, init, False)
    return LossBreakdown(*terms.tolist())


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
    _, grads = _one_run_loss(params, gain, inputs, measured_outputs, cfg, init, True)
    return LearnableParams(*_blocks(grads[0], *params.dims))


def _adam_update(theta, m, v, g, steps: list, lrs: list, weight_decay: float):
    """One Adam update of stacked rows θ, m, v and gradients g (B, P), with
    bias correction and decoupled weight decay: θ shrinks by the factor
    1 - lr * weight_decay before the increment, and the decay never enters
    the gradient or the moments.

    ``steps`` and ``lrs`` give each row's step number t (counted from 1) and
    learning rate. The per-row lr, decay factor and bias corrections are
    Python floats, gathered into (B, 1) columns, so every element is
    computed as in a one-row update. Returns the new θ, m and v; an
    overflow shows as a non-finite entry, which the caller checks.
    """
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    columns = np.array(
        [(lr, 1 - lr * weight_decay, 1 - b1**t, 1 - b2**t) for t, lr in zip(steps, lrs)]
    ).reshape(-1, 4)
    lr, decay, c1, c2 = columns.T[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * np.square(g)
        m_hat = m / c1
        v_hat = v / c2
        theta = theta * decay - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return theta, m, v


@dataclass
class TrainResult:
    """Optimized parameters plus per-epoch log and run diagnostics.

    Every run ends as one, with finite parameters. ``log`` has one entry
    per epoch that took a step, with the keys ``log_to_jsonl`` serializes.
    ``diagnostics`` holds: gain_refreshes and gain_reuses (epochs that
    re-synthesized the gain or kept the previous one), observable_epochs
    (Luenberger mode only, else None), never_observable, aborted,
    abort_epoch, lr_halvings (failed epochs that were rolled back),
    final_gain (the last gain in use, or None in open-loop mode or with no
    epoch run) and transforms_applied, always 0.
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
    """Run the full refinement loop (gain refresh, loss and gradient, Adam).

    Per epoch in Luenberger mode: (a) one SVD of the current matrices'
    observability stack decides whether the pair is observable; (b) if it
    is, the observer gain is re-synthesized from the current matrices,
    otherwise (or if synthesis fails) the previous gain, at first zero, is
    kept. Then in both modes: (c) loss and gradient with the gain frozen;
    (d) an Adam step at the scheduled learning rate. For n = 2..4 every
    epoch runs inside one call of the C training pass of ``_kernel.c``
    where it loads; else each stage is its own call (``_round_loop``).

    An epoch fails when its rollout diverges or its gradient, Adam step or
    second moment leaves the finite numbers (a second moment that
    overflowed would stall its coordinates for the rest of the run). A
    failed epoch takes no step: it restores the state from before the last
    step and halves the learning rate, or, with no step to undo, aborts
    the run with its log so far. Both show in ``diagnostics``: on finite
    parameters ``train`` raises nothing, unless the data does not cover
    the window or is not finite up to its end (``ShapeError``). It is a
    batch of one of the Monte Carlo trainer and gives bitwise the same
    result.
    """
    return _train_batch([init], [inputs], [measured_outputs], cfg)[0]


def _train_batch(inits: list, inputs: list, measured_outputs: list, cfg: TrainConfig) -> list:
    """``train`` for runs that share dims and ``cfg``, as one batch.

    The runs are held as arrays with a leading run axis. The C training
    pass of ``_kernel.c`` runs every epoch of every run in one call where
    it loads and takes the batch (n = 2..4, p and q at most n, horizons of
    2..256 steps, as the loss pass); else ``_round_loop`` runs it, one
    stacked call per stage per round. Both give every run bitwise the same
    result, and no run's rollback or abort changes another's. Every stage
    gives each finite row a result, so an exception from one is a bug, and
    it fails the whole batch.
    """
    dims = inits[0].dims
    data = [_window_data(u, y, dims, cfg) for u, y in zip(inputs, measured_outputs)]
    u = np.stack([d[0] for d in data])
    y = np.stack([d[1] for d in data])
    anchor = np.stack([init.theta for init in inits])
    train_pass = 2 <= dims[0] <= 4 and _load_kernel().train
    got = train_pass and train_pass(dims, cfg, anchor, u, y)
    return _train_results(dims, cfg, *(got or _round_loop(dims, cfg, anchor, u, y)))


def _round_loop(dims, cfg: TrainConfig, anchor, u, y):
    """The training of a batch in rounds of numpy calls: the reference
    and the fallback of the C training pass.

    Each round runs one epoch of every live run with one stacked call per
    stage (placement, loss and gradient, the Adam update); then one mask
    decides which epochs failed. Takes the anchors (runs, P) and the
    window data u and y as ``_stacked_loss`` does; returns θ (runs, P),
    the last gains L (runs, n, q), the counters (runs, 6) (epochs run,
    halvings, refreshes, reuses, observable epochs and the abort epoch or
    -1) and the log (runs, epochs, 7) (the five loss terms, lr and
    refreshed per epoch run), as ``_train_results`` reads them.
    """
    n, p, q = dims
    runs = len(anchor)
    theta = anchor.copy()
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    epoch, halvings = (np.zeros(runs, dtype=int) for _ in range(2))
    # The rollback snapshot: θ, m and v before each run's last Adam step.
    state = (theta, m, v)
    saved = [a.copy() for a in state]
    has_saved = np.zeros(runs, dtype=bool)
    luenberger = cfg.rollout_mode == "luenberger"
    poles = tuple(_checked_poles(default_observer_poles(n), n))
    L = np.zeros((runs, n, q))
    refreshes, reuses, observable_epochs = (np.zeros(runs, dtype=int) for _ in range(3))
    abort_epoch = np.full(runs, -1)
    log = np.zeros((runs, cfg.epochs, 7))
    live = np.full(runs, cfg.epochs > 0)

    while live.any():
        rows = np.flatnonzero(live)
        # A round of every run takes the whole arrays, without row copies.
        sel = slice(None) if len(rows) == runs else rows
        refreshed = np.full(len(rows), luenberger)
        if luenberger:
            A, _, C, _ = _blocks(theta[sel], n, p, q)
            gains, reason, _ = _place_poles(A, C, poles)
            refreshed = reason == PLACED
            L[rows[refreshed]] = gains[refreshed]
            refreshes[sel] += refreshed
            reuses[sel] += ~refreshed
            observable_epochs[sel] += reason != UNOBSERVABLE
        terms, grads, diverged_at = _stacked_loss(
            dims, cfg, theta[sel], anchor[sel], u[sel], y[sel], L[sel] if luenberger else None
        )
        lrs = np.array(
            [cfg.lr_at(e) * 0.5**h for e, h in zip(epoch[sel].tolist(), halvings[sel].tolist())]
        )
        # A kept step adds one to epoch and a rollback, which undoes one,
        # adds one to halvings: epoch - halvings steps are in θ.
        steps = epoch[sel] - halvings[sel] + 1
        stepped, m_new, v_new = _adam_update(
            theta[sel], m[sel], v[sel], grads, steps.tolist(), lrs.tolist(), cfg.weight_decay
        )
        ok = (
            (diverged_at == 0) & np.isfinite(grads).all(axis=1)
            & np.isfinite(stepped).all(axis=1) & np.isfinite(v_new).all(axis=1)
        )

        # A failed epoch takes no step: it undoes the run's last step and
        # halves its learning rate; with no step to undo, the run aborts.
        failed = rows[~ok]
        stop, back = failed[~has_saved[failed]], failed[has_saved[failed]]
        abort_epoch[stop] = epoch[stop]
        live[stop] = False
        for a, kept in zip(state, saved):
            a[back] = kept[back]
        has_saved[back] = False
        halvings[back] += 1

        good = rows[ok]
        log[good, epoch[good]] = np.column_stack((terms[ok], lrs[ok], refreshed[ok]))
        if len(good) == runs:
            # Every run steps: the state before the step is the snapshot.
            saved, state = state, (stepped, m_new, v_new)
            theta, m, v = state
        else:
            for a, kept, new in zip(state, saved, (stepped, m_new, v_new)):
                kept[good] = a[good]
                a[good] = new[ok]
        has_saved[good] = True
        epoch[good] += 1
        live[good] = epoch[good] < cfg.epochs

    counts = np.stack((epoch, halvings, refreshes, reuses, observable_epochs, abort_epoch), axis=1)
    return theta, L, counts, log


def _train_results(dims, cfg: TrainConfig, theta, L, counts, log) -> list:
    """One ``TrainResult`` per run from the outputs of ``_round_loop`` or
    of the C training pass."""
    luenberger = cfg.rollout_mode == "luenberger"
    results = []
    for r, (epochs_run, halvings, refreshes, reuses, observable, abort_epoch) in enumerate(
        counts.tolist()
    ):
        entries = [
            {
                "epoch": e, "loss_total": total, "loss_data": data_term, "reg_A": reg_A,
                "reg_B": reg_B, "reg_C": reg_C, "lr": lr, "L_refreshed": fresh == 1.0,
            }
            for e, (data_term, reg_A, reg_B, reg_C, total, lr, fresh) in enumerate(
                log[r, :epochs_run].tolist()
            )
        ]
        diagnostics = {
            "transforms_applied": 0,
            "gain_refreshes": refreshes,
            "gain_reuses": reuses,
            "observable_epochs": observable if luenberger else None,
            "never_observable": bool(luenberger and epochs_run and observable == 0),
            "aborted": abort_epoch >= 0,
            "abort_epoch": abort_epoch if abort_epoch >= 0 else None,
            "lr_halvings": halvings,
            "final_gain": L[r].copy() if luenberger and cfg.epochs > 0 else None,
        }
        params = LearnableParams(*_blocks(theta[r], *dims))
        results.append(TrainResult(params=params, log=entries, diagnostics=diagnostics))
    return results


def _schedule(cfg: TrainConfig) -> np.ndarray:
    """Per epoch e: ``cfg.lr_at(e)`` and Adam's bias corrections 1 - β1^(e+1)
    and 1 - β2^(e+1), as (3, epochs), each the float the round loop uses."""
    e = range(cfg.epochs)
    return np.array([
        [cfg.lr_at(k) for k in e],
        [1 - ADAM_BETA1 ** (k + 1) for k in e],
        [1 - ADAM_BETA2 ** (k + 1) for k in e],
    ]).reshape(3, cfg.epochs)


def _family_train(lib, family: int, routines: list):
    """The C training pass in order family ``family``, calling the LAPACK
    and CBLAS routines at the addresses ``routines`` (``lti_core._LAPACK``,
    then ``_BLAS``), as ``_train_batch`` calls it."""
    import ctypes

    leo_train = lib.leo_train
    addresses = (ctypes.c_void_p * 5)(*routines)

    def train_pass(dims, cfg, anchor, u, y):
        """``_round_loop``'s outputs from one C call, or None where the
        pass does not run: dims or a horizon outside its range, a family
        this CPU cannot run, or a LAPACK call that fails."""
        n, p, q = dims
        runs = len(anchor)
        poles = tuple(_checked_poles(default_observer_poles(n), n))
        neg_kron, targets, draws = (
            np.ascontiguousarray(a) for a in _placement_constants(poles, q)
        )
        requested = np.ascontiguousarray(poles, dtype=complex)
        hyper = np.array([*cfg.resolved_lambdas(n, p, q), cfg.weight_decay, ADAM_BETA1,
                          ADAM_BETA2, ADAM_EPS, RANK_RTOL, _PLACEMENT_TOL])
        schedule = _schedule(cfg)
        theta, L = anchor.copy(), np.empty((runs, n, q))
        counts, log = np.empty((runs, 6), dtype=np.int64), np.zeros((runs, cfg.epochs, 7))
        ran = leo_train(
            family, runs, n, p, q, cfg.window_start, cfg.window_len, cfg.epochs,
            cfg.rollout_mode == "luenberger", hyper.ctypes.data, schedule.ctypes.data,
            anchor.ctypes.data, u.ctypes.data, y.ctypes.data, len(draws), requested.ctypes.data,
            targets.ctypes.data, neg_kron.ctypes.data, draws.ctypes.data,
            ctypes.addressof(addresses), theta.ctypes.data, L.ctypes.data, counts.ctypes.data,
            log.ctypes.data,
        )
        return (theta, L, counts, log) if ran else None

    return train_pass


def _train_matches_round_loop(train_pass) -> bool:
    """True iff ``train_pass`` runs and gives ``_round_loop``'s outputs bit
    for bit, with any NaN for a NaN, on a fixed seeded batch per dims, in
    both rollout modes, over learning-rate decays.

    Besides ordinary runs, row 1 starts unobservable (C = 0). Row 2 stays
    unobservable, so its gain stays zero: every entry of its A, C and x0
    is positive and its outputs are far above the model's, so that each
    step grows its A in every entry, until the second moment of its
    gradient overflows (a rollback). Row 3's rollout overflows at once (an
    abort). Row 4 has a zero start and data of 0.0 and -0.0.
    """
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(20261021)))
    k0, K = 3, 9
    for dims in ((2, 1, 1), (3, 2, 1), (3, 3, 3), (4, 3, 2), (4, 4, 4)):
        n, p, q = dims
        anchor = 0.4 * gen.standard_normal((6, n * (n + p + q + 1)))
        u = gen.standard_normal((6, k0 + K, p))
        y = gen.standard_normal((6, k0 + K + 1, q))
        A, B, C, x0 = _blocks(anchor, n, p, q)
        C[1] = 0.0
        A[2], B[2], C[2], x0[2], u[2], y[2] = 0.5 / n, 0.0, 1.0, 1e148, 0.0, 1e165
        A[3] *= 1e3
        x0[3] = 1e300
        x0[4], u[4], y[4, ::2], y[4, 1::2] = 0.0, -0.0, -0.0, 0.0
        for mode in ROLLOUT_MODES:
            cfg = TrainConfig(lr0=1.0, epochs=7, decay_every=3, rollout_mode=mode,
                              window_start=k0, window_len=K)
            got, want = train_pass(dims, cfg, anchor, u, y), _round_loop(dims, cfg, anchor, u, y)
            if got is None or not all(map(_same_bits, got, want)):
                return False
    return True
