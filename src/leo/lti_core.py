"""Core types and dense small-matrix numerics for discrete-time LTI systems.

Conventions used throughout the package:

* matrices are dense row-major ``numpy`` arrays of ``float64`` with explicit
  2-D shape; state/output/input samples are 1-D vectors,
* ``||.||_1`` is the vector 1-norm (sum of absolute values) and, for a
  matrix, the induced 1-norm (maximum absolute column sum),
* a horizon ``T`` means ``T`` transitions: ``T`` inputs, ``T + 1`` states and
  ``T + 1`` outputs (one measurement per visited state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .exceptions import (
    GenerationError,
    NumericalError,
    ShapeError,
)

__all__ = [
    "LtiParams",
    "TrueSystem",
    "NoiseRealization",
    "Trajectory",
    "RngStream",
    "SystemGenConfig",
    "one_norm",
    "simulate_true",
    "observability_matrix",
    "is_observable",
    "spectral_radius",
    "is_schur",
    "pinv",
    "condition_number",
    "random_system",
    "matrix_to_json",
    "matrix_from_json",
]

# Relative singular-value cutoff for numerical rank decisions.
RANK_RTOL = 1e-9


def _as_matrix(M, rows: int | None = None, cols: int | None = None, name: str = "matrix") -> np.ndarray:
    out = np.asarray(M, dtype=float)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {out.shape}")
    if rows is not None and out.shape[0] != rows:
        raise ShapeError(f"{name} must have {rows} rows, got {out.shape[0]}")
    if cols is not None and out.shape[1] != cols:
        raise ShapeError(f"{name} must have {cols} columns, got {out.shape[1]}")
    if not np.all(np.isfinite(out)):
        raise ShapeError(f"{name} contains non-finite entries")
    return out


def _as_vector(v, size: int | None = None, name: str = "vector") -> np.ndarray:
    out = np.asarray(v, dtype=float).reshape(-1)
    if size is not None and out.size != size:
        raise ShapeError(f"{name} must have {size} entries, got {out.size}")
    if not np.all(np.isfinite(out)):
        raise ShapeError(f"{name} contains non-finite entries")
    return out


def one_norm(M: np.ndarray) -> float:
    """1-norm: sum of absolute values for vectors, max column sum for matrices."""
    M = np.asarray(M, dtype=float)
    if M.ndim <= 1:
        return float(np.abs(M).sum())
    if M.size == 0:
        return 0.0
    return float(np.abs(M).sum(axis=0).max())


@dataclass(frozen=True)
class LtiParams:
    """System matrix triple (A, B, C) of a discrete-time LTI model.

    ``A`` is n x n, ``B`` is n x p with p <= n, ``C`` is q x n with q >= 1.
    The same type represents real, nominal and learned models.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, name="A")
        n = A.shape[0]
        if A.shape[1] != n:
            raise ShapeError(f"A must be square, got {A.shape}")
        self._bind(A, _as_matrix(self.B, rows=n, name="B"), _as_matrix(self.C, cols=n, name="C"))

    @staticmethod
    def _of(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> "LtiParams":
        """Parameters from finite float matrices whose shapes already agree
        (n x n, n x p, q x n), such as ``LearnableParams``' views: like the
        constructor, but without its per-entry checks."""
        return object.__new__(LtiParams)._bind(A, B, C)

    def _bind(self, A: np.ndarray, B: np.ndarray, C: np.ndarray) -> "LtiParams":
        if B.shape[1] > A.shape[0]:
            raise ShapeError(f"input dimension p={B.shape[1]} exceeds n={A.shape[0]}")
        if C.shape[0] < 1:
            raise ShapeError("C must have at least one row")
        for name, M in (("A", A), ("B", B), ("C", C)):
            object.__setattr__(self, name, M)
        return self

    @property
    def dims(self) -> tuple[int, int, int]:
        """(n, p, q): state, input and output dimensions."""
        return self.A.shape[0], self.B.shape[1], self.C.shape[0]

    def to_json(self) -> dict:
        return {
            "A": matrix_to_json(self.A),
            "B": matrix_to_json(self.B),
            "C": matrix_to_json(self.C),
        }

    @staticmethod
    def from_json(obj: dict) -> "LtiParams":
        return LtiParams(
            A=matrix_from_json(obj["A"]),
            B=matrix_from_json(obj["B"]),
            C=matrix_from_json(obj["C"]),
        )


@dataclass(frozen=True)
class TrueSystem:
    """Ground truth of one trial: real matrices, their perturbations, and x0.

    The nominal model available to the designer is the real model minus the
    perturbations; ``nominal()`` returns it.
    """

    real: LtiParams
    delta_A: np.ndarray
    delta_B: np.ndarray
    delta_C: np.ndarray
    x0_real: np.ndarray

    def __post_init__(self):
        n, p, q = self.real.dims
        object.__setattr__(self, "delta_A", _as_matrix(self.delta_A, n, n, "delta_A"))
        object.__setattr__(self, "delta_B", _as_matrix(self.delta_B, n, p, "delta_B"))
        object.__setattr__(self, "delta_C", _as_matrix(self.delta_C, q, n, "delta_C"))
        object.__setattr__(self, "x0_real", _as_vector(self.x0_real, n, "x0_real"))

    def nominal(self) -> LtiParams:
        """Perturbed matrices the designer actually has access to."""
        return LtiParams(
            A=self.real.A - self.delta_A,
            B=self.real.B - self.delta_B,
            C=self.real.C - self.delta_C,
        )


@dataclass(frozen=True)
class NoiseRealization:
    """Process noise w (one n-vector per transition) and measurement noise v
    (one q-vector per measured state, so one more sample than ``w``)."""

    w: np.ndarray  # (T, n)
    v: np.ndarray  # (T + 1, q)

    def __post_init__(self):
        w = _as_matrix(self.w, name="w")
        v = _as_matrix(self.v, name="v")
        if v.shape[0] != w.shape[0] + 1:
            raise ShapeError(
                f"v must have one more sample than w, got {v.shape[0]} vs {w.shape[0]}"
            )
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "v", v)

    @property
    def horizon(self) -> int:
        return self.w.shape[0]

    @staticmethod
    def zero(T: int, n: int, q: int) -> "NoiseRealization":
        return NoiseRealization(w=np.zeros((T, n)), v=np.zeros((T + 1, q)))


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed inputs, states and outputs of one rollout.

    ``inputs`` has T rows (k = 0..T-1); ``states`` and ``outputs`` have T + 1
    rows (k = 0..T).
    """

    inputs: np.ndarray   # (T, p)
    states: np.ndarray   # (T + 1, n)
    outputs: np.ndarray  # (T + 1, q)

    def __post_init__(self):
        inputs = _as_matrix(self.inputs, name="inputs")
        states = _as_matrix(self.states, name="states")
        outputs = _as_matrix(self.outputs, name="outputs")
        if states.shape[0] != inputs.shape[0] + 1:
            raise ShapeError("states must have exactly one more row than inputs")
        if outputs.shape[0] != states.shape[0]:
            raise ShapeError("outputs must have one row per state")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "outputs", outputs)

    @property
    def horizon(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class RngStream:
    """Splittable, counter-based random stream.

    The same (seed, path) always yields the same sample sequence, and
    ``substream`` derives statistically independent child streams, so
    concurrent trial workers never share generator state.
    """

    seed: int
    path: tuple[int, ...] = field(default=())

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))

    def substream(self, *indices: int) -> "RngStream":
        return replace(self, path=self.path + tuple(int(i) for i in indices))


def _generator_from(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be an RngStream or numpy Generator")


def simulate_true(
    sys: TrueSystem,
    inputs: np.ndarray,
    noise: NoiseRealization,
    horizon: int | None = None,
) -> Trajectory:
    """Roll the real (noisy) system forward from its true initial state.

    x_{k+1} = A_real x_k + B_real u_k + w_k and y_k = C_real x_k + v_k.
    ``noise`` may be longer than the horizon; extra samples are ignored.
    """
    n, p, q = sys.real.dims
    inputs = _as_matrix(inputs, cols=p, name="inputs")
    T = inputs.shape[0] if horizon is None else int(horizon)
    if not 0 <= T <= inputs.shape[0]:
        raise ShapeError(f"horizon {T} is negative or exceeds the {inputs.shape[0]} inputs")
    if noise.w.shape[0] < T or noise.v.shape[0] < T + 1:
        raise ShapeError("noise realization shorter than the simulation horizon")
    if noise.w.shape[1] != n or noise.v.shape[1] != q:
        raise ShapeError("noise dimensions do not match the system")

    A, B, C = sys.real.A, sys.real.B, sys.real.C
    states = np.empty((T + 1, n))
    outputs = np.empty((T + 1, q))
    states[0] = sys.x0_real
    for k in range(T):
        outputs[k] = C @ states[k] + noise.v[k]
        states[k + 1] = A @ states[k] + B @ inputs[k] + noise.w[k]
    outputs[T] = C @ states[T] + noise.v[T]
    return Trajectory(inputs=inputs[:T], states=states, outputs=outputs)


def _affine_rollout(M: np.ndarray, x0: np.ndarray, forcing: np.ndarray) -> np.ndarray:
    """Rows x_0..x_K of x_{k+1} = M x_k + f_k, for forcing rows f_0..f_{K-1}.

    Batched over a leading trial axis: M (B, n, n), x0 (B, n) and forcing
    (B, K, n) give states (B, K + 1, n), and each time step is one stacked
    ``np.matmul``, which runs the same matrix-vector product per trial as
    ``M[b] @ x``, so every trial's rows are bitwise those of its own run. A
    2-D M, 1-D x0 and 2-D forcing are a batch of one. Non-finite values
    propagate; callers decide what they mean.
    """
    if M.ndim == 2:
        return _affine_rollout(M[None], x0[None], forcing[None])[0]
    B, K, n = forcing.shape
    # Time-major buffer: the steps' rows never share memory, and for B = 1
    # it already has the batch-major layout of the result.
    states = np.empty((K + 1, B, n, 1))
    states[0, :, :, 0] = x0
    matmul, add = np.matmul, np.add  # positional out: the cheapest ufunc calls
    for x, x_next, f in zip(states[:-1], states[1:], forcing.transpose(1, 0, 2)[..., None]):
        matmul(M, x, x_next)
        add(x_next, f, x_next)
    return np.ascontiguousarray(states[..., 0].transpose(1, 0, 2))


def _affine_adjoint(M: np.ndarray, direct: np.ndarray) -> np.ndarray:
    """Adjoint of ``_affine_rollout``: lambda_k = d_k + M^T lambda_{k+1}.

    For direct sensitivities d_0..d_K of a scalar to x_0..x_K, lambda_k is
    its total sensitivity to x_k (lambda_K = d_K) and lambda_{k+1} to f_k.
    Batched like the rollout: M (B, n, n) and direct (B, K + 1, n) give
    (B, K + 1, n); a 2-D M and direct are a batch of one.
    """
    if M.ndim == 2:
        return _affine_adjoint(M[None], direct[None])[0]
    Mt = M.transpose(0, 2, 1)
    d = direct.transpose(1, 0, 2)[..., None]
    adj = np.empty(d.shape)
    adj[-1] = d[-1]
    matmul, add = np.matmul, np.add
    for lam, lam_next, d_k in zip(adj[-2::-1], adj[:0:-1], d[-2::-1]):
        matmul(Mt, lam_next, lam)
        add(lam, d_k, lam)
    return np.ascontiguousarray(adj[..., 0].transpose(1, 0, 2))


def observability_matrix(A: np.ndarray, C: np.ndarray, N: int) -> np.ndarray:
    """Vertical stack of C A^j for j = 0..N-1 (shape Nq x n)."""
    A = _as_matrix(A, name="A")
    C = _as_matrix(C, cols=A.shape[0], name="C")
    if N < 1:
        raise ValueError("N must be >= 1")
    return _observability_stack(A, C, N)


def _observability_stack(A: np.ndarray, C: np.ndarray, N: int) -> np.ndarray:
    """``observability_matrix`` for matrices that are already validated;
    stacks of pairs, A (B, n, n) and C (B, q, n), give (B, Nq, n)."""
    blocks = [C]
    for _ in range(N - 1):
        blocks.append(blocks[-1] @ A)
    return np.concatenate(blocks, axis=-2)


def _observability_condition(A: np.ndarray, C: np.ndarray):
    """sigma_max / sigma_min of the N = n observability stack, from one SVD.

    +inf when the stack lacks full column rank (``RANK_RTOL`` cutoff) or
    its singular values are not finite, so one value is both the rank
    decision and the condition number. A and C must
    already be validated, as an ``LtiParams``' matrices are. Stacks of pairs,
    A (B, n, n) and C (B, q, n), give a list of B values from one stacked
    build and SVD, each bitwise that of its own call.
    """
    n = A.shape[-1]
    s = np.linalg.svd(_observability_stack(A, C, n), compute_uv=False).reshape(-1, n)
    # The rank test comes first, so a zero stack never divides.
    cond = [sv[0] / sv[-1] if sv[-1] > RANK_RTOL * sv[0] else math.inf for sv in s.tolist()]
    return cond if A.ndim == 3 else cond[0]


def is_observable(A: np.ndarray, C: np.ndarray) -> bool:
    """True iff the N = n observability stack has full column rank.

    Rank uses the singular-value cutoff ``RANK_RTOL * sigma_max``.
    """
    A = _as_matrix(A, name="A")
    C = _as_matrix(C, cols=A.shape[0], name="C")
    return math.isfinite(_observability_condition(A, C))


def spectral_radius(A: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    A = _as_matrix(A, name="A")
    if A.shape[0] != A.shape[1]:
        raise ShapeError("spectral radius requires a square matrix")
    try:
        eig = np.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - hard to trigger
        raise NumericalError(f"eigenvalue iteration failed: {exc}") from exc
    return float(np.max(np.abs(eig))) if eig.size else 0.0


def is_schur(A: np.ndarray) -> bool:
    """True iff every eigenvalue lies strictly inside the unit disk."""
    return spectral_radius(A) < 1.0


def pinv(M: np.ndarray, rcond: float = 1e-12) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD with a relative cutoff.

    Singular values below ``rcond * sigma_max`` are treated as zero. The
    result satisfies the four Penrose conditions to ~1e-10 for well-scaled
    input.
    """
    M = _as_matrix(M, name="M")
    try:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"SVD failed to converge: {exc}") from exc
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((M.shape[1], M.shape[0]))
    keep = s > rcond * s[0]
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return (Vt.T * inv_s) @ U.T


def condition_number(M: np.ndarray) -> float:
    """sigma_max / sigma_min; +inf when the matrix is numerically singular."""
    M = _as_matrix(M, name="M")
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        raise ValueError("condition number of a zero matrix is undefined")
    smin = s[-1]
    if smin < s[0] * 1e-16:
        return math.inf
    return float(s[0] / smin)


@dataclass(frozen=True)
class SystemGenConfig:
    """Knobs for random system generation.

    ``target_radius`` fixes the spectral radius of every generated A so all
    trials face comparable dynamics; perturbations are elementwise Gaussian.
    """

    target_radius: float = 0.9
    perturbation_std: float = 0.05
    x0_std: float = 1.0
    max_resamples: int = 100


def random_system(
    n: int,
    p: int,
    q: int,
    rng,
    gen_config: SystemGenConfig | None = None,
) -> TrueSystem:
    """Draw a Schur-stable, observable random system plus its perturbations.

    A is sampled with standard normal entries and rescaled to the target
    spectral radius; B and C are resampled (up to ``max_resamples``) until
    (A, C) is observable. Perturbations delta_A/B/C are i.i.d.
    ``Normal(0, perturbation_std**2)`` per element and x0 is standard normal
    per component.
    """
    if not (1 <= p <= n):
        raise ValueError(f"need 1 <= p <= n, got p={p}, n={n}")
    if q < 1:
        raise ValueError("need q >= 1")
    cfg = gen_config or SystemGenConfig()
    gen = _generator_from(rng)

    A = gen.standard_normal((n, n))
    rho = spectral_radius(A)
    while rho < 1e-12:  # probability-zero degenerate draw
        A = gen.standard_normal((n, n))
        rho = spectral_radius(A)
    A = cfg.target_radius / rho * A

    for _ in range(cfg.max_resamples):
        B = gen.standard_normal((n, p))
        C = gen.standard_normal((q, n))
        if is_observable(A, C):
            break
    else:
        raise GenerationError(
            f"no observable (A, C) draw in {cfg.max_resamples} attempts at dims ({n},{p},{q})"
        )

    real = LtiParams(A=A, B=B, C=C)
    return TrueSystem(
        real=real,
        delta_A=gen.normal(0.0, cfg.perturbation_std, (n, n)),
        delta_B=gen.normal(0.0, cfg.perturbation_std, (n, p)),
        delta_C=gen.normal(0.0, cfg.perturbation_std, (q, n)),
        x0_real=gen.normal(0.0, cfg.x0_std, n),
    )


def matrix_to_json(M: np.ndarray) -> dict:
    """Serialize a matrix as {"rows", "cols", "data"} with row-major data."""
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M.reshape(-1, 1)
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "data": [float(x) for x in M.reshape(-1)],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = np.asarray(obj["data"], dtype=float)
    if data.size != rows * cols:
        raise ShapeError(
            f"matrix JSON declares {rows}x{cols} but carries {data.size} entries"
        )
    return data.reshape(rows, cols)
