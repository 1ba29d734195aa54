"""Luenberger/open-loop observer rollouts, gain synthesis, and conditioning.

Gain synthesis places the eigenvalues of A - LC by the dual Sylvester
construction: pick a real block-diagonal F carrying the requested spectrum
and a random q x n matrix G, solve

    A^T X - X F = C^T G

for X through the equivalent Kronecker linear system, and read off
L = (G X^{-1})^T. This works for any output dimension, unlike
single-output Ackermann-style formulas. Synthesis runs on a stack of pairs
at once (the trials of a lockstep training batch), and what depends only on
the requested poles (F, its Kronecker term and the G draws) is built once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import linear_sum_assignment

from .exceptions import (
    PolePlacementInfeasible,
    RankDeficientError,
    ShapeError,
    SynthesisFailureError,
)
from .lti_core import (
    LtiParams,
    Trajectory,
    is_observable,
    matrix_from_json,
    matrix_to_json,
    one_norm,
    _affine_rollout,
    _observability_condition,
    _observability_stack,
)

__all__ = [
    "ObserverGain",
    "CoordinateTransform",
    "default_observer_poles",
    "max_spectrum_deviation",
    "place_observer_poles",
    "run_luenberger",
    "run_open_loop",
    "conditioning_transform",
    "apply_transform",
    "invert_transform",
]

# Repeated requested poles are split apart by this much so the spectrum
# matrix F stays diagonalizable.
_MULTIPLICITY_SPREAD = 1e-4
_PLACEMENT_TOL = 1e-7
_MAX_G_ATTEMPTS = 10


@dataclass(frozen=True)
class ObserverGain:
    """Observer gain L together with the pole locations it was built for."""

    L: np.ndarray
    desired_poles: tuple[complex, ...]

    def __post_init__(self):
        L = np.asarray(self.L, dtype=float)
        if L.ndim != 2:
            raise ShapeError(f"L must be 2-D, got shape {L.shape}")
        object.__setattr__(self, "L", L)
        object.__setattr__(
            self, "desired_poles", tuple(complex(z) for z in self.desired_poles)
        )

    def to_json(self) -> dict:
        return {
            "L": matrix_to_json(self.L),
            "desired_poles": [[z.real, z.imag] for z in self.desired_poles],
        }

    @staticmethod
    def from_json(obj: dict) -> "ObserverGain":
        return ObserverGain(
            L=matrix_from_json(obj["L"]),
            desired_poles=tuple(complex(re, im) for re, im in obj["desired_poles"]),
        )


@dataclass(frozen=True)
class CoordinateTransform:
    """Invertible change of state coordinates x -> T x."""

    T: np.ndarray
    T_inv: np.ndarray

    def __post_init__(self):
        T = np.asarray(self.T, dtype=float)
        T_inv = np.asarray(self.T_inv, dtype=float)
        n = T.shape[0]
        if T.shape != (n, n) or T_inv.shape != (n, n):
            raise ShapeError("transform matrices must be square and same-sized")
        if one_norm(T @ T_inv - np.eye(n)) >= 1e-8:
            raise ShapeError("T_inv is not an inverse of T to the required accuracy")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "T_inv", T_inv)

    @staticmethod
    @lru_cache(maxsize=16)
    def identity(n: int) -> "CoordinateTransform":
        """The identity on n states: one shared instance per n, read-only."""
        eye = np.eye(n)
        eye.flags.writeable = False
        return CoordinateTransform(T=eye, T_inv=eye)

    @staticmethod
    def from_matrix(T: np.ndarray) -> "CoordinateTransform":
        T = np.asarray(T, dtype=float)
        return CoordinateTransform(T=T, T_inv=np.linalg.solve(T, np.eye(T.shape[0])))

    def is_identity(self) -> bool:
        n = self.T.shape[0]
        return self is CoordinateTransform.identity(n) or bool(np.array_equal(self.T, np.eye(n)))

    def compose(self, inner: "CoordinateTransform") -> "CoordinateTransform":
        """Transform equivalent to applying ``inner`` first, then ``self``."""
        return CoordinateTransform(T=self.T @ inner.T, T_inv=inner.T_inv @ self.T_inv)


def default_observer_poles(n: int) -> np.ndarray:
    """n real poles evenly spaced on [0.1, 0.5]: stable and reasonably fast."""
    return np.linspace(0.1, 0.5, n)


def _group_poles(poles: np.ndarray) -> tuple[list[float], list[tuple[float, float]]]:
    """Split into real poles and (a, b) conjugate pairs a +- bi; validate closure."""
    reals: list[float] = []
    upper: list[complex] = []
    lower: list[complex] = []
    for z in poles:
        if abs(z.imag) < 1e-12:
            reals.append(float(z.real))
        elif z.imag > 0:
            upper.append(z)
        else:
            lower.append(z)
    if len(upper) != len(lower):
        raise ValueError("desired poles are not closed under conjugation")
    lower = sorted(lower, key=lambda z: (z.real, z.imag))
    pairs: list[tuple[float, float]] = []
    for z in sorted(upper, key=lambda z: (z.real, -z.imag)):
        mate = min(lower, key=lambda w: abs(w - z.conjugate()))
        if abs(mate - z.conjugate()) > 1e-9:
            raise ValueError("desired poles are not closed under conjugation")
        lower.remove(mate)
        pairs.append((float(z.real), float(abs(z.imag))))
    return sorted(reals), sorted(pairs)


def _spread_duplicates(values: list, shift_fn) -> list:
    """Apply growing +-shifts to repeated entries so all become distinct."""
    out = []
    for v in values:
        bumped, k = v, 0
        while any(_close(bumped, u) for u in out):
            k += 1
            sign = 1 if k % 2 else -1
            bumped = shift_fn(v, sign * ((k + 1) // 2) * _MULTIPLICITY_SPREAD)
        out.append(bumped)
    return out


def _close(a, b) -> bool:
    return abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)).max() < 1e-12


def _spectrum_block_diag(poles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real block-diagonal matrix realizing the poles, repeats nudged apart.

    Returns the matrix and its (possibly perturbed) eigenvalue multiset.
    """
    reals, pairs = _group_poles(poles)
    reals = _spread_duplicates(reals, lambda v, d: v + d)
    pairs = _spread_duplicates(pairs, lambda v, d: (v[0] + d, v[1]))
    n = len(poles)
    F = np.zeros((n, n))
    attained = []
    idx = 0
    for r in reals:
        F[idx, idx] = r
        attained.append(complex(r))
        idx += 1
    for a, b in pairs:
        F[idx : idx + 2, idx : idx + 2] = [[a, b], [-b, a]]
        attained += [complex(a, b), complex(a, -b)]
        idx += 2
    return F, np.asarray(attained)


def max_spectrum_deviation(attained: np.ndarray, requested: np.ndarray) -> float:
    """Largest pairwise distance under the best one-to-one eigenvalue matching."""
    cost = np.abs(attained[:, None] - requested[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def place_observer_poles(A: np.ndarray, C: np.ndarray, desired) -> ObserverGain:
    """Synthesize L so that eig(A - LC) equals the requested pole multiset.

    Parameters
    ----------
    A, C : arrays, n x n and q x n, forming an observable pair.
    desired : sequence of n pole locations, closed under conjugation,
        all strictly inside the unit disk.

    Raises
    ------
    PolePlacementInfeasible
        If (A, C) is unobservable; callers typically fall back to reusing a
        previously synthesized gain.
    SynthesisFailureError
        If every random G attempt leads to a singular or inaccurate solve.
    """
    A = np.asarray(A, dtype=float)
    C = np.asarray(C, dtype=float)
    desired = _checked_poles(desired, A.shape[0])
    if not is_observable(A, C):
        raise PolePlacementInfeasible("pair (A, C) is not observable")
    return _place_poles(A, C, desired)


def _checked_poles(desired, n: int) -> np.ndarray:
    """The n requested poles as a complex array, checked to lie in the unit disk."""
    desired = np.asarray([complex(z) for z in desired])
    if desired.size != n:
        raise ShapeError(f"need exactly {n} desired poles, got {desired.size}")
    if np.any(np.abs(desired) >= 1.0):
        raise ValueError("all desired poles must lie strictly inside the unit disk")
    return desired


@lru_cache(maxsize=32)
def _placement_constants(poles: tuple, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What placing ``poles`` with q outputs needs that no (A, C) changes.

    Returns -kron(F^T, I) for the spectrum matrix F, the spectrum F attains
    and the ``_MAX_G_ATTEMPTS`` draws of G, all read-only: every caller
    shares them.
    """
    n = len(poles)
    F, targets = _spectrum_block_diag(np.asarray(poles))
    neg_kron = -np.kron(F.T, np.eye(n))
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(889231)))
    draws = np.stack([gen.standard_normal((q, n)) for _ in range(_MAX_G_ATTEMPTS)])
    for constant in (neg_kron, targets, draws):
        constant.flags.writeable = False
    return neg_kron, targets, draws


def _place_poles(A: np.ndarray, C: np.ndarray, desired: np.ndarray):
    """``place_observer_poles`` for pairs already known to be observable and
    poles from ``_checked_poles``: the synthesis without the rank check.

    Batched over a leading trial axis: A (B, n, n) and C (B, q, n) give a
    list with one ``ObserverGain``, or one ``SynthesisFailureError``, per
    trial. Each step is one stacked call over the trials still without a
    gain; a stacked LAPACK call or matmul computes every item as its own
    call would, so each trial's outcome is bitwise that of its own call.
    A 2-D A and C are a batch of one: the gain is returned, the failure
    raised.
    """
    if A.ndim == 2:
        (gain,) = _place_poles(A[None], C[None], desired)
        if isinstance(gain, SynthesisFailureError):
            raise gain
        return gain
    n, q = A.shape[1], C.shape[1]
    poles = tuple(desired)
    out: list = [None] * A.shape[0]
    eig_A = np.linalg.eigvals(A)
    rows = []
    for b, eig in enumerate(eig_A):
        if max_spectrum_deviation(eig, desired) < 1e-9:
            # The spectrum is already in place; the zero gain realizes it exactly.
            out[b] = ObserverGain(L=np.zeros((n, q)), desired_poles=poles)
        else:
            rows.append(b)
    if not rows:
        return out

    neg_kron, targets, draws = _placement_constants(poles, q)
    # The rows without a gain: their positions in the batch, and their
    # arrays, which shrink only when a row is done before the others.
    rows = np.asarray(rows)
    if len(rows) < len(out):
        A, C = A[rows], C[rows]
    # Kronecker form of A^T X - X F = C^T G with column-stacked vec(X):
    # K = kron(I, A^T) - kron(F^T, I), whose diagonal blocks hold A^T.
    K = np.repeat(neg_kron[None], len(rows), axis=0)
    At = A.transpose(0, 2, 1)
    for i in range(0, n * n, n):
        K[:, i : i + n, i : i + n] += At
    singular = np.linalg.matrix_rank(K) < n * n

    best: dict[int, float] = {}
    for G in draws:
        rhs = (C.transpose(0, 2, 1) @ G).transpose(0, 2, 1).reshape(len(rows), n * n, 1)
        if singular.any():
            vecX = np.empty(rhs.shape)
            regular = ~singular
            vecX[regular] = np.linalg.solve(K[regular], rhs[regular])
            for j in np.flatnonzero(singular):
                vecX[j, :, 0] = np.linalg.lstsq(K[j], rhs[j, :, 0], rcond=None)[0]
        else:
            vecX = np.linalg.solve(K, rhs)
        Xt = vecX.reshape(len(rows), n, n)  # each row's X^T
        sv = np.linalg.svd(Xt.transpose(0, 2, 1), compute_uv=False)
        solvable = ~((sv[:, 0] == 0.0) | (sv[:, -1] < 1e-10 * sv[:, 0]))
        if not solvable.any():
            continue
        done = np.zeros(len(rows), dtype=bool)
        tried = slice(None) if solvable.all() else solvable
        L = np.linalg.solve(Xt[tried], G.T)
        attained = np.linalg.eigvals(A[tried] - L @ C[tried])
        for j, L_j, eig in zip(np.flatnonzero(solvable), L, attained):
            deviation = max_spectrum_deviation(eig, targets)
            if deviation < _PLACEMENT_TOL:
                # A copy, so no trial's gain shares memory with another's.
                out[rows[j]] = ObserverGain(L=L_j.copy(), desired_poles=poles)
                done[j] = True
            else:
                best[rows[j]] = min(deviation, best.get(rows[j], np.inf))
        if done.all():
            return out
        rows, A, C, K, singular = (a[~done] for a in (rows, A, C, K, singular))

    for row in rows:
        out[row] = SynthesisFailureError(
            f"pole placement did not converge in {_MAX_G_ATTEMPTS} attempts"
            + (f" (best deviation {best[row]:.3e})" if row in best else "")
        )
    return out


def _gain_matrix(gain, n: int, q: int) -> np.ndarray:
    """The n x q matrix of an ``ObserverGain`` or array; None is the zero gain."""
    if gain is None:
        return np.zeros((n, q))
    L = gain.L if isinstance(gain, ObserverGain) else np.asarray(gain, dtype=float)
    if L.shape != (n, q):
        raise ShapeError(f"gain must be {n}x{q}, got {L.shape}")
    return L


def run_luenberger(
    params: LtiParams,
    gain,
    inputs: np.ndarray,
    measured_outputs: np.ndarray,
    x0_hat: np.ndarray,
    horizon: int | None = None,
) -> Trajectory:
    """Closed-loop observer rollout x^_{k+1} = A x^_k + B u_k + L (y_k - C x^_k).

    The recursion runs as x^_{k+1} = (A - LC) x^_k + (B u_k + L y_k).
    ``measured_outputs`` are the true system's measurements; the returned
    trajectory's outputs are the observer's own C x^_k.
    """
    n, p, q = params.dims
    L = _gain_matrix(gain, n, q)
    inputs = np.asarray(inputs, dtype=float).reshape(-1, p)
    measured = np.asarray(measured_outputs, dtype=float).reshape(-1, q)
    T = inputs.shape[0] if horizon is None else int(horizon)
    if not 0 <= T <= min(inputs.shape[0], measured.shape[0]):
        raise ShapeError(f"horizon {T} is negative or exceeds the inputs/measured outputs")
    x0_hat = np.asarray(x0_hat, dtype=float).reshape(n)

    A, B, C = params.A, params.B, params.C
    forcing = inputs[:T] @ B.T + measured[:T] @ L.T
    states = _affine_rollout(A - L @ C, x0_hat, forcing)
    return Trajectory(inputs=inputs[:T], states=states, outputs=states @ C.T)


def run_open_loop(
    params: LtiParams,
    inputs: np.ndarray,
    x0_hat: np.ndarray,
    horizon: int | None = None,
) -> Trajectory:
    """Pure predictor rollout x^_{k+1} = A x^_k + B u_k (zero observer gain)."""
    n, p, q = params.dims
    inputs = np.asarray(inputs, dtype=float).reshape(-1, p)
    T = inputs.shape[0] if horizon is None else int(horizon)
    if not 0 <= T <= inputs.shape[0]:
        raise ShapeError(f"horizon {T} is negative or exceeds the {inputs.shape[0]} inputs")
    x0_hat = np.asarray(x0_hat, dtype=float).reshape(n)
    states = _affine_rollout(params.A, x0_hat, inputs[:T] @ params.B.T)
    return Trajectory(inputs=inputs[:T], states=states, outputs=states @ params.C.T)


def apply_transform(t: CoordinateTransform, params: LtiParams) -> LtiParams:
    """Realize the same input/output behavior in coordinates x' = T x."""
    return LtiParams(
        A=t.T @ params.A @ t.T_inv,
        B=t.T @ params.B,
        C=params.C @ t.T_inv,
    )


def invert_transform(t: CoordinateTransform, params: LtiParams) -> LtiParams:
    """Exact inverse of ``apply_transform``."""
    return LtiParams(
        A=t.T_inv @ params.A @ t.T,
        B=t.T_inv @ params.B,
        C=params.C @ t.T,
    )


def conditioning_transform(
    params: LtiParams, threshold: float = 1e8
) -> tuple[CoordinateTransform, LtiParams]:
    """Change coordinates so the observability stack is better conditioned.

    This is where each training epoch decides observability (an
    unobservable pair raises ``RankDeficientError``) and conditioning, from
    one SVD of the stack. Below the threshold the identity transform is
    returned unchanged. Above it, the primary candidate is the R factor of
    O = QR with rows scaled to unit norm (which maps the stack close to an
    orthonormal one); a plain R and a diagonal column equilibration serve as
    fallbacks. The selected transform never increases the condition number.
    """
    return _conditioning_transform(params, threshold, _observability_condition(params.A, params.C))


def _conditioning_transform(
    params: LtiParams, threshold: float, cond0: float
) -> tuple[CoordinateTransform, LtiParams]:
    """``conditioning_transform`` given ``_observability_condition`` of the
    pair, which a lockstep batch computes for all its runs at once."""
    n = params.dims[0]
    if not np.isfinite(cond0):
        raise RankDeficientError("cannot condition an unobservable realization")
    identity = CoordinateTransform.identity(n)
    if cond0 <= threshold:
        return identity, params

    O = _observability_stack(params.A, params.C, n)
    candidates: list[np.ndarray] = []
    R = np.linalg.qr(O, mode="r")[:n, :n]
    r_diag = np.abs(np.diag(R))
    if r_diag.min() > 1e-12 * max(r_diag.max(), 1.0):
        row_norms = np.linalg.norm(R, axis=1)
        candidates.append(R / row_norms[:, None])
        candidates.append(R.copy())
    # Diagonal balancing: scale each state by its column norm in the stack.
    col_norms = np.linalg.norm(O, axis=0)
    if np.all(col_norms > 0):
        candidates.append(np.diag(col_norms))

    best: tuple[float, CoordinateTransform, LtiParams] | None = None
    for T in candidates:
        try:
            tf = CoordinateTransform.from_matrix(T)
            transformed = apply_transform(tf, params)
            cond = _observability_condition(transformed.A, transformed.C)
        except (np.linalg.LinAlgError, ShapeError):
            continue
        if cond < cond0 and (best is None or cond < best[0]):
            best = (cond, tf, transformed)
    if best is None:
        return identity, params
    return best[1], best[2]
