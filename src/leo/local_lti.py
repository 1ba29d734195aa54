"""Local LTI matching of time-varying trajectories and related constructions.

A slowly varying linear system can be matched exactly, over a short window,
by a single constant-coefficient model fitted from the window's states and
inputs. These routines build that model, back-solve the initial condition
that steers it onto a prescribed state, nudge singular transition matrices
into invertible ones, and bound how far the initial states of two
output-matched realizations can drift apart. None of this runs inside the
training loop; it exists as verified machinery with its own oracle suite
(`run_theory_checks`, also exposed through the CLI).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import RankDeficientError, ShapeError, SingularMatrixError
from .lti_core import LtiParams, observability_matrix, one_norm, pinv

__all__ = [
    "TrajectoryWindow",
    "StackedOperators",
    "fit_local_lti",
    "back_solve_initial_state",
    "make_invertible",
    "stacked_operators",
    "stack_inputs",
    "initial_state_gap_bound",
    "run_theory_checks",
]

_SINGULAR_TOL = 1e-10
# Random perturbations tried by make_invertible before it gives up.
_MAX_NUDGE_ATTEMPTS = 100


@dataclass(frozen=True)
class TrajectoryWindow:
    """One window of a trajectory, stored column-wise.

    ``X`` holds states x_K..x_{K+N-1}; ``X_next`` the successors
    x_{K+1}..x_{K+N}; ``U`` and ``Y`` the matching inputs and outputs.
    """

    X: np.ndarray       # (n, N)
    X_next: np.ndarray  # (n, N)
    U: np.ndarray       # (p, N)
    Y: np.ndarray       # (q, N)
    start: int = 0

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        X_next = np.asarray(self.X_next, dtype=float)
        U = np.asarray(self.U, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        N = X.shape[1]
        if X_next.shape != X.shape:
            raise ShapeError("X_next must match X in shape")
        if U.shape[1] != N or Y.shape[1] != N:
            raise ShapeError("U and Y must have one column per window step")
        for name, arr in (("X", X), ("X_next", X_next), ("U", U), ("Y", Y)):
            object.__setattr__(self, name, arr)

    @property
    def width(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class StackedOperators:
    """Output stack operators over N steps.

    ``O`` maps the initial state to the stacked outputs; ``Gamma`` maps the
    stacked inputs, with block (i, j) = C A^{i-j-1} B for i > j and zero
    otherwise (so the first block row, and the last block column, are zero).
    """

    O: np.ndarray       # (N q, n)
    Gamma: np.ndarray   # (N q, N p)


def fit_local_lti(w: TrajectoryWindow) -> LtiParams:
    """Fit a constant-coefficient model that replays the window exactly.

    With T the vertical stack of X over U, the transition/input pair is the
    least-squares factor (A | B) = X_next T^+, and C = Y X^+. When X has
    full column rank both pseudoinverses are right inverses of their
    arguments, so replaying from x_K reproduces every state and output in
    the window.
    """
    X, X_next, U, Y = w.X, w.X_next, w.U, w.Y
    n, N = X.shape
    s = np.linalg.svd(X, compute_uv=False)
    if N > n or s.size == 0 or s[0] == 0.0 or s[-1] < 1e-9 * s[0]:
        raise RankDeficientError(
            f"window states must have full column rank (n={n}, N={N})"
        )
    T = np.vstack([X, U])
    AB = X_next @ pinv(T)
    A_bar = AB[:, :n]
    B_bar = AB[:, n:]
    C_bar = Y @ pinv(X)
    return LtiParams(A=A_bar, B=B_bar, C=C_bar)


def back_solve_initial_state(
    params: LtiParams,
    inputs: np.ndarray,
    x_target: np.ndarray,
    K: int,
) -> np.ndarray:
    """Initial state that reaches ``x_target`` after K forced steps.

    Runs the recursion backwards, x_k = A^{-1}(x_{k+1} - B u_k), which is
    exact in real arithmetic; in floating point the error grows with the
    conditioning of A^K.
    """
    n, p, _ = params.dims
    if K < 0:
        raise ValueError("K must be non-negative")
    x = np.asarray(x_target, dtype=float).reshape(n)
    if K == 0:
        return x.copy()
    inputs = np.asarray(inputs, dtype=float).reshape(-1, p)
    if inputs.shape[0] < K:
        raise ShapeError(f"need {K} inputs, got {inputs.shape[0]}")
    s = np.linalg.svd(params.A, compute_uv=False)
    if s[-1] <= _SINGULAR_TOL:
        raise SingularMatrixError(
            "transition matrix is numerically singular; nudge it invertible first"
        )
    for k in range(K - 1, -1, -1):
        x = np.linalg.solve(params.A, x - params.B @ inputs[k])
    return x


def make_invertible(A: np.ndarray, delta: float) -> np.ndarray:
    """Return an invertible matrix within 1-norm distance ``delta`` of A.

    Already-invertible input is returned unchanged. The deterministic
    first choice is A + eps I with eps = delta / (2n); if that accidentally
    hits an eigenvalue, up to ``_MAX_NUDGE_ATTEMPTS`` small random
    perturbations (1-norm < delta / 2) are tried instead, and
    ``SingularMatrixError`` is raised if none is invertible (as when
    ``delta`` is below the singularity tolerance).
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ShapeError("A must be square")
    if delta <= 0:
        raise ValueError("delta must be positive")

    def _invertible(M: np.ndarray) -> bool:
        s = np.linalg.svd(M, compute_uv=False)
        return s[-1] > _SINGULAR_TOL

    if _invertible(A):
        return A
    eps = delta / (2 * n)
    candidate = A + eps * np.eye(n)
    if _invertible(candidate) and one_norm(candidate - A) < delta:
        return candidate
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(271828)))
    for _ in range(_MAX_NUDGE_ATTEMPTS):
        P = gen.standard_normal((n, n))
        P *= (delta / 2) / max(one_norm(P), 1e-300) * 0.99
        candidate = A + P
        if _invertible(candidate) and one_norm(candidate - A) < delta:
            return candidate
    raise SingularMatrixError(
        f"no invertible matrix within 1-norm {delta:g} of A in {_MAX_NUDGE_ATTEMPTS} attempts"
    )


def stacked_operators(params: LtiParams, N: int) -> StackedOperators:
    """Build the N-step output-stack operators for a model."""
    _, p, q = params.dims
    O = observability_matrix(params.A, params.C, N)
    # Block (i, j) of Gamma is C A^(i-j-1) B: row block i-j-1 of O times B.
    OB = [O[k * q : (k + 1) * q] @ params.B for k in range(N - 1)]
    Gamma = np.zeros((N * q, N * p))
    for i in range(1, N):
        for j in range(i):
            Gamma[i * q : (i + 1) * q, j * p : (j + 1) * p] = OB[i - j - 1]
    return StackedOperators(O=O, Gamma=Gamma)


def stack_inputs(inputs: np.ndarray, N: int) -> np.ndarray:
    """Concatenate the first N input vectors into one column."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim == 1:
        inputs = inputs.reshape(-1, 1)
    if inputs.shape[0] < N:
        raise ShapeError(f"need {N} inputs, got {inputs.shape[0]}")
    return inputs[:N].reshape(-1)


def initial_state_gap_bound(
    p1: LtiParams,
    p2: LtiParams,
    x2_0: np.ndarray,
    U_stack: np.ndarray,
    N: int,
) -> float:
    """Upper bound on ||x1_0 - x2_0||_1 for two output-matched realizations.

    When both systems produce the same first N outputs under the same
    inputs, the gap between their initial states is at most

        ||O1^+||_1 (||Gamma1 - Gamma2||_1 ||U||_1 + ||O1 - O2||_1 ||x2_0||_1)

    where O and Gamma are the N-step stack operators of each realization.
    """
    ops1 = stacked_operators(p1, N)
    ops2 = stacked_operators(p2, N)
    s = np.linalg.svd(ops1.O, compute_uv=False)
    if s.size == 0 or s[0] == 0.0 or s[-1] < 1e-9 * s[0] or ops1.O.shape[0] < ops1.O.shape[1]:
        raise RankDeficientError("first system's output stack lacks full column rank")
    U_stack = np.asarray(U_stack, dtype=float).reshape(-1)
    x2_0 = np.asarray(x2_0, dtype=float).reshape(-1)
    return float(
        one_norm(pinv(ops1.O))
        * (
            one_norm(ops1.Gamma - ops2.Gamma) * one_norm(U_stack)
            + one_norm(ops1.O - ops2.O) * one_norm(x2_0)
        )
    )


# ---------------------------------------------------------------------------
# Oracle suites. Each returns (worst_residual, threshold); a check passes
# when worst_residual <= threshold. `inject_fault` deliberately breaks the
# local-fit check and exists so the failure path itself can be exercised.
# ---------------------------------------------------------------------------


def _random_ltv_window(gen: np.random.Generator, n: int, N: int, p: int, q: int) -> TrajectoryWindow:
    """Simulate a slowly varying system and cut one window out of it."""
    A0 = gen.standard_normal((n, n)) * 0.5
    B0 = gen.standard_normal((n, p))
    C0 = gen.standard_normal((q, n))
    K = int(gen.integers(0, 4))
    x = gen.standard_normal(n)
    states = [x]
    inputs, outputs = [], []
    for k in range(K + N):
        Ak = A0 + 0.02 * gen.standard_normal((n, n))
        Bk = B0 + 0.02 * gen.standard_normal((n, p))
        Ck = C0 + 0.02 * gen.standard_normal((q, n))
        u = gen.standard_normal(p)
        inputs.append(u)
        outputs.append(Ck @ states[-1])
        states.append(Ak @ states[-1] + Bk @ u)
    X = np.column_stack(states[K : K + N])
    X_next = np.column_stack(states[K + 1 : K + N + 1])
    U = np.column_stack(inputs[K : K + N])
    Y = np.column_stack(outputs[K : K + N])
    return TrajectoryWindow(X=X, X_next=X_next, U=U, Y=Y, start=K)


def check_local_fit_replay(cases: int, seed: int, inject_fault: bool = False) -> tuple[float, float]:
    """Fitted local models must replay their window states and outputs."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(1,))))
    worst = 0.0
    done = 0
    while done < cases:
        n = int(gen.integers(2, 5))
        N = int(gen.integers(2, n + 1))
        p = int(gen.integers(1, n + 1))
        q = int(gen.integers(1, n + 1))
        w = _random_ltv_window(gen, n, N, p, q)
        s = np.linalg.svd(w.X, compute_uv=False)
        if s[-1] < 1e-6 * s[0]:
            continue
        fitted = fit_local_lti(w)
        C_used = fitted.C if not inject_fault else w.Y @ w.X.T  # fault: transpose instead of pinv
        x = w.X[:, 0].copy()
        for j in range(w.width):
            worst = max(worst, float(np.abs(x - w.X[:, j]).max()))
            worst = max(worst, float(np.abs(C_used @ x - w.Y[:, j]).max()))
            x = fitted.A @ x + fitted.B @ w.U[:, j]
        done += 1
    return worst, 1e-8


def check_back_solve_round_trip(cases: int, seed: int) -> tuple[float, float]:
    """Forward-simulating from the back-solved x0 must land on the target.

    Test matrices are built as V D V^{-1} with V close to identity, so the
    growth of A^{-K} is governed by the eigenvalues alone and the
    rho(A)^{-K} tolerance scaling is meaningful; a badly non-normal A can
    amplify rounding far beyond any spectral-radius-based estimate.
    """
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(2,))))
    worst = 0.0
    for _ in range(cases):
        n = int(gen.integers(1, 5))
        p = int(gen.integers(1, n + 1))
        K = int(gen.integers(1, 21))
        d = gen.uniform(0.5, 1.2, n) * gen.choice([-1.0, 1.0], n)
        V = np.eye(n) + 0.2 * gen.standard_normal((n, n))
        if np.linalg.svd(V, compute_uv=False)[-1] < 0.2:
            V = np.eye(n)
        A = V @ np.diag(d) @ np.linalg.solve(V, np.eye(n))
        rho = float(np.abs(d).max())
        params = LtiParams(A=A, B=gen.standard_normal((n, p)), C=np.eye(n)[:1])
        inputs = gen.standard_normal((K, p))
        target = gen.standard_normal(n)
        x = back_solve_initial_state(params, inputs, target, K)
        for k in range(K):
            x = params.A @ x + params.B @ inputs[k]
        # A^{-K} amplifies rounding when the dynamics are contracting
        scale = max(1.0, rho ** (-K))
        worst = max(worst, float(np.abs(x - target).sum()) / scale)
    return worst, 1e-6


def check_make_invertible(cases: int, seed: int) -> tuple[float, float]:
    """Output must be invertible and within the requested 1-norm distance."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(3,))))
    worst = 0.0
    for _ in range(cases):
        n = int(gen.integers(1, 5))
        rank = int(gen.integers(0, n))
        M = np.zeros((n, n))
        for _ in range(rank):
            M += np.outer(gen.standard_normal(n), gen.standard_normal(n))
        delta = float(10.0 ** gen.uniform(-4, 0))
        out = make_invertible(M, delta)
        smin = np.linalg.svd(out, compute_uv=False)[-1]
        if smin <= _SINGULAR_TOL:
            worst = max(worst, 1.0)
        dist = one_norm(out - M)
        worst = max(worst, max(0.0, dist / delta - 1.0 + 1e-12))
    return worst, 1e-9


def check_initial_state_gap_bound(cases: int, seed: int) -> tuple[float, float]:
    """Measured initial-state gap of output-matched pairs obeys the bound."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(4,))))
    worst = -np.inf
    done = 0
    while done < cases:
        n = int(gen.integers(2, 5))
        p = int(gen.integers(1, n + 1))
        q = int(gen.integers(1, n + 1))
        N = n + int(gen.integers(0, 3))
        A = gen.standard_normal((n, n))
        A *= 0.9 / max(np.abs(np.linalg.eigvals(A)))
        p1 = LtiParams(A=A, B=gen.standard_normal((n, p)), C=gen.standard_normal((q, n)))
        s = np.linalg.svd(stacked_operators(p1, N).O, compute_uv=False)
        if s[-1] < 1e-6 * s[0]:
            continue
        # Output-matched partner: any similarity transform of the first system.
        T = np.eye(n) + 0.3 * gen.standard_normal((n, n))
        if np.linalg.svd(T, compute_uv=False)[-1] < 0.1:
            continue
        T_inv = np.linalg.solve(T, np.eye(n))
        p2 = LtiParams(A=T @ p1.A @ T_inv, B=T @ p1.B, C=p1.C @ T_inv)
        x1 = gen.standard_normal(n)
        x2 = T @ x1
        U = gen.standard_normal((N, p))
        bound = initial_state_gap_bound(p1, p2, x2, stack_inputs(U, N), N)
        gap = float(np.abs(x1 - x2).sum())
        worst = max(worst, gap - bound)
        done += 1
    return worst, 1e-9


def run_theory_checks(
    cases: int = 100, seed: int = 0, inject_fault: bool = False
) -> dict[str, dict]:
    """Run all four oracle suites; values carry residuals and pass flags.

    ``cases`` must be at least 1: an empty suite would pass unchecked.
    """
    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    suites = {
        "local_fit_replay": check_local_fit_replay(cases, seed, inject_fault),
        "back_solve_round_trip": check_back_solve_round_trip(cases, seed),
        "make_invertible": check_make_invertible(cases, seed),
        "initial_state_gap_bound": check_initial_state_gap_bound(cases, seed),
    }
    report = {}
    for name, (worst, threshold) in suites.items():
        report[name] = {
            "worst_residual": worst,
            "threshold": threshold,
            "passed": bool(worst <= threshold),
        }
    return report
