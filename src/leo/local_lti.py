"""Local LTI matching of time-varying trajectories and related constructions.

A slowly varying linear system can be matched exactly, over a short window,
by a single constant-coefficient model fitted from the window's states and
inputs. These routines build that model, back-solve the initial condition
that steers it onto a prescribed state, nudge singular transition matrices
into invertible ones, and bound how far the initial states of two
output-matched realizations can drift apart. None of this runs inside the
training loop; it exists as verified machinery with its own oracle suite
(`run_theory_checks`, also exposed through the CLI).

Each construction is a private core over stacks of equally shaped cases;
the public function validates its arguments and runs a stack of one. The
oracle suites draw all their cases first, then run each stage as one
stacked call per shape, which LAPACK and BLAS compute item by item, so
every residual is bitwise that of a case-by-case run.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import RankDeficientError, ShapeError, SingularMatrixError
from .lti_core import (
    RANK_RTOL, LtiParams, _as_matrix, _as_square, _as_vector, _checked_count,
    _observability_stack, _pinv, one_norm,
)

__all__ = [
    "TrajectoryWindow",
    "fit_local_lti",
    "back_solve_initial_state",
    "make_invertible",
    "stack_inputs",
    "initial_state_gap_bound",
    "run_theory_checks",
]

_SINGULAR_TOL = 1e-10
# The local-fit suite redraws a window whose states are closer than this,
# relative to sigma_max, to rank deficiency.
_WINDOW_RANK_RTOL = 1e-6
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
        X = _as_matrix(self.X, name="X")
        n, N = X.shape
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "X_next", _as_matrix(self.X_next, n, N, "X_next"))
        object.__setattr__(self, "U", _as_matrix(self.U, cols=N, name="U"))
        object.__setattr__(self, "Y", _as_matrix(self.Y, cols=N, name="Y"))

    @property
    def width(self) -> int:
        return self.X.shape[1]


def _one_norms(M: np.ndarray) -> np.ndarray:
    """``one_norm`` of each matrix of a stack (B, m, k), m and k >= 1."""
    return np.abs(M).sum(axis=-2).max(axis=-1)


def fit_local_lti(w: TrajectoryWindow) -> LtiParams:
    """Fit a constant-coefficient model that replays the window exactly.

    With T the vertical stack of X over U, the transition/input pair is the
    least-squares factor (A | B) = X_next T^+, and C = Y X^+. When X has
    full column rank both pseudoinverses are right inverses of their
    arguments, so replaying from x_K reproduces every state and output in
    the window.
    """
    n, N = w.X.shape
    s = np.linalg.svd(w.X, compute_uv=False)
    if N > n or s.size == 0 or s[0] == 0.0 or s[-1] < RANK_RTOL * s[0]:
        raise RankDeficientError(
            f"window states must have full column rank (n={n}, N={N})"
        )
    A, B, C = _fit(w.X[None], w.X_next[None], w.U[None], w.Y[None])
    return LtiParams(A=A[0], B=B[0], C=C[0])


def _fit(X: np.ndarray, X_next: np.ndarray, U: np.ndarray, Y: np.ndarray):
    """``fit_local_lti`` of stacked full-rank windows: (A, B, C) stacks."""
    n = X.shape[-2]
    AB = X_next @ _pinv(np.concatenate([X, U], axis=-2))
    return AB[..., :n], AB[..., n:], Y @ _pinv(X)


def back_solve_initial_state(
    params: LtiParams,
    inputs: np.ndarray,
    x_target: np.ndarray,
    K: int,
) -> np.ndarray:
    """Initial state that reaches ``x_target`` after K forced steps.

    ``inputs`` holds one input per row, at least K of them. Runs the
    recursion backwards, x_k = A^{-1}(x_{k+1} - B u_k), which is exact in
    real arithmetic; in floating point the error grows with the
    conditioning of A^K.
    """
    n, p, _ = params.dims
    K = _checked_count(K, "K", 0)
    x = _as_vector(x_target, n, "x_target")
    inputs = _as_matrix(inputs, cols=p, name="inputs")
    if inputs.shape[0] < K:
        raise ShapeError(f"need {K} inputs, got {inputs.shape[0]}")
    if K == 0:
        return x.copy()
    s = np.linalg.svd(params.A, compute_uv=False)
    if s[-1] <= _SINGULAR_TOL:
        raise SingularMatrixError(
            "transition matrix is numerically singular; nudge it invertible first"
        )
    return _back_solve(params.A[None], params.B[None], inputs[None], x[None], np.array([K]))[0]


def _back_solve(A, B, inputs, x, K) -> np.ndarray:
    """``back_solve_initial_state`` of stacks: A (G, n, n) invertible,
    B (G, n, p), inputs (G, >= K[0], p), x (G, n); row i steps K[i] times,
    and K must not increase down the stack."""
    x = x[..., None].copy()
    Bu = B[:, None] @ inputs[:, : K[0], :, None]
    for k in range(K[0] - 1, -1, -1):
        m = np.count_nonzero(K > k)
        x[:m] = np.linalg.solve(A[:m], x[:m] - Bu[:m, k])
    return x[..., 0]


def make_invertible(A: np.ndarray, delta: float) -> np.ndarray:
    """Return an invertible matrix within 1-norm distance ``delta`` of A.

    Already-invertible input is returned unchanged. The deterministic
    first choice is A + eps I with eps = delta / (2n); if that accidentally
    hits an eigenvalue, up to ``_MAX_NUDGE_ATTEMPTS`` small random
    perturbations (1-norm < delta / 2) are tried instead, and
    ``SingularMatrixError`` is raised if none is invertible (as when
    ``delta`` is below the singularity tolerance).
    """
    A = _as_square(A)
    if not (isinstance(delta, numbers.Real) and 0 < delta < math.inf):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    out, nudged, found = _make_invertible(A[None], np.array([float(delta)]))
    if not found[0]:
        raise SingularMatrixError(
            f"no invertible matrix within 1-norm {float(delta):g} of A in {_MAX_NUDGE_ATTEMPTS} attempts"
        )
    return out[0] if nudged[0] else A


def _invertible(M: np.ndarray) -> np.ndarray:
    """Whether each matrix of a stack is finite with sigma_min above the
    singularity tolerance; a non-finite one is zeroed before the SVD."""
    finite = np.isfinite(M).all(axis=(1, 2))
    s = np.linalg.svd(np.where(finite[:, None, None], M, 0.0), compute_uv=False)
    return finite & (s[:, -1] > _SINGULAR_TOL)


def _make_invertible(A: np.ndarray, delta: np.ndarray):
    """``make_invertible`` of a stack (G, n, n) with deltas (G,): the
    results, the mask of rows nudged and the mask of rows found invertible
    (a row not found is left as it was). Every row meets the same
    perturbations in the same order as its own call would."""
    n = A.shape[-1]
    out = A.copy()
    nudged = ~_invertible(A)
    todo = np.flatnonzero(nudged)
    step = (delta[todo] / (2 * n))[:, None, None] * np.eye(n)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(271828)))
    for attempt in range(_MAX_NUDGE_ATTEMPTS + 1):
        if attempt:
            P = gen.standard_normal((n, n))
            scale = (delta[todo] / 2) / max(one_norm(P), 1e-300) * 0.99
            step = P * scale[:, None, None]
        candidate = A[todo] + step
        good = _invertible(candidate) & (_one_norms(candidate - A[todo]) < delta[todo])
        out[todo[good]] = candidate[good]
        todo = todo[~good]
        if not todo.size:
            break
    found = np.ones(len(A), dtype=bool)
    found[todo] = False
    return out, nudged, found


def _stacked_operators(A: np.ndarray, B: np.ndarray, C: np.ndarray, N: int):
    """The N-step output-stack operators (O, Gamma) of stacked models
    A (G, n, n), B (G, n, p), C (G, q, n). O (G, N q, n) maps the initial
    state to the stacked outputs; Gamma (G, N q, N p) maps the stacked
    inputs, with block (i, j) = C A^(i-j-1) B for i > j and zero otherwise."""
    G, q, n = C.shape
    p = B.shape[-1]
    O = _observability_stack(A, C, N)
    # Block (i, j) of Gamma is C A^(i-j-1) B: row block i-j-1 of O times B.
    OB = O.reshape(G, N, q, n)[:, : N - 1] @ B[:, None]
    Gamma = np.zeros((G, N, q, N, p))
    for i in range(1, N):
        Gamma[:, i, :, :i] = OB[:, i - 1 :: -1].swapaxes(1, 2)
    return O, Gamma.reshape(G, N * q, N * p)


def stack_inputs(inputs: np.ndarray, N: int) -> np.ndarray:
    """Concatenate the first N input vectors (the rows of ``inputs``, or
    its entries when it is 1-D) into one column."""
    N = _checked_count(N, "N", 1)
    inputs = np.asarray(inputs, dtype=float)
    inputs = _as_matrix(inputs.reshape(-1, 1) if inputs.ndim == 1 else inputs, name="inputs")
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
    n, p, _ = p1.dims
    if p2.dims != p1.dims:
        raise ShapeError(f"p2 has dims {p2.dims}, p1 has {p1.dims}")
    N = _checked_count(N, "N", 1)
    x2_0 = _as_vector(x2_0, n, "x2_0")
    U_stack = _as_vector(U_stack, N * p, "U_stack")
    O1, Gamma1 = _stacked_operators(p1.A[None], p1.B[None], p1.C[None], N)
    s = np.linalg.svd(O1[0], compute_uv=False)
    if s[0] == 0.0 or s[-1] < RANK_RTOL * s[0] or O1.shape[1] < n:
        raise RankDeficientError("first system's output stack lacks full column rank")
    O2, Gamma2 = _stacked_operators(p2.A[None], p2.B[None], p2.C[None], N)
    return float(_gap_bound(O1, Gamma1, O2, Gamma2, x2_0[None], U_stack[None])[0])


def _gap_bound(O1, Gamma1, O2, Gamma2, x2, U) -> np.ndarray:
    """``initial_state_gap_bound`` of stacked operators, with x2 (G, n) and
    U (G, N p); O1 must have full column rank."""
    return _one_norms(_pinv(O1)) * (
        _one_norms(Gamma1 - Gamma2) * np.abs(U).sum(axis=-1)
        + _one_norms(O1 - O2) * np.abs(x2).sum(axis=-1)
    )


# ---------------------------------------------------------------------------
# Oracle suites. Each draws its cases in one loop that keeps only the
# decisions later draws depend on, then runs each stage as one stacked call
# per group of equally shaped cases, giving its residuals in draw order.
# Each check returns (worst_residual, threshold), the worst being NaN if any
# residual is; a check passes when worst_residual <= threshold.
# ---------------------------------------------------------------------------


def _suite_generator(seed: int, suite: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(suite,))))


def _groups(keys):
    """(key, row indices) of each distinct key, in order of first appearance."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return [(key, np.array(rows)) for key, rows in groups.items()]


def _padded(rows: list) -> np.ndarray:
    """1-D arrays as the rows of one matrix, zero-padded to the longest."""
    out = np.zeros((len(rows), max(row.size for row in rows)))
    for padded, row in zip(out, rows):
        padded[: row.size] = row
    return out


def _worst(residuals, start: float) -> float:
    """max(start, residuals...), NaN as soon as one residual is NaN."""
    return float(np.max(residuals, initial=start))


def _draw_ltv_case(gen: np.random.Generator):
    """Dims, window start and Gaussian draws of one slowly varying system.

    The draws come in the order of a step-by-step simulation; each run of
    consecutive ``standard_normal`` calls is one call, which gives the same
    values: A0, B0, C0, then x and per step dA, dB, dC and u.
    """
    n = int(gen.integers(2, 5))
    N = int(gen.integers(2, n + 1))
    p = int(gen.integers(1, n + 1))
    q = int(gen.integers(1, n + 1))
    base = gen.standard_normal(n * n + n * p + q * n)
    K = int(gen.integers(0, 4))
    walk = gen.standard_normal(n + (K + N) * (n * n + n * p + q * n + p))
    return (n, N, p, q), K, base, walk


def _simulate_windows(dims, K: np.ndarray, base: np.ndarray, walks: list):
    """Simulate stacked slowly varying systems of one shape and cut out the
    windows (X, X_next, U, Y), each (G, rows, N) and C-contiguous."""
    n, N, p, q = dims
    G, L = len(K), int(K.max()) + N
    nn, nnp = n * n, n * n + n * p
    A0 = base[:, :nn].reshape(G, n, n) * 0.5
    B0 = base[:, nn:nnp].reshape(G, n, p)
    C0 = base[:, nnp:].reshape(G, q, n)
    draws = _padded(walks)  # a shorter walk runs on, unused, on zero draws
    steps = draws[:, n:].reshape(G, L, -1)
    Ak = A0[:, None] + 0.02 * steps[..., :nn].reshape(G, L, n, n)
    Bk = B0[:, None] + 0.02 * steps[..., nn:nnp].reshape(G, L, n, p)
    Ck = C0[:, None] + 0.02 * steps[..., nnp:-p].reshape(G, L, q, n)
    u = steps[..., -p:, None]
    Bu = Bk @ u  # every step's input term, each item the product its own step would give
    x = np.empty((G, L + 1, n, 1))
    x[:, 0, :, 0] = draws[:, :n]
    for k in range(L):
        x[:, k + 1] = Ak[:, k] @ x[:, k] + Bu[:, k]
    y = Ck @ x[:, :L]
    rows, cols = np.arange(G)[:, None], K[:, None] + np.arange(N)

    def window(seq, shift=0):
        return np.ascontiguousarray(seq[rows, cols + shift, :, 0].swapaxes(1, 2))

    return window(x), window(x, 1), window(u), window(y)


def _local_fit_residuals(cases: int, seed: int) -> np.ndarray:
    gen = _suite_generator(seed, 1)
    kept = []  # (draw index, dims, windows) per shape and drawing round
    drawn = done = 0
    while done < cases:
        batch = [_draw_ltv_case(gen) for _ in range(cases - done)]
        for dims, rows in _groups(case[0] for case in batch):
            K = np.array([batch[i][1] for i in rows])
            windows = _simulate_windows(
                dims, K, np.stack([batch[i][2] for i in rows]), [batch[i][3] for i in rows]
            )
            s = np.linalg.svd(windows[0], compute_uv=False)
            ok = ~(s[:, -1] < _WINDOW_RANK_RTOL * s[:, 0])
            kept.append((drawn + rows[ok], dims, [w[ok] for w in windows]))
            done += int(ok.sum())
        drawn += len(batch)
    order, residuals = [np.empty(0, int)], [np.empty(0)]  # nothing kept when cases is 0
    for dims, blocks in _groups(block[1] for block in kept):
        X, X_next, U, Y = (np.concatenate(w) for w in zip(*(kept[i][2] for i in blocks)))
        A, B, C = _fit(X, X_next, U, Y)
        N = dims[1]
        Bu = B[:, None] @ U.swapaxes(1, 2)[..., None]
        x = np.empty((len(X), N, dims[0], 1))
        x[:, 0] = X[..., :1]
        for j in range(N - 1):
            x[:, j + 1] = A @ x[:, j] + Bu[:, j]
        state_dev = np.abs(x[..., 0] - X.swapaxes(1, 2)).max(axis=(1, 2))
        output_dev = np.abs((C[:, None] @ x)[..., 0] - Y.swapaxes(1, 2)).max(axis=(1, 2))
        order.append(np.concatenate([kept[i][0] for i in blocks]))
        residuals.append(np.maximum(state_dev, output_dev))
    return np.concatenate(residuals)[np.argsort(np.concatenate(order))]


def check_local_fit_replay(cases: int, seed: int) -> tuple[float, float]:
    """Fitted local models must replay their window states and outputs."""
    return _worst(_local_fit_residuals(cases, seed), 0.0), 1e-8


def _back_solve_residuals(cases: int, seed: int) -> np.ndarray:
    gen = _suite_generator(seed, 2)
    batch = []
    for _ in range(cases):
        n = int(gen.integers(1, 5))
        p = int(gen.integers(1, n + 1))
        K = int(gen.integers(1, 21))
        magnitude = gen.uniform(0.5, 1.2, n)
        sign = gen.integers(0, 2, n)  # the draw of gen.choice([-1.0, 1.0], n), without its overhead
        # V, B, the inputs and the target, in one draw
        walk = gen.standard_normal(n * n + n * p + K * p + n)
        batch.append(((n, p), K, magnitude, sign, walk[:-n], walk[-n:]))
    residuals = np.empty(cases)
    for (n, p), rows in _groups(case[0] for case in batch):
        rows = rows[np.argsort([-batch[i][1] for i in rows], kind="stable")]
        K = np.array([batch[i][1] for i in rows])
        d = np.stack([batch[i][2] for i in rows])
        d *= np.array([-1.0, 1.0])[np.stack([batch[i][3] for i in rows])]
        draws = _padded([batch[i][4] for i in rows])  # V, B, the inputs
        V = np.eye(n) + 0.2 * draws[:, : n * n].reshape(-1, n, n)
        V[np.linalg.svd(V, compute_uv=False)[:, -1] < 0.2] = np.eye(n)
        D = np.zeros_like(V)
        D[:, range(n), range(n)] = d
        A = V @ D @ np.linalg.solve(V, np.eye(n))
        B = draws[:, n * n : n * n + n * p].reshape(-1, n, p)
        inputs = draws[:, n * n + n * p :].reshape(len(rows), -1, p)
        target = np.stack([batch[i][5] for i in rows])
        x = _back_solve(A, B, inputs, target, K)[..., None]
        Bu = B[:, None] @ inputs[..., None]
        for k in range(K[0]):
            m = np.count_nonzero(K > k)
            x[:m] = A[:m] @ x[:m] + Bu[:m, k]
        # A^{-K} amplifies rounding when the dynamics are contracting
        scale = [max(1.0, rho ** (-k)) for rho, k in zip(np.abs(d).max(axis=1).tolist(), K.tolist())]
        residuals[rows] = np.abs(x[..., 0] - target).sum(axis=1) / scale
    return residuals


def check_back_solve_round_trip(cases: int, seed: int) -> tuple[float, float]:
    """Forward-simulating from the back-solved x0 must land on the target.

    Test matrices are built as V D V^{-1} with V close to identity, so the
    growth of A^{-K} is governed by the eigenvalues alone and the
    rho(A)^{-K} tolerance scaling is meaningful; a badly non-normal A can
    amplify rounding far beyond any spectral-radius-based estimate.
    """
    return _worst(_back_solve_residuals(cases, seed), 0.0), 1e-6


def _make_invertible_residuals(cases: int, seed: int) -> np.ndarray:
    gen = _suite_generator(seed, 3)
    batch = []
    for _ in range(cases):
        n = int(gen.integers(1, 5))
        rank = int(gen.integers(0, n))
        factors = gen.standard_normal(2 * n * rank)  # u, v of each outer product u v^T
        batch.append((n, factors, float(10.0 ** gen.uniform(-4, 0))))
    residuals = np.empty(cases)
    for n, rows in _groups(case[0] for case in batch):
        # A lower rank adds zero factors, whose products are +0.0
        factors = _padded([batch[i][1] for i in rows]).reshape(len(rows), -1, 2, n)
        M = np.zeros((len(rows), n, n))
        for u, v in factors.transpose(1, 2, 0, 3):
            M += u[:, :, None] * v[:, None, :]
        delta = np.array([batch[i][2] for i in rows])
        out, _, _ = _make_invertible(M, delta)
        singular = ~_invertible(out)
        residuals[rows] = np.maximum(singular, _one_norms(out - M) / delta - 1.0 + 1e-12)
    return residuals


def check_make_invertible(cases: int, seed: int) -> tuple[float, float]:
    """Output must be invertible and within the requested 1-norm distance."""
    return _worst(_make_invertible_residuals(cases, seed), 0.0), 1e-9


def _gap_residuals(cases: int, seed: int) -> np.ndarray:
    gen = _suite_generator(seed, 4)
    batch = []
    while len(batch) < cases:
        n = int(gen.integers(2, 5))
        p = int(gen.integers(1, n + 1))
        q = int(gen.integers(1, n + 1))
        N = n + int(gen.integers(0, 3))
        ABC = gen.standard_normal(n * n + n * p + q * n)
        A = ABC[: n * n].reshape(n, n)
        A *= 0.9 / max(np.abs(np.linalg.eigvals(A)))
        C = ABC[n * n + n * p :].reshape(q, n)
        s = np.linalg.svd(_observability_stack(A, C, N), compute_uv=False)
        if s[-1] < 1e-6 * s[0]:
            continue
        # Output-matched partner: any similarity transform of the first system.
        T = np.eye(n) + 0.3 * gen.standard_normal((n, n))
        if np.linalg.svd(T, compute_uv=False)[-1] < 0.1:
            continue
        # x1, then the inputs U (N, p), in one draw
        batch.append(((n, p, q, N), ABC, T, gen.standard_normal(n + N * p)))
    residuals = np.empty(cases)
    for (n, p, q, N), rows in _groups(case[0] for case in batch):
        ABC = np.stack([batch[i][1] for i in rows])
        T = np.stack([batch[i][2] for i in rows])
        xU = np.stack([batch[i][3] for i in rows])
        A = ABC[:, : n * n].reshape(-1, n, n)
        B = ABC[:, n * n : n * n + n * p].reshape(-1, n, p)
        C = ABC[:, n * n + n * p :].reshape(-1, q, n)
        T_inv = np.linalg.solve(T, np.eye(n))
        x1 = xU[:, :n]
        x2 = (T @ x1[..., None])[..., 0]
        ops1 = _stacked_operators(A, B, C, N)
        ops2 = _stacked_operators(T @ A @ T_inv, T @ B, C @ T_inv, N)
        bound = _gap_bound(*ops1, *ops2, x2, xU[:, n:])
        residuals[rows] = np.abs(x1 - x2).sum(axis=1) - bound
    return residuals


def check_initial_state_gap_bound(cases: int, seed: int) -> tuple[float, float]:
    """Measured initial-state gap of output-matched pairs obeys the bound."""
    return _worst(_gap_residuals(cases, seed), -np.inf), 1e-9


def run_theory_checks(cases: int = 100, seed: int = 0) -> dict[str, dict]:
    """Run all four oracle suites; values carry residuals and pass flags.

    ``cases`` must be at least 1: an empty suite would pass unchecked.
    ``seed`` must be a non-negative integer.
    """
    if not isinstance(cases, numbers.Integral):
        raise ValueError(f"cases must be an integer, got {cases!r}")
    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    suites = {
        "local_fit_replay": check_local_fit_replay(cases, seed),
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
