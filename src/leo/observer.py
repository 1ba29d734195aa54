"""Luenberger/open-loop observer rollouts and gain synthesis.

Gain synthesis places the eigenvalues of A - LC by the dual Sylvester
construction: pick a real block-diagonal F carrying the requested spectrum
and a random q x n matrix G, solve

    A^T X - X F = C^T G

for X through the equivalent Kronecker linear system, and read off
L = (G X^{-1})^T. This works for any output dimension, unlike
single-output Ackermann-style formulas. Synthesis runs on a stack of pairs
at once (the runs of a training batch): one stacked SVD of the
observability stacks first decides which pairs are observable, a pair
whose A shares an eigenvalue with F fails before any draw, and the result
is a gain array plus a reason code for each row (placed, unobservable,
shared eigenvalue, or no draw placed it). What depends only on
the requested poles (F, its Kronecker term and the G draws) is built once.
For 2 <= n <= 4 the whole placement of a stack is one call of the C pass
of ``_kernel.c``, which calls the LAPACK routines numpy's linalg calls and
gives every row bitwise the numpy placement's result.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations

import numpy as np

from .exceptions import PolePlacementInfeasible, ShapeError, SynthesisFailureError
from .lti_core import (
    RANK_RTOL,
    LtiParams,
    Trajectory,
    _affine_rollout,
    _as_matrix,
    _as_square,
    _checked_count,
    _checked_horizon,
    _load_kernel,
    _observable,
    _same_bits,
)

__all__ = [
    "default_observer_poles",
    "max_spectrum_deviation",
    "place_observer_poles",
    "run_luenberger",
    "run_open_loop",
]

# Repeated requested poles are split apart by this much so the spectrum
# matrix F stays diagonalizable.
_MULTIPLICITY_SPREAD = 1e-4
_PLACEMENT_TOL = 1e-7
_MAX_G_ATTEMPTS = 10
# The outcome codes of ``_place_poles``, one per row.
PLACED, UNOBSERVABLE, SHARED_EIGENVALUE, NOT_PLACED = range(4)


def default_observer_poles(n: int) -> np.ndarray:
    """n real poles evenly spaced on [0.1, 0.5]: stable and reasonably fast;
    an n that is not an integer >= 1 raises ``ShapeError``."""
    return np.linspace(0.1, 0.5, _checked_count(n, "n", 1))


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
    """Largest pairwise distance under the best one-to-one eigenvalue matching.

    The best matching has the least summed distance. Several matchings can
    tie in that sum (often for real spectra), and their largest distances
    can differ: for n <= 4 eigenvalues the value is that of the first
    least-sum permutation in lexicographic order, above that it is that of
    the matching scipy's ``linear_sum_assignment`` picks.
    """
    return float(_spectrum_deviation(np.asarray(attained)[None], np.asarray(requested))[0])


def _spectrum_deviation(attained: np.ndarray, requested: np.ndarray) -> np.ndarray:
    """``max_spectrum_deviation`` of each row of attained (B, m) against
    requested (n,), as a (B,) array.

    The best matching has the least summed distance. For m = n <= 4 it is
    the first such one of the n! <= 24 permutations, in lexicographic
    order, tried for all rows at once; other sizes ask scipy's
    ``linear_sum_assignment`` row by row.
    """
    cost = np.abs(attained[:, :, None] - requested[None, None, :])
    n = len(requested)
    if n > 4 or attained.shape[1] != n:
        from scipy.optimize import linear_sum_assignment

        return np.array([c[linear_sum_assignment(c)].max() for c in cost])
    picked = cost[:, np.arange(n), _permutations(n)]  # (B, n!, n)
    best = picked.sum(axis=2).argmin(axis=1)
    return picked[np.arange(len(cost)), best].max(axis=1)


@lru_cache(maxsize=4)
def _permutations(n: int) -> np.ndarray:
    """The n! orderings of range(n) as rows, in lexicographic order."""
    return np.array(list(permutations(range(n))))


def place_observer_poles(A: np.ndarray, C: np.ndarray, desired) -> np.ndarray:
    """Synthesize the n x q gain L so that eig(A - LC) equals the requested
    pole multiset.

    ``_place_poles`` on a stack of one, whose reason code for the row is
    raised here as its exception.

    Parameters
    ----------
    A, C : arrays, n x n and q x n, forming an observable pair.
    desired : sequence of n pole locations, closed under conjugation,
        all strictly inside the unit disk.

    Raises
    ------
    ShapeError
        If A is not a finite square matrix, or C not a finite matrix with
        n columns.
    PolePlacementInfeasible
        If (A, C) is unobservable, or its observability stack overflows;
        callers typically fall back to reusing a previously synthesized gain.
    SynthesisFailureError
        If A shares an eigenvalue with the requested spectrum (within 1e-9)
        that it does not already have, before any draw; or if every random
        G attempt leads to a singular, overflowing or inaccurate solve, and
        then the message quotes the least ``max_spectrum_deviation`` reached
        (inf if every solved draw overflowed). Finite A and C, however
        large or small, raise nothing else.
    """
    A = _as_square(A)
    desired = _checked_poles(desired, A.shape[0])
    C = _as_matrix(C, cols=A.shape[0], name="C")
    gains, reason, best = _place_poles(A[None], C[None], desired)
    if reason[0] != PLACED:
        raise _failure(reason[0], best[0])
    return gains[0]


def _failure(reason: int, best: float) -> Exception:
    """The exception for a row that ``_place_poles`` could not place, from
    its reason code and best deviation."""
    if reason == UNOBSERVABLE:
        return PolePlacementInfeasible("pair (A, C) is not observable")
    if reason == SHARED_EIGENVALUE:
        return SynthesisFailureError("A shares an eigenvalue with the requested poles")
    return SynthesisFailureError(
        f"pole placement did not converge in {_MAX_G_ATTEMPTS} attempts"
        + ("" if math.isnan(best) else f" (best deviation {best:.3e})")
    )


def _checked_poles(desired, n: int) -> np.ndarray:
    """The n requested poles as a complex array, checked to lie in the unit disk."""
    desired = np.asarray([complex(z) for z in desired])
    if desired.size != n:
        raise ShapeError(f"need exactly {n} desired poles, got {desired.size}")
    if not np.all(np.abs(desired) < 1.0):
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


def _place_poles(A: np.ndarray, C: np.ndarray, desired):
    """``place_observer_poles`` for validated matrices and poles from
    ``_checked_poles``, with each row's outcome returned, never raised.

    Batched over a leading row axis: A (B, n, n) and C (B, q, n) give the
    gains L (B, n, q), zero where a row has none, its reason code (B,) and
    its least ``max_spectrum_deviation`` over the solved draws (B,), NaN
    if no draw was solved. ``SHARED_EIGENVALUE`` is an A within 1e-9 of
    the requested spectrum, which fails before any draw. Each row's
    outcome is bitwise that of its own call. Finite rows give a result
    without a warning: a value that overflows fails its own row.

    The C placement pass of ``_kernel.c`` runs it where it loads, in one
    call for 2 <= n <= 4 and q <= n, calling the LAPACK routines numpy's
    linalg calls; else ``_numpy_place``, which is also where any LAPACK
    failure is raised as numpy raises it.
    """
    place = 2 <= A.shape[1] <= 4 and _load_kernel().place
    got = place and place(A, C, desired)
    return got or _numpy_place(A, C, desired)


@np.errstate(over="ignore", invalid="ignore")
def _numpy_place(A: np.ndarray, C: np.ndarray, desired):
    """``_place_poles`` in numpy: the fallback and the reference.

    Each step is one stacked call over the rows still without a gain, and
    a stacked LAPACK call or matmul computes every item as its own call
    would, so each row's outcome is bitwise that of its own call.
    """
    n, q = A.shape[1], C.shape[1]
    poles = tuple(desired)
    gains = np.zeros((A.shape[0], n, q))
    best = np.full(A.shape[0], np.nan)
    observable = _observable(A, C)
    reason = np.where(observable, PLACED, UNOBSERVABLE)
    # A row whose spectrum is already in place keeps the zero gain, which
    # realizes it exactly. Only a row with an eigenvalue within 1e-9 of a
    # requested pole (or a NaN distance) can be; the others skip the search.
    # Each step below takes its arrays whole, without a row copy, when
    # every row goes on to it.
    everyone = observable.all()
    eig = np.linalg.eigvals(A if everyone else A[observable])
    requested = np.asarray(desired)
    todo = np.ones(len(eig), dtype=bool)
    near = ~(np.abs(eig[:, :, None] - requested) >= 1e-9).all(axis=(1, 2))
    if near.any():
        todo[near] = _spectrum_deviation(eig[near], requested) >= 1e-9
    # The rows still without a gain: their positions in the batch and arrays.
    rows = np.flatnonzero(observable)[todo]
    if not len(rows):
        return gains, reason, best
    if not (everyone and todo.all()):
        A, C, eig = A[rows], C[rows], eig[todo]

    neg_kron, targets, draws = _placement_constants(poles, q)
    # The Kronecker operator below is singular exactly when A shares an
    # eigenvalue with F; the Sylvester system then has no solution for an
    # observable pair and almost every G, so such a row gets no draw. Where
    # A's entries dwarf F's, rounding can still make it exactly singular.
    shared = np.abs(eig[:, :, None] - targets).min(axis=(1, 2)) < 1e-9
    if shared.any():
        reason[rows[shared]] = SHARED_EIGENVALUE
        rows, A, C = rows[~shared], A[~shared], C[~shared]
    reason[rows] = NOT_PLACED
    # Kronecker form of A^T X - X F = C^T G with column-stacked vec(X):
    # K = kron(I, A^T) - kron(F^T, I), whose diagonal blocks hold A^T.
    K = np.repeat(neg_kron[None], len(rows), axis=0)
    for i in range(0, n * n, n):
        K[:, i : i + n, i : i + n] += A.transpose(0, 2, 1)

    for G in draws:
        rhs = (C.transpose(0, 2, 1) @ G).transpose(0, 2, 1).reshape(len(rows), n * n, 1)
        try:
            Xt = np.linalg.solve(K, rhs).reshape(len(rows), n, n)  # each row's X^T
        except np.linalg.LinAlgError:  # an exactly singular K: its row's X is NaN
            Xt = np.full((len(rows), n, n), np.nan)
            regular = np.linalg.slogdet(K)[0] != 0  # the LU that solve runs
            Xt[regular] = np.linalg.solve(K[regular], rhs[regular]).reshape(-1, n, n)
        # A non-finite X counts as singular: zeroed, it fails the test below.
        Xt[~np.isfinite(Xt).all(axis=(1, 2))] = 0.0
        sv = np.linalg.svd(Xt.transpose(0, 2, 1), compute_uv=False)
        solvable = sv[:, -1] >= np.maximum(1e-10 * sv[:, 0], np.finfo(float).tiny)
        if solvable.all():
            L = np.linalg.solve(Xt, G.T)
            closed = A - L @ C
        else:
            L = np.linalg.solve(Xt[solvable], G.T)
            closed = A[solvable] - L @ C[solvable]
        finite = np.isfinite(closed).all(axis=(1, 2))
        deviation = np.full(len(rows), np.nan)  # NaN: X was singular
        deviation[solvable] = np.inf  # inf: A - LC overflowed
        deviation[np.flatnonzero(solvable)[finite]] = _spectrum_deviation(
            np.linalg.eigvals(closed if finite.all() else closed[finite]), targets
        )
        best[rows] = np.fmin(best[rows], deviation)
        done = deviation < _PLACEMENT_TOL
        gains[rows[done]] = L[done[solvable]]
        reason[rows[done]] = PLACED
        if done.all():
            break
        rows, A, C, K = (a[~done] for a in (rows, A, C, K))
    return gains, reason, best


def _family_place(lib, family: int, routines: list):
    """The C placement pass in order family ``family``, calling the LAPACK
    routines at the addresses ``routines`` (``lti_core._LAPACK``), as
    ``_place_poles`` calls it."""
    leo_place = lib.leo_place

    def place(A, C, desired):
        """``_place_poles`` from one C call, or None where the pass does
        not run: n outside 2..4 or q outside 1..n, a family this CPU
        cannot run, or a LAPACK call that fails."""
        B, n, q = len(A), A.shape[1], C.shape[1]
        requested = np.ascontiguousarray(desired, dtype=complex)
        neg_kron, targets, draws = (
            np.ascontiguousarray(a) for a in _placement_constants(tuple(desired), q)
        )
        A, C = np.ascontiguousarray(A, dtype=float), np.ascontiguousarray(C, dtype=float)
        gains, reason, best = np.empty((B, n, q)), np.empty(B, dtype=np.int64), np.empty(B)
        ran = leo_place(
            family, B, n, q, RANK_RTOL, _PLACEMENT_TOL, len(draws), A.ctypes.data,
            C.ctypes.data, requested.ctypes.data, targets.ctypes.data, neg_kron.ctypes.data,
            draws.ctypes.data, *routines, gains.ctypes.data, reason.ctypes.data,
            best.ctypes.data,
        )
        return (gains, reason, best) if ran else None

    return place


def _place_matches_numpy(place) -> bool:
    """True iff ``place`` runs and gives ``_numpy_place``'s gains, reason
    codes and best deviations bit for bit, with any NaN for a NaN, on a
    fixed seeded stack per (n, q) with 2 <= n <= 4 and q <= n, for real
    and for complex poles.

    Besides ordinary rows, the stack holds a spectrum already in place, an
    A that shares an eigenvalue with the poles, an unobservable pair, an
    observability stack that overflows and a pair of subnormal products.
    """
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(20261020)))
    for n in range(2, 5):
        real = default_observer_poles(n).astype(complex)
        pair = real.copy()
        pair[:2] = 0.5 * np.exp(0.7j), 0.5 * np.exp(-0.7j)
        for q in range(1, n + 1):
            A, C = 0.6 * gen.standard_normal((9, n, n)), gen.standard_normal((9, q, n))
            A[4] = np.diag(real.real)
            # triangular, with the eigenvalue real[0] on its diagonal
            A[5] = np.triu(A[5], 1) + np.diag(np.roll(real.real, 1) + np.eye(n)[0])
            C[6] = 0.0
            A[7] *= 1e160
            A[8], C[8] = 1e-160 * A[8], 1e-160 * C[8]
            for poles in (real, pair):
                got, want = place(A, C, poles), _numpy_place(A, C, poles)
                if got is None or not all(map(_same_bits, got, want)):
                    return False
    return True


def _gain_matrix(gain, n: int, q: int) -> np.ndarray:
    """The gain as an n x q float array; None is the zero gain."""
    if gain is None:
        return np.zeros((n, q))
    L = np.asarray(gain, dtype=float)
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
    available = min(len(inputs), len(measured))
    T = _checked_horizon(horizon, len(inputs), available, "inputs/measured outputs")
    x0_hat = np.asarray(x0_hat, dtype=float).reshape(n)

    A, B, C = params.A, params.B, params.C
    forcing = inputs[:T] @ B.T + measured[:T] @ L.T
    states = _affine_rollout((A - L @ C)[None], x0_hat[None], forcing[None])[0]
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
    T = _checked_horizon(horizon, len(inputs), len(inputs), f"{len(inputs)} inputs")
    x0_hat = np.asarray(x0_hat, dtype=float).reshape(n)
    forcing = inputs[:T] @ params.B.T
    states = _affine_rollout(params.A[None], x0_hat[None], forcing[None])[0]
    return Trajectory(inputs=inputs[:T], states=states, outputs=states @ params.C.T)
