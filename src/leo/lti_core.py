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

import numbers
import os
import subprocess
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
    "random_system",
    "matrix_to_json",
    "kernel_name",
]

# Relative singular-value cutoff for numerical rank decisions.
RANK_RTOL = 1e-9


def _checked_horizon(horizon, default: int, available: int, what: str) -> int:
    """The step count: ``horizon``, or ``default`` when it is None; an
    integer in [0, available], else a ``ShapeError`` naming ``what``."""
    T = default if horizon is None else horizon
    if not isinstance(T, numbers.Integral):
        raise ShapeError(f"horizon must be an integer, got {horizon!r}")
    if not 0 <= T <= available:
        raise ShapeError(f"horizon {T} is negative or exceeds the {what}")
    return int(T)


def _checked_count(value, name: str, low: int) -> int:
    """``value`` as an int of at least ``low``, else a ``ShapeError``."""
    if not isinstance(value, numbers.Integral) or value < low:
        raise ShapeError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


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


def _as_square(A) -> np.ndarray:
    """``A`` as a finite square matrix, else a ``ShapeError``."""
    A = _as_matrix(A, name="A")
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"A must be square, got {A.shape}")
    return A


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
        A = _as_square(self.A)
        n = A.shape[0]
        B = _as_matrix(self.B, rows=n, name="B")
        C = _as_matrix(self.C, cols=n, name="C")
        if B.shape[1] > n:
            raise ShapeError(f"input dimension p={B.shape[1]} exceeds n={n}")
        if C.shape[0] < 1:
            raise ShapeError("C must have at least one row")
        for name, M in (("A", A), ("B", B), ("C", C)):
            object.__setattr__(self, name, M)

    @property
    def dims(self) -> tuple[int, int, int]:
        """(n, p, q): state, input and output dimensions."""
        return self.A.shape[0], self.B.shape[1], self.C.shape[0]


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
    T = _checked_horizon(horizon, len(inputs), len(inputs), f"{len(inputs)} inputs")
    if noise.w.shape[0] < T or noise.v.shape[0] < T + 1:
        raise ShapeError("noise realization shorter than the simulation horizon")
    if noise.w.shape[1] != n or noise.v.shape[1] != q:
        raise ShapeError("noise dimensions do not match the system")

    real = sys.real
    states, outputs = _simulate_stack(
        real.A[None], real.B[None], real.C[None], sys.x0_real[None], inputs[None, :T],
        noise.w[None, :T], noise.v[None, : T + 1],
    )
    return Trajectory(inputs=inputs[:T], states=states[0], outputs=outputs[0])


def _simulate_stack(A, B, C, x0, inputs, w, v) -> tuple[np.ndarray, np.ndarray]:
    """``simulate_true`` of a stack of systems that share dims and horizon.

    A (S, n, n), B (S, n, p), C (S, q, n), x0 (S, n), inputs (S, T, p),
    w (S, T, n) and v (S, T + 1, q) give states (S, T + 1, n) and outputs
    (S, T + 1, q). Every product is a stacked matmul whose items are the
    matrix-vector products of one system's step, and every step adds in
    the order (A x_k + B u_k) + w_k, so each system is bitwise its own
    stack of one.
    """
    S, T, _ = inputs.shape
    n = A.shape[1]
    # B u_k of every step at once, then the step loop, time-major.
    drive = (B[:, None] @ inputs[..., None]).transpose(1, 0, 2, 3)
    states = np.empty((T + 1, S, n, 1))
    states[0, :, :, 0] = x0
    matmul, add = np.matmul, np.add
    for x, x_next, d, wk in zip(states[:-1], states[1:], drive, w.transpose(1, 0, 2)[..., None]):
        matmul(A, x, x_next)
        add(x_next, d, x_next)
        add(x_next, wk, x_next)
    states = np.ascontiguousarray(states[..., 0].transpose(1, 0, 2))
    outputs = (C[:, None] @ states[..., None])[..., 0] + v
    return states, outputs


def _affine_rollout(M: np.ndarray, x0: np.ndarray, forcing: np.ndarray) -> np.ndarray:
    """Rows x_0..x_K of x_{k+1} = M x_k + f_k, for forcing rows f_0..f_{K-1}.

    Takes stacks only: M (B, n, n), x0 (B, n) and forcing (B, K, n) give
    states (B, K + 1, n); one run is a stack of one. The C loop of
    ``_kernel.c`` runs it where it loads, else ``_numpy_rollout``; both
    compute each row bitwise as its own run would. Non-finite values
    propagate; callers decide what they mean.
    """
    B, K, n = forcing.shape
    if M.shape != (B, n, n) or x0.shape != (B, n):
        raise ShapeError(f"rollout of M {M.shape} from x0 {x0.shape} with forcing {forcing.shape}")
    states = np.empty((B, K + 1, n))
    loop = _load_kernel().loop
    if loop and loop(M, x0, forcing, states):
        return states
    return _numpy_rollout(M, x0, forcing)


def _affine_adjoint(M: np.ndarray, direct: np.ndarray) -> np.ndarray:
    """Adjoint of ``_affine_rollout``: lambda_k = d_k + M^T lambda_{k+1}.

    For direct sensitivities d_0..d_K of a scalar to x_0..x_K, lambda_k is
    its total sensitivity to x_k (lambda_K = d_K) and lambda_{k+1} to f_k.
    Stacks only: M (B, n, n) and direct (B, K + 1, n) give (B, K + 1, n).
    It is the rollout of M^T from d_K over d_{K-1}..d_0, read backwards;
    the C loop runs it backwards in place.
    """
    B, K1, n = direct.shape
    if M.shape != (B, n, n) or K1 < 1:
        raise ShapeError(f"adjoint of M {M.shape} with direct terms {direct.shape}")
    adjoint = np.empty((B, K1, n))
    loop = _load_kernel().loop
    if loop and loop(M.transpose(0, 2, 1), None, direct, adjoint):
        return adjoint
    backwards = _numpy_rollout(M.transpose(0, 2, 1), direct[:, -1], direct[:, -2::-1])
    return np.ascontiguousarray(backwards[:, ::-1])


def _numpy_rollout(M: np.ndarray, x0: np.ndarray, forcing: np.ndarray) -> np.ndarray:
    """``_affine_rollout`` as a numpy loop: the fallback and the reference.

    Each time step is one stacked ``np.matmul``, which runs the same BLAS
    matrix-vector product per trial as ``M[b] @ x``, so every trial's rows
    are bitwise those of its own run.
    """
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


# The C kernel: None until the first call of any of its passes loads it,
# then its ``_Kernel`` record.
_kernel = None
_CC_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# The order families of _kernel.c, in the order the loader tries them.
_FAMILIES = ("skx", "hsw", "seq")
# The routines of numpy's OpenBLAS that the passes call, as numpy does:
# LAPACK's svd, eigvals and solve, and CBLAS's dgemv and dgemm.
_LAPACK = ("scipy_dgesdd_64_", "scipy_dgeev_64_", "scipy_dgesv_64_")
_BLAS = ("scipy_cblas_dgemv64_", "scipy_cblas_dgemm64_")


@dataclass(frozen=True)
class _Kernel:
    """The passes of ``_kernel.c``, each a callable, or False where it does
    not load and the numpy path runs: the time-step loop of
    ``_affine_rollout`` and ``_affine_adjoint``, the loss pass of
    ``learning._stacked_loss``, the placement pass of
    ``observer._place_poles`` and the training pass of
    ``learning._train_batch``."""

    loop: object = False
    loss: object = False
    place: object = False
    train: object = False


def kernel_name() -> str:
    """``"c"`` if the rollout and adjoint run in the C loop, else
    ``"numpy"``; the first call loads the kernel if no kernel call has yet."""
    return "c" if _load_kernel().loop else "numpy"


def _load_kernel() -> _Kernel:
    """The C passes, built and checked on the first call of any.

    The library is compiled once per source and flag set into
    ``$XDG_CACHE_HOME/leo`` (default ``~/.cache/leo``). Its passes compute
    in the operation order of one of OpenBLAS's kernel families; the
    loader picks the first family whose time-step loop gives the numpy
    loop's bits on a fixed stack (``_matches_numpy``). In that family it
    keeps the loss, placement and training passes each only if its probe
    (``learning._pass_matches_numpy``, ``observer._place_matches_numpy``,
    ``learning._train_matches_round_loop``) gives the numpy path's bits;
    the training pass runs the other two inside, so it loads only where
    both do. The LAPACK and CBLAS routines are numpy's own
    (``_openblas_symbol``); the placement pass needs every LAPACK routine
    to resolve. Any failure (no compiler, an unwritable cache, no family
    whose loop matches) leaves the numpy path of each pass in place,
    without a warning.
    """
    global _kernel
    if _kernel is None:
        from . import learning, observer  # they import this module

        # Every pass runs its numpy path while the probes run: each probe
        # compares with the all-numpy path.
        _kernel = _Kernel()
        lib = _c_library()
        families = () if lib is None else range(len(_FAMILIES))
        family = next((f for f in families if _matches_numpy(_family_loop(lib, f))), None)
        if family is not None:
            lapack = [_openblas_symbol(name) for name in _LAPACK]
            blas = [_openblas_symbol(name) for name in _BLAS]
            loss = learning._family_pass(lib, family, blas)
            loss = learning._pass_matches_numpy(loss) and loss
            place = None not in lapack and observer._family_place(lib, family, lapack)
            place = place and observer._place_matches_numpy(place) and place
            train = loss and place and learning._family_train(lib, family, lapack + blas)
            train = train and learning._train_matches_round_loop(train) and train
            _kernel = _Kernel(_family_loop(lib, family), loss, place, train)
    return _kernel


def _c_library():
    """``_build_c_library()``, or None where it cannot be built or loaded."""
    try:
        return _build_c_library()
    except (OSError, subprocess.SubprocessError):
        return None


def _build_c_library():
    """``_kernel.c`` as a loaded library, compiled on first use into the cache."""
    import ctypes
    import hashlib
    import tempfile

    source = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
    with open(source, "rb") as fh:
        key = hashlib.sha256(fh.read() + " ".join(_CC_FLAGS).encode()).hexdigest()[:16]
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "leo")
    library = os.path.join(cache, f"kernel-{key}.so")
    if not os.path.exists(library):
        os.makedirs(cache, exist_ok=True)
        # Build under a private name and rename: concurrent builders each
        # install a whole library, and a reader never sees a partial one.
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        try:
            subprocess.run(["cc", *_CC_FLAGS, "-o", tmp, source],
                           check=True, capture_output=True, timeout=120)
            os.replace(tmp, library)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    lib = ctypes.CDLL(library)
    c_int, c_long, c_double, pointer = ctypes.c_int, ctypes.c_long, ctypes.c_double, ctypes.c_void_p
    lib.leo_affine.argtypes = [c_int, c_int, c_int, c_long, c_long, c_int] + [pointer] * 4
    lib.leo_loss.argtypes = [c_int, c_long, c_int, c_int, c_int, c_long, c_long, c_int,
                             c_double, c_double, c_double] + [pointer] * 8
    lib.leo_place.argtypes = [c_int, c_long, c_int, c_int, c_double, c_double,
                              c_long] + [pointer] * 12
    lib.leo_train.argtypes = ([c_int, c_long, c_int, c_int, c_int, c_long, c_long, c_long, c_int]
                              + [pointer] * 5 + [c_long] + [pointer] * 9)
    return lib


# numpy's own OpenBLAS, which holds its LAPACK: None until first asked
# for, then a ctypes handle, or False where it cannot be opened.
_openblas_handle = None


def _openblas_symbol(name: str):
    """The address of ``name`` in the OpenBLAS that numpy.linalg calls, or
    None where it does not resolve.

    The library is opened through numpy's ``_umath_linalg`` extension, which
    links it: numpy's own wheels bundle an ILP64 OpenBLAS whose symbols
    carry a ``scipy_`` prefix and a ``64_`` suffix. Other builds resolve none.
    """
    import ctypes

    global _openblas_handle
    if _openblas_handle is None:
        try:
            from numpy.linalg import _umath_linalg

            _openblas_handle = ctypes.CDLL(_umath_linalg.__file__)
        except (ImportError, OSError):
            _openblas_handle = False
    symbol = getattr(_openblas_handle, name, None) if _openblas_handle else None
    return None if symbol is None else ctypes.cast(symbol, ctypes.c_void_p).value


def _blas_core() -> str | None:
    """The name of the core whose kernels numpy's OpenBLAS runs (for
    example ``"SkylakeX"`` or ``"Haswell"``), or None where it is not known."""
    import ctypes

    address = _openblas_symbol("scipy_openblas_get_corename64_")
    if address is None:
        return None
    return ctypes.CFUNCTYPE(ctypes.c_char_p)(address)().decode()


def _family_loop(lib, family: int):
    """The C loop in order family ``family``, as ``_affine_rollout`` and
    ``_affine_adjoint`` call it."""
    affine = lib.leo_affine

    def loop(S, x0, f, out) -> bool:
        """Run the recursion of step matrix S into ``out``, shaped as the
        result: forward from x0, or backward from f's last row where x0 is
        None. False, with nothing run, for n > 4, for a layout of S on which
        np.matmul calls no BLAS, or for a family this CPU cannot run."""
        nb, K1, n = out.shape
        if n > 4:
            return False
        # np.matmul picks the BLAS call by the layout of S: 'T' on its
        # row-major memory, 'N' on its column-major memory.
        rows, cols = S.strides[1:]
        if n == 1 or cols == 8 and rows % 8 == 0 and rows >= 8 * n:
            trans, memory = 1, S
        elif rows == 8 and cols % 8 == 0 and cols >= 8 * n:
            trans, memory = 0, S.transpose(0, 2, 1)
        else:
            return False
        P, f = np.ascontiguousarray(memory, dtype=float), np.ascontiguousarray(f, dtype=float)
        start = None if x0 is None else np.ascontiguousarray(x0, dtype=float)
        return bool(affine(family, trans, start is None, nb, K1 - 1, n, P.ctypes.data,
                           None if start is None else start.ctypes.data, f.ctypes.data,
                           out.ctypes.data))

    return loop


def _matches_numpy(loop) -> bool:
    """True iff ``loop`` gives the numpy loop's bits on a fixed seeded stack
    per n = 1..4, forward and backward, on M and on its transposed view.
    The stack holds exact zeros, -0.0 and subnormal products."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(20250611)))
    for n in range(1, 5):
        M = 0.6 * gen.standard_normal((4, n, n))
        x0 = gen.standard_normal((4, n))
        f = gen.standard_normal((4, 17, n))
        M[0, 0], x0[0], f[0, :, 0] = 0.0, -0.0, -0.0
        M[1] *= 1e-160
        x0[1] *= 1e-160
        f[1] *= 1e-300
        for S in (M, M.transpose(0, 2, 1)):
            states, adjoint = np.empty((4, 17, n)), np.empty((4, 17, n))
            if not (loop(S, x0, f[:, 1:], states) and loop(S, None, f, adjoint)):
                return False
            backwards = _numpy_rollout(S, f[:, -1], f[:, -2::-1])[:, ::-1]
            if (states.tobytes() != _numpy_rollout(S, x0, f[:, 1:]).tobytes()
                    or adjoint.tobytes() != backwards.tobytes()):
                return False
    return True


def _same_bits(a, b) -> bool:
    """Whether two results are equal bit for bit, NaN payloads aside."""
    if a is None or b is None:
        return a is b
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all() and a[~nan].tobytes() == b[~nan].tobytes())


def observability_matrix(A: np.ndarray, C: np.ndarray, N: int) -> np.ndarray:
    """Vertical stack of C A^j for j = 0..N-1 (shape Nq x n); an N that
    is not an integer >= 1 raises ``ShapeError``."""
    A = _as_square(A)
    C = _as_matrix(C, cols=A.shape[0], name="C")
    return _observability_stack(A, C, _checked_count(N, "N", 1))


def _observability_stack(A: np.ndarray, C: np.ndarray, N: int) -> np.ndarray:
    """``observability_matrix`` for matrices that are already validated;
    stacks of pairs, A (B, n, n) and C (B, q, n), give (B, Nq, n)."""
    blocks = [C]
    for _ in range(N - 1):
        blocks.append(blocks[-1] @ A)
    return np.concatenate(blocks, axis=-2)


@np.errstate(over="ignore", invalid="ignore")
def _observable(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Whether the N = n observability stack of each pair has full column
    rank (``RANK_RTOL`` cutoff); an overflowing stack does not.

    A and C must be finite, as an ``LtiParams``' matrices are; any such pair
    gives a decision, without a warning. Stacks only: A (B, n, n) and C
    (B, q, n) give a (B,) mask from one stacked build and SVD, each row
    bitwise that of a stack of one.
    """
    stack = _observability_stack(A, C, A.shape[-1])
    # An overflowed stack counts as rank deficient: zeroed, it fails the test.
    stack[~np.isfinite(stack).all(axis=(1, 2))] = 0.0
    s = np.linalg.svd(stack, compute_uv=False)
    return s[:, -1] > RANK_RTOL * s[:, 0]


def is_observable(A: np.ndarray, C: np.ndarray) -> bool:
    """True iff the N = n observability stack has full column rank.

    Rank uses the singular-value cutoff ``RANK_RTOL * sigma_max``.
    """
    A = _as_square(A)
    C = _as_matrix(C, cols=A.shape[0], name="C")
    return bool(_observable(A[None], C[None])[0])


def spectral_radius(A: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a square matrix."""
    A = _as_square(A)
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
    if M.size == 0:
        return np.zeros((M.shape[1], M.shape[0]))
    try:
        return _pinv(M[None], rcond)[0]
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalError(f"SVD failed to converge: {exc}") from exc


def _pinv(M: np.ndarray, rcond: float = 1e-12) -> np.ndarray:
    """``pinv`` of a stack (B, m, k) of finite, non-empty matrices: one
    stacked SVD and product, each item bitwise that of a stack of one."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    keep = s > rcond * s[..., :1]
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    out = (Vt.swapaxes(-1, -2) * inv_s[..., None, :]) @ U.swapaxes(-1, -2)
    out[s[..., 0] == 0.0] = 0.0  # a zero matrix, whose product holds -0.0 entries
    return out


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

