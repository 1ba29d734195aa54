"""The C time-step loop, loss pass, placement pass and training pass
against the numpy code they replace, and their one loader,
``lti_core._load_kernel``.

``_affine_rollout`` runs the C loop of ``leo/_kernel.c`` where it builds
and passes its load-time check, and ``_numpy_rollout`` otherwise;
``_affine_adjoint`` is that rollout on M^T, and ``numpy_adjoint`` below
its numpy reference. Training amplifies last-bit differences, so the two must
agree bit for bit, including on the non-finite rows that divergence
detection reads. On a host without a C compiler the properties compare the
numpy loop with itself. The same holds for the loss pass of
``learning._stacked_loss`` against ``learning._numpy_loss``, and for the
placement pass of ``observer._place_poles`` against
``observer._numpy_place``, and for the training pass of
``learning._train_batch`` against its round loop and the all-numpy path.
"""

import ctypes
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leo import learning, lti_core, observer
from leo.learning import (
    LearnableParams, TrainConfig, _blocks, _numpy_loss, _round_loop, _stacked_loss, _train_batch,
    log_to_jsonl,
)
from leo.lti_core import _affine_adjoint, _affine_rollout, _numpy_rollout
from leo.observer import _checked_poles, _numpy_place, _place_poles, default_observer_poles

SRC = Path(__file__).resolve().parents[1] / "src"
PROPERTY_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


def numpy_adjoint(M, direct):
    """``_affine_adjoint`` on the numpy loop alone."""
    backwards = _numpy_rollout(M.transpose(0, 2, 1), direct[:, -1], direct[:, -2::-1])
    return np.ascontiguousarray(backwards[:, ::-1])


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def stacks(draw):
    """M, x0, forcing and direct terms of B runs, in the layouts callers pass."""
    seed = draw(st.integers(0, 2**32 - 1))
    batch, n, steps = draw(st.integers(1, 11)), draw(st.integers(1, 5)), draw(st.integers(0, 259))
    gen = np.random.default_rng(seed)
    M = 0.6 * gen.standard_normal((batch, n, n))
    x0 = gen.standard_normal((batch, n))
    forcing = gen.standard_normal((batch, steps, n))
    direct = gen.standard_normal((batch, steps + 1, n))
    layout = draw(st.sampled_from(["contiguous", "transposed", "padded", "views"]))
    if layout == "transposed":
        M = M.transpose(0, 2, 1)
    elif layout == "padded":
        wide = np.zeros((batch, n, n + 3))
        wide[:, :, :n] = M
        M = wide[:, :, :n]
    elif layout == "views":
        # as training passes them: blocks of a flat parameter row, and
        # every other time step of a longer record
        theta = gen.standard_normal((batch, n * n + n + 2))
        M, x0 = theta[:, : n * n].reshape(batch, n, n), theta[:, n * n : n * n + n]
        forcing = np.repeat(forcing, 2, axis=1)[:, ::2]
        direct = np.repeat(direct, 2, axis=1)[:, ::2]
    values = draw(st.sampled_from(["normal", "zeros", "tiny", "wide"]))
    if values == "zeros":
        # exact zeros and -0.0, whose sign the first add of a step drops
        for a in (M, x0, forcing, direct):
            a[gen.random(a.shape) < 0.3] = 0.0
            a[gen.random(a.shape) < 0.3] = -0.0
    elif values == "tiny":
        # subnormal products, and forcing small enough not to hide them
        for a, scale in ((M, 1e-160), (x0, 1e-160), (forcing, 1e-300), (direct, 1e-300)):
            a *= scale
    elif values == "wide":
        for a in (M, x0, forcing, direct):
            a *= np.exp(gen.uniform(-30.0, 30.0, a.shape))
    bad = draw(st.sampled_from(["none", "overflow", "nan"]))
    if bad != "none":
        row = draw(st.integers(0, batch - 1))
        if bad == "overflow":
            with np.errstate(over="ignore"):  # wide entries may overflow here
                M[row] *= 1e300
        else:
            x0[row, 0] = direct[row, 0, 0] = np.nan
            forcing[row, steps // 2 :, -1] = np.nan
    return M, x0, forcing, direct


class TestCLoopMatchesNumpyLoop:
    @PROPERTY_SETTINGS
    @given(stack=stacks())
    def test_bitwise_in_both_directions(self, stack):
        M, x0, forcing, direct = stack
        with np.errstate(over="ignore", invalid="ignore"):
            states, ref_states = _affine_rollout(M, x0, forcing), _numpy_rollout(M, x0, forcing)
            adj, ref_adj = _affine_adjoint(M, direct), numpy_adjoint(M, direct)
        assert same_bits(states, ref_states)
        assert same_bits(adj, ref_adj)
        assert states.flags.c_contiguous and adj.flags.c_contiguous

    def test_c_loop_runs_where_a_compiler_is(self, fresh):
        # a silent fallback on a host with cc would hide every gain
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on this host")
        assert lti_core.kernel_name() == "c"


# Results of ON_CORE_CHECKS under each OPENBLAS_CORETYPE, run once per core.
ON_CORE = {}
# Prints, as JSON, the families whose loop matches, the passes that load,
# and for each check "" or the traceback of its failure.
ON_CORE_CHECKS = """
import json, traceback
import numpy as np
from leo import learning as lg, lti_core as lc, observer as ob
from leo.learning import TrainConfig
lib = lc._c_library()
kernel = lc._load_kernel()

def check_family():
    assert lib is not None

def check_loop():
    gen = np.random.default_rng(3)
    for n in range(1, 5):
        M, x0 = gen.standard_normal((7, n, n)), gen.standard_normal((7, n))
        f, d = gen.standard_normal((7, 300, n)), gen.standard_normal((7, 301, n))
        M[0], x0[0] = -0.0, -0.0
        for S in (M, M.transpose(0, 2, 1)):
            ref = lc._numpy_rollout(S, x0, f)
            assert lc._affine_rollout(S, x0, f).tobytes() == ref.tobytes()
            back = lc._numpy_rollout(S.transpose(0, 2, 1), d[:, -1], d[:, -2::-1])
            assert lc._affine_adjoint(S, d).tobytes() == back[:, ::-1].tobytes()

def check_loss():
    gen = np.random.default_rng(3)
    for n, p, q in ((2, 1, 1), (3, 2, 1), (4, 3, 2), (4, 4, 3), (4, 4, 4)):
        for mode in ("luenberger", "open_loop"):
            size = n * (n + p + q + 1)
            theta = 0.3 * gen.standard_normal((5, size))
            args = ((n, p, q), TrainConfig(rollout_mode=mode), theta,
                    theta + 0.01 * gen.standard_normal((5, size)),
                    gen.standard_normal((5, 251, p)), gen.standard_normal((5, 252, q)),
                    0.1 * gen.standard_normal((5, n, q)) if mode == "luenberger" else None)
            got, want = kernel.loss(*args, True), lg._numpy_loss(*args, True)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

def check_place():
    gen = np.random.default_rng(3)
    for n, q in ((2, 1), (3, 1), (3, 2), (4, 2), (4, 4)):
        poles = ob._checked_poles(ob.default_observer_poles(n), n)
        A, C = gen.standard_normal((40, n, n)), gen.standard_normal((40, q, n))
        got, want = kernel.place(A, C, poles), ob._numpy_place(A, C, poles)
        assert all(lc._same_bits(a, b) for a, b in zip(got, want))

def check_train():
    gen = np.random.default_rng(3)
    for n, p, q in ((2, 1, 1), (3, 2, 1), (4, 3, 2), (4, 4, 3)):
        for mode in ("luenberger", "open_loop"):
            anchor = 0.3 * gen.standard_normal((5, n * (n + p + q + 1)))
            u, y = gen.standard_normal((5, 251, p)), gen.standard_normal((5, 252, q))
            cfg = TrainConfig(rollout_mode=mode, epochs=12, lr0=0.01, decay_every=5)
            args = ((n, p, q), cfg, anchor, u, y)
            got, want = kernel.train(*args), lg._round_loop(*args)
            assert all(lc._same_bits(a, b) for a, b in zip(got, want))

def failure(check):
    try:
        check()
    except Exception:
        return traceback.format_exc()
    return ""

out = {name[6:]: failure(check) for name, check in list(globals().items())
       if name.startswith("check_")}
out["matching"] = [] if lib is None else [
    name for f, name in enumerate(lc._FAMILIES) if lc._matches_numpy(lc._family_loop(lib, f))]
out["loaded"] = [name for name, binding in vars(kernel).items() if binding]
print(json.dumps(out))
"""

def openblas_can_run_avx2_cores():
    """True iff numpy's BLAS is an OpenBLAS that picks its kernels at run
    time, on a CPU with AVX2 and FMA."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as cpu
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as cpu
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError):
        return False
    openblas = "openblas" in blas.get("name", "")
    dynamic = "DYNAMIC_ARCH" in blas.get("openblas configuration", "")
    return bool(openblas and dynamic and cpu.get("AVX2") and cpu.get("FMA3"))


def off_after(monkeypatch, *patches):
    """The fields of the kernel record that are off once it loads again
    with ``patches`` (module, name, value) applied; the test is skipped
    where not every pass loads without them."""
    if not all(vars(lti_core._load_kernel()).values()):
        pytest.skip("not every C pass loads on this host")
    monkeypatch.setattr(lti_core, "_kernel", None)
    for patch in patches:
        monkeypatch.setattr(*patch)
    return [name for name, binding in vars(lti_core._load_kernel()).items() if not binding]


class TestLoader:
    def check_numpy_fallback(self):
        # every pass is off; pytest turns warnings into errors: the
        # fallback must emit none
        gen = np.random.default_rng(5)
        M, x0 = gen.standard_normal((3, 2, 2)), gen.standard_normal((3, 2))
        forcing, direct = gen.standard_normal((3, 9, 2)), gen.standard_normal((3, 10, 2))
        assert lti_core.kernel_name() == "numpy"
        assert lti_core._load_kernel() == lti_core._Kernel()
        assert same_bits(_affine_rollout(M, x0, forcing), _numpy_rollout(M, x0, forcing))
        assert same_bits(_affine_adjoint(M, direct), numpy_adjoint(M, direct))

    def test_forced_fallback(self, monkeypatch):
        monkeypatch.setattr(lti_core, "_kernel", lti_core._Kernel())
        self.check_numpy_fallback()

    def test_no_compiler(self, unbuilt, monkeypatch):
        monkeypatch.setenv("PATH", "")
        self.check_numpy_fallback()
        assert list(unbuilt.iterdir()) == []  # no temp file left behind

    def test_unwritable_cache(self, unbuilt, monkeypatch):
        unbuilt.parent.joinpath("not-a-dir").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(unbuilt.parent / "not-a-dir"))
        self.check_numpy_fallback()

    def test_probe_mismatch(self, fresh, monkeypatch):
        monkeypatch.setattr(lti_core, "_matches_numpy", lambda loop: False)
        self.check_numpy_fallback()

    def test_probe_rejects_a_loop_that_moves_bits(self, fresh):
        loop = lti_core._load_kernel().loop
        if not loop:
            pytest.skip("the C loop does not load on this host")

        def off_by_one_ulp(where):
            def moved(S, x0, f, out):
                ran = loop(S, x0, f, out)
                if where(S, x0):
                    out[-1, -1] = np.nextafter(out[-1, -1], np.inf)
                return ran

            return moved

        assert lti_core._matches_numpy(loop)
        assert not lti_core._matches_numpy(off_by_one_ulp(lambda S, x0: True))
        # the transposed layout and the backward loop are checked too
        assert not lti_core._matches_numpy(off_by_one_ulp(lambda S, x0: not S.flags.c_contiguous))
        assert not lti_core._matches_numpy(off_by_one_ulp(lambda S, x0: x0 is None))

    def test_probe_rejects_a_loop_that_does_not_run(self, fresh):
        assert not lti_core._matches_numpy(lambda S, x0, f, out: False)

    def test_concurrent_first_builds_share_one_library(self, unbuilt):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on this host")
        env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(unbuilt.parent))
        code = "from leo.lti_core import kernel_name; print(kernel_name())"
        procs = [subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                                  text=True) for _ in range(3)]
        outputs = [proc.communicate(timeout=240)[0].strip() for proc in procs]
        assert outputs == ["c"] * 3
        assert [p.suffix for p in unbuilt.iterdir()] == [".so"]

    @pytest.mark.parametrize("check", ["family", "loop", "loss", "place", "train"])
    @pytest.mark.parametrize("core, family", [("Haswell", "hsw"), ("Sandybridge", "seq")])
    def test_each_family_on_the_openblas_core_it_names(self, core, family, check, kernel_cache):
        # OpenBLAS picks its kernels by core at run time: on each core, only
        # the family it names matches and every pass loads in that family
        # ("family"), and each pass matches its reference on samples larger
        # than its probe's; one run per core checks all five
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on this host")
        if not openblas_can_run_avx2_cores():
            pytest.skip("numpy's BLAS cannot run OpenBLAS's AVX2 cores here")
        if core not in ON_CORE:
            env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(kernel_cache),
                       OPENBLAS_CORETYPE=core)
            proc = subprocess.run([sys.executable, "-c", ON_CORE_CHECKS], env=env,
                                  capture_output=True, text=True, timeout=240)
            assert proc.returncode == 0, proc.stderr
            ON_CORE[core] = json.loads(proc.stdout)
        got = ON_CORE[core]
        assert got[check] == "", got[check]
        if check == "family":
            assert got["matching"] == [family]
            assert got["loaded"] == ["loop", "loss", "place", "train"]

def test_import_loads_neither_scipy_linalg_nor_the_kernel(kernel_cache):
    # the loader does not run and the cache is untouched on import, and
    # loading the kernel, all four passes, later imports no scipy.linalg either
    cache = kernel_cache / "leo"
    code = (
        "import os, sys, leo\n"
        "loaded = [m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "assert leo.lti_core._kernel is None and leo.lti_core._openblas_handle is None\n"
        f"assert os.listdir({str(cache)!r}) == {os.listdir(cache)!r}\n"
        "leo.lti_core._load_kernel()\n"
        "assert 'scipy.linalg' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(kernel_cache))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def same_bits_nan_aside(a, b):
    """Equal bit for bit, with any NaN for a NaN; None only for None."""
    if a is None or b is None:
        return a is b
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


@st.composite
def loss_stacks(draw):
    """Arguments of ``_stacked_loss``: B runs of one dims and window."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 5))
    p, q = draw(st.integers(1, n)), draw(st.integers(1, n))
    batch = draw(st.integers(1, 6))
    k0, K = draw(st.integers(0, 210)), draw(st.integers(1, 140))
    mode = draw(st.sampled_from(["luenberger", "open_loop"]))
    gen = np.random.default_rng(seed)
    size, T = n * (n + p + q + 1), k0 + K
    theta = 0.4 * gen.standard_normal((batch, size))
    anchor = theta + 0.01 * gen.standard_normal((batch, size))
    inputs = gen.standard_normal((batch, T, p))
    measured = gen.standard_normal((batch, T + 1, q))
    L = 0.3 * gen.standard_normal((batch, n, q))
    values = draw(st.sampled_from(["normal", "zeros", "tiny"]))
    if values == "zeros":
        # exact zeros and -0.0, and deviations of -0.0 - 0.0
        for a in (theta, inputs, measured, L):
            a[gen.random(a.shape) < 0.2] = 0.0
            a[gen.random(a.shape) < 0.2] = -0.0
        anchor[theta == 0.0] = 0.0
    elif values == "tiny":
        # subnormal products C x and L y
        theta *= 1e-160
        anchor *= 1e-160
        measured *= 1e-160
    row = draw(st.integers(0, batch - 1))
    special = draw(st.sampled_from(["none", "zero residual", "overflow"]))
    if special == "zero residual":
        # a zero state and zero or -0.0 data: every residual is exactly 0
        theta[row, -n:], inputs[row] = 0.0, 0.0
        measured[row] = np.where(gen.random(measured[row].shape) < 0.5, 0.0, -0.0)
    elif special == "overflow":
        theta[row, : n * n] *= 1e3
        theta[row, -n:] = 1e300
    cfg = TrainConfig(rollout_mode=mode, window_start=k0, window_len=K)
    gains = L if mode == "luenberger" else None
    return (n, p, q), cfg, theta, anchor, inputs, measured, gains, draw(st.booleans())


class TestLossPassMatchesNumpyPass:
    @PROPERTY_SETTINGS
    @given(args=loss_stacks())
    def test_bitwise(self, args):
        dims, cfg = args[:2]
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _stacked_loss(*args), _numpy_loss(*args)
        assert all(map(same_bits_nan_aside, got, want))
        loss_pass = lti_core._load_kernel().loss
        horizon = cfg.window_start + cfg.window_len
        if loss_pass and 2 <= dims[0] <= 4 and 2 <= horizon <= 256:
            assert loss_pass(*args) is not None  # the pass ran

    def test_pass_runs_where_a_compiler_is(self, fresh):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on this host")
        assert lti_core._load_kernel().loss


class TestLossPassLoader:
    def loaded_pass(self):
        loss_pass = lti_core._load_kernel().loss
        if not loss_pass:
            pytest.skip("the C loss pass does not load on this host")
        return loss_pass

    @pytest.mark.parametrize("where", ["terms", "gradient", "diverged_at"])
    def test_probe_rejects_a_pass_that_moves_a_bit(self, fresh, where):
        loss_pass = self.loaded_pass()

        def moved(*args):
            got = loss_pass(*args)
            if got is None:
                return None
            terms, grads, diverged_at = (None if a is None else a.copy() for a in got)
            if where == "terms":
                terms[-1, 0] = np.nextafter(terms[-1, 0], np.inf)
            elif where == "gradient" and grads is not None:
                grads[-1, 0] = np.nextafter(grads[-1, 0], np.inf)
            elif where == "diverged_at":
                diverged_at[-1] += 1
            return terms, grads, diverged_at

        assert learning._pass_matches_numpy(loss_pass)
        assert not learning._pass_matches_numpy(moved)

    def test_probe_rejects_a_pass_that_does_not_run(self, fresh):
        assert not learning._pass_matches_numpy(lambda *args: None)

    def test_rejected_pass_leaves_the_numpy_pass(self, fresh, monkeypatch):
        # the training pass runs the loss pass inside: it is off too
        rejected = (learning, "_pass_matches_numpy", lambda loss_pass: False)
        assert off_after(monkeypatch, rejected) == ["loss", "train"]
        gen = np.random.default_rng(4)
        args = ((2, 1, 1), TrainConfig(), gen.standard_normal((3, 10)),
                gen.standard_normal((3, 10)), gen.standard_normal((3, 251, 1)),
                gen.standard_normal((3, 252, 1)), 0.1 * gen.standard_normal((3, 2, 1)))
        for got, want in zip(_stacked_loss(*args), _numpy_loss(*args)):
            assert same_bits(got, want)


# Entry magnitudes of the extreme rows of ``placement_stacks``: subnormal,
# tiny, ordinary and huge.
EXTREMES = (0.0, 5e-324, 1e-310, 1e-300, 1e-3, 1.0, 1e150, 1e300, 1.7e308)
# Kinds of row near the thresholds of the placement's decision-only tests,
# where its certificates give way to LAPACK's calls.
NEAR_THRESHOLD = ("weakly observable", "near pole")


def near_threshold(gen, kind, A, C, pole):
    """Makes the pair (A, C) a row of ``kind`` in place: "weakly observable",
    where the last state barely reaches the output (sigma_min / sigma_max
    of the observability stack about 1e-12 to 1e-5 for n >= 2), or "near
    pole", a diagonalizable A with an eigenvalue 1e-12 to 1e-4 from the
    real ``pole``, which also makes X ill-conditioned."""
    n = len(A)
    if kind == "weakly observable" and n >= 2:
        A[:-1, -1] = 0.0
        C[:, -1] *= 10.0 ** -gen.uniform(4, 12)
    elif kind == "near pole":
        eig = gen.uniform(-0.9, 0.9, n)
        eig[0] = pole + gen.choice([-1.0, 1.0]) * 10.0 ** -gen.uniform(4, 12)
        V = gen.standard_normal((n, n))
        A[...] = V @ np.diag(eig) @ np.linalg.inv(V)


@st.composite
def placement_stacks(draw):
    """Arguments of ``_place_poles``, with a scale for the G draws: B pairs
    of one (n, q), among them rows of every rare kind."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 5))
    q, batch = draw(st.integers(1, n)), draw(st.integers(1, 12))
    gen = np.random.default_rng(seed)
    A = gen.standard_normal((batch, n, n)) * draw(st.sampled_from([0.3, 1.0, 3.0]))
    C = gen.standard_normal((batch, q, n))
    poles = np.sort(gen.uniform(-0.9, 0.9, n)).astype(complex)
    if n >= 2 and draw(st.booleans()):
        radius, angle = gen.uniform(0.1, 0.9), gen.uniform(0.1, 3.0)
        poles[:2] = radius * np.exp(1j * angle), radius * np.exp(-1j * angle)
    if n >= 2 and not poles.imag.any() and draw(st.booleans()):
        # two poles 1e-11.5 to 1e-7 apart: at q = 1, X's condition number
        # reaches 1e8 to 1e12, and the deviations fall on both sides of 1e-7
        poles[1] = poles[0] + 10.0 ** -gen.uniform(7, 11.5)
    kinds = st.sampled_from(["ordinary", "unobservable", "shared eigenvalue", "in place",
                             "singular operator", "subnormal C", "extreme",
                             "weakly observable", "near pole"])
    for b, kind in enumerate(draw(st.lists(kinds, min_size=batch, max_size=batch))):
        if kind == "unobservable":
            C[b] = 0.0
        elif kind in NEAR_THRESHOLD:
            near_threshold(gen, kind, A[b], C[b], poles[-1].real)
        elif kind == "shared eigenvalue":
            # triangular, with a requested real pole or an eigenvalue that
            # misses it by less than 1e-9 on its diagonal
            A[b] = np.triu(A[b], 1) + np.diag(gen.uniform(-0.9, 0.9, n))
            A[b, 0, 0] = poles[-1].real + draw(st.sampled_from([0.0, 5e-10]))
        elif kind == "in place":
            A[b] = np.diag(poles.real) if not poles.imag.any() else A[b]
        elif kind == "singular operator" and n == 2:
            # K exactly singular, with no eigenvalue within 1e-9 of a pole
            A[b], C[b] = [[1e-310, -0.5], [1e160, 1e160]], [1e250, -1e-300][:q]
        elif kind == "subnormal C":
            # with G scaled by 1e10, X is normal and the gain overflows
            C[b] *= 1e-309
        elif kind == "extreme":
            for M in (A[b], C[b]):
                M[...] = gen.choice([-1.0, 1.0], M.shape) * gen.choice(EXTREMES, M.shape)
    scale = draw(st.sampled_from([1.0, 1.0, 0.0, 1e10]))
    return A, C, _checked_poles(poles, n), scale


class TestPlacementPassMatchesNumpyPlacement:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(args=placement_stacks())
    def test_bitwise(self, args):
        A, C, poles, scale = args
        place = lti_core._load_kernel().place  # before the patch: the probe runs unpatched
        neg_kron, targets, draws = observer._placement_constants(tuple(poles), C.shape[1])
        scaled = lambda *_: (neg_kron, targets, scale * draws)  # noqa: E731
        with mock.patch.object(observer, "_placement_constants", scaled):
            got, want = _place_poles(A, C, poles), _numpy_place(A, C, poles)
            assert all(map(same_bits_nan_aside, got, want))
            if place and 2 <= A.shape[1] <= 4:
                assert place(A, C, poles) is not None  # the pass ran

    def test_pass_runs_where_a_compiler_is(self, fresh):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on this host")
        assert lti_core._load_kernel().place


class TestPlacementPassLoader:
    def loaded_pass(self):
        place = lti_core._load_kernel().place
        if not place:
            pytest.skip("the C placement pass does not load on this host")
        return place

    @pytest.mark.parametrize("where", ["gains", "reason", "best"])
    def test_probe_rejects_a_pass_that_moves_a_bit(self, fresh, where):
        place = self.loaded_pass()

        def moved(A, C, desired):
            gains, reason, best = (a.copy() for a in place(A, C, desired))
            if where == "gains":
                gains[0, 0, 0] = np.nextafter(gains[0, 0, 0], np.inf)
            elif where == "reason":
                reason[-1] = observer.NOT_PLACED if reason[-1] else observer.PLACED
            else:
                best[0] = np.nextafter(best[0], np.inf)
            return gains, reason, best

        assert observer._place_matches_numpy(place)
        assert not observer._place_matches_numpy(moved)

    def test_probe_rejects_a_pass_that_does_not_run(self, fresh):
        assert not observer._place_matches_numpy(lambda A, C, desired: None)

    @pytest.mark.parametrize("failure", ["probe", "symbol"])
    def test_rejected_pass_leaves_the_numpy_placement(self, fresh, monkeypatch, failure):
        # the training pass runs the placement pass inside: it is off too
        if failure == "probe":
            rejected = (observer, "_place_matches_numpy", lambda place: False)
        else:
            routines = ("scipy_dgesdd_64_", "no_such_routine_", "scipy_dgesv_64_")
            rejected = (lti_core, "_LAPACK", routines)
        assert off_after(monkeypatch, rejected) == ["place", "train"]
        gen = np.random.default_rng(5)
        A, C = gen.standard_normal((4, 3, 3)), gen.standard_normal((4, 1, 3))
        C[2] = 0.0
        poles = _checked_poles(default_observer_poles(3), 3)
        for got, want in zip(_place_poles(A, C, poles), _numpy_place(A, C, poles)):
            assert same_bits_nan_aside(got, want)

    def test_sizes_the_pass_does_not_take(self, monkeypatch):
        # n = 1 and n >= 5 never call the pass; q > n makes it decline
        def refuse(A, C, desired):
            raise AssertionError("the C placement pass ran")

        place = self.loaded_pass()
        monkeypatch.setattr(lti_core, "_kernel", replace(lti_core._load_kernel(), place=refuse))
        gen = np.random.default_rng(6)
        for n in (1, 5):
            A, C = gen.standard_normal((3, n, n)), gen.standard_normal((3, 2, n))
            _place_poles(A, C, _checked_poles(default_observer_poles(n), n))
        A, C = gen.standard_normal((3, 2, 2)), gen.standard_normal((3, 3, 2))
        assert place(A, C, _checked_poles(default_observer_poles(2), 2)) is None


# Kinds of run in ``train_batches``: as in the loader's probe batch, a run
# that stays unobservable while each step grows its A until the second
# moment of its gradient overflows (it rolls back), one whose rollout
# overflows at once (it aborts), one that starts unobservable, one whose A
# shares an eigenvalue with the requested poles, and one with a zero start
# and data of 0.0 and -0.0.
TRAIN_ROWS = ("ordinary", "rollback", "abort", "unobservable", "shared eigenvalue", "zeros",
              *NEAR_THRESHOLD)


@st.composite
def train_batches(draw):
    """Arguments of ``_train_batch``: runs of one dims and ``TrainConfig``,
    among them runs of every kind in ``TRAIN_ROWS``; and the LAPACK
    routine and the number of its call that fails in a LAPACK failure
    (``counted_train_pass``), or None and 0 for none."""
    seed = draw(st.integers(0, 2**32 - 1))
    # mostly sizes the pass takes; a rollback row rolls back at lr0 = 1
    n = draw(st.sampled_from([1, 2, 3, 4, 2, 3, 4, 5]))
    p, q = draw(st.integers(1, n)), draw(st.integers(1, n + 1))
    batch = draw(st.integers(1, 8))
    k0, K = draw(st.integers(0, 12)), draw(st.integers(1, 12))
    cfg = TrainConfig(
        lr0=draw(st.sampled_from([1e-3, 0.05, 1.0, 1.0])), epochs=draw(st.integers(0, 30)),
        decay_every=draw(st.integers(1, 8)),
        rollout_mode=draw(st.sampled_from(["luenberger", "open_loop"])),
        window_start=k0, window_len=K,
    )
    gen = np.random.default_rng(seed)
    T = k0 + K + int(gen.integers(0, 3))
    theta = 0.4 * gen.standard_normal((batch, n * (n + p + q + 1)))
    A, B, C, x0 = _blocks(theta, n, p, q)
    u, y = gen.standard_normal((batch, T, p)), gen.standard_normal((batch, T + 1, q))
    pole = default_observer_poles(n)[-1].real
    for b, kind in enumerate(draw(st.lists(st.sampled_from(TRAIN_ROWS), min_size=batch,
                                           max_size=batch))):
        if kind == "rollback":
            A[b], B[b], C[b], x0[b], u[b], y[b] = 0.5 / n, 0.0, 1.0, 1e148, 0.0, 1e165
        elif kind == "abort":
            A[b] *= 1e3
            x0[b] = 1e300
        elif kind == "unobservable":
            C[b] = 0.0
        elif kind == "shared eigenvalue":
            A[b] = np.triu(A[b], 1) + np.diag(gen.uniform(-0.9, 0.9, n))
            A[b, 0, 0] = pole
        elif kind == "zeros":
            x0[b], u[b] = 0.0, -0.0
            y[b] = np.where(gen.random(y[b].shape) < 0.5, 0.0, -0.0)
        elif kind in NEAR_THRESHOLD:
            near_threshold(gen, kind, A[b], C[b], pole)
    inits = [LearnableParams(*_blocks(row, n, p, q)) for row in theta]
    fail = draw(st.sampled_from([None, None, *ROUTINES[:3]]))
    return inits, list(u), list(y), cfg, fail, draw(st.integers(1, 12)) if fail else 0


def loop_family():
    """The order family of the time-step loop that the kernel loads."""
    lib = lti_core._c_library()
    families = range(len(lti_core._FAMILIES))
    return next(f for f in families if lti_core._matches_numpy(lti_core._family_loop(lib, f)))


# The routines the C passes call (``lti_core._LAPACK``, then ``_BLAS``)
# and their C signatures: LAPACK's take pointers only, CBLAS's take the
# layout, the sizes and the scalars by value.
ROUTINES = ("gesdd", "geev", "gesv", "gemv", "gemm")
_P, _I, _L, _D = ctypes.c_void_p, ctypes.c_int, ctypes.c_int64, ctypes.c_double
SIGNATURES = ((_P,) * 14, (_P,) * 14, (_P,) * 8,
              (_I, _I, _L, _L, _D, _P, _L, _P, _L, _D, _P, _L),
              (_I, _I, _I, _L, _L, _L, _D, _P, _L, _P, _L, _D, _P, _L))


def counted_train_pass(fail=None, at=0):
    """The loaded training pass on numpy's routines, each wrapped to count
    its calls, workspace queries included, into the pass's ``calls`` (by
    name). Call number ``at`` of the LAPACK routine ``fail`` reports a
    failure without running: info = 1 (no convergence) from gesdd or geev,
    and info = -1 (an illegal argument) from gesv, whose info = 1 (an
    exactly singular matrix) the pass handles as numpy's placement does."""
    calls, wrappers = dict.fromkeys(ROUTINES, 0), []
    for name, symbol, signature in zip(ROUTINES, (*lti_core._LAPACK, *lti_core._BLAS),
                                       SIGNATURES):
        kind = ctypes.CFUNCTYPE(None, *signature)

        def wrapper(*args, name=name, real=kind(lti_core._openblas_symbol(symbol))):
            calls[name] += 1
            if name == fail and calls[name] == at:
                ctypes.c_int64.from_address(args[-1]).value = -1 if name == "gesv" else 1
            else:
                real(*args)

        wrappers.append(kind(wrapper))
    addresses = [ctypes.cast(wrapper, ctypes.c_void_p).value for wrapper in wrappers]
    counted = learning._family_train(lti_core._c_library(), loop_family(), addresses)
    counted.calls, counted.keep_alive = calls, wrappers
    return counted


def assert_same_results(got, want):
    """Bitwise-equal parameters, logs, diagnostics and final gains of two
    lists of train results, NaN payloads aside."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert same_bits(a.params.theta, b.params.theta)
        assert log_to_jsonl(a.log) == log_to_jsonl(b.log)
        diag_a, diag_b = dict(a.diagnostics), dict(b.diagnostics)
        gain_a, gain_b = diag_a.pop("final_gain"), diag_b.pop("final_gain")
        assert diag_a == diag_b
        assert same_bits_nan_aside(gain_a, gain_b)


class TestTrainPassMatchesRoundLoop:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(args=train_batches())
    def test_bitwise(self, args):
        inits, inputs, outputs, cfg, fail, at = args
        kernel = lti_core._load_kernel()
        train_pass = kernel.train
        n, p, q = inits[0].dims
        horizon = cfg.window_start + cfg.window_len
        takes = max(p, q) <= n and 2 <= horizon <= 256
        if train_pass and fail:
            train_pass = counted_train_pass(fail, at)
        ran = []

        def recorded(*args):
            got = train_pass(*args)
            ran.append(got is not None)
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lti_core, "_kernel", replace(kernel, train=train_pass and recorded))
            got = _train_batch(inits, inputs, outputs, cfg)
            mp.setattr(lti_core, "_kernel", replace(kernel, train=False))
            loop = _train_batch(inits, inputs, outputs, cfg)
            mp.setattr(lti_core, "_kernel", lti_core._Kernel())
            numpy_only = _train_batch(inits, inputs, outputs, cfg)
        assert_same_results(got, loop)
        assert_same_results(got, numpy_only)
        # the pass runs for n = 2..4, where it declines a batch it does not
        # take, and one whose LAPACK fails
        failed = bool(fail and train_pass) and train_pass.calls[fail] >= at
        assert ran == ([takes and not failed] if train_pass and 2 <= n <= 4 else [])

    def test_pass_runs_where_a_compiler_is(self, fresh):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on this host")
        assert lti_core._load_kernel().train


def ordinary_batch(dims=(3, 2, 1), runs=4, T=260):
    """Anchors and window data of runs of one problem, for TrainConfig()."""
    n, p, q = dims
    gen = np.random.default_rng(8)
    anchor = 0.3 * gen.standard_normal((runs, n * (n + p + q + 1)))
    return dims, anchor, gen.standard_normal((runs, 251, p)), gen.standard_normal((runs, 252, q))


class TestTrainPassLoader:
    def loaded_pass(self):
        train_pass = lti_core._load_kernel().train
        if not train_pass:
            pytest.skip("the C training pass does not load on this host")
        return train_pass

    @pytest.mark.parametrize("where", ["theta", "gain", "counts", "log"])
    def test_probe_rejects_a_pass_that_moves_a_bit(self, fresh, where):
        train_pass = self.loaded_pass()

        def moved(*args):
            got = train_pass(*args)
            if got is None:
                return None
            theta, L, counts, log = (a.copy() for a in got)
            if where == "counts":
                counts[-1, 1] += 1
            else:
                a = {"theta": theta, "gain": L, "log": log}[where]
                a.flat[0] = np.nextafter(a.flat[0], np.inf)
            return theta, L, counts, log

        assert learning._train_matches_round_loop(train_pass)
        assert not learning._train_matches_round_loop(moved)

    def test_probe_rejects_a_pass_that_does_not_run(self, fresh):
        assert not learning._train_matches_round_loop(lambda *args: None)

    def test_probe_batch_takes_every_branch(self, fresh):
        # rollbacks, aborts and reused gains in every dims and mode it checks
        self.loaded_pass()
        calls = []
        learning._train_matches_round_loop(lambda *args: calls.append(args) or _round_loop(*args))
        for dims, cfg, anchor, u, y in calls:
            counts = _round_loop(dims, cfg, anchor, u, y)[2]
            assert counts[2, 1] >= 1 and counts[3, 5] == 0  # halvings; abort epoch
            if cfg.rollout_mode == "luenberger":
                assert counts[1, 3] >= 1 and counts[2, 2] == 0  # reuses; refreshes
        assert len(calls) == 10

    def test_rejected_pass_leaves_the_round_loop(self, fresh, monkeypatch):
        rejected = (learning, "_train_matches_round_loop", lambda train_pass: False)
        assert off_after(monkeypatch, rejected) == ["train"]
        dims, anchor, u, y = ordinary_batch()
        inits = [LearnableParams(*_blocks(row, *dims)) for row in anchor]
        cfg = TrainConfig(epochs=3)
        got = _train_batch(inits, list(u), list(y), cfg)
        monkeypatch.setattr(lti_core, "_kernel", lti_core._Kernel())
        assert_same_results(got, _train_batch(inits, list(u), list(y), cfg))

    @pytest.mark.parametrize("fail, at, unobservable", [
        pytest.param("gesdd", 1, False, id="gesdd-query"),
        # the first run's stack, whose certificate defers to LAPACK
        pytest.param("gesdd", 3, True, id="gesdd-deferred"),
        # the first run's solve for its gain in epoch 2
        pytest.param("gesv", 10, False, id="gesv-mid-run"),
    ])
    def test_lapack_failure_leaves_the_batch_to_the_round_loop(self, monkeypatch, fail, at,
                                                               unobservable):
        # a query or a factorization mid-run fails: the pass declines the
        # whole batch, and the round loop runs it from the start
        self.loaded_pass()
        failing = counted_train_pass(fail, at)
        dims, anchor, u, y = ordinary_batch()
        if unobservable:
            _blocks(anchor, *dims)[2][0] = 0.0
        cfg = TrainConfig(epochs=3)
        assert failing(dims, cfg, anchor, u, y) is None
        assert failing.calls[fail] == at
        inits = [LearnableParams(*_blocks(row, *dims)) for row in anchor]
        kernel = lti_core._load_kernel()
        monkeypatch.setattr(lti_core, "_kernel", replace(kernel, train=failing))
        got = _train_batch(inits, list(u), list(y), cfg)
        monkeypatch.setattr(lti_core, "_kernel", replace(kernel, train=False))
        assert_same_results(got, _train_batch(inits, list(u), list(y), cfg))

    def test_certified_tests_skip_their_lapack_calls(self):
        # ordinary runs: every observability and conditioning test is
        # certified, so gesdd runs only its two workspace queries, and most
        # placements are certified too, each without its geev of A - LC
        self.loaded_pass()
        counted = counted_train_pass()
        dims, anchor, u, y = ordinary_batch()
        cfg = TrainConfig(epochs=3)
        got = counted(dims, cfg, anchor, u, y)
        assert all(map(lti_core._same_bits, got, _round_loop(dims, cfg, anchor, u, y)))
        assert counted.calls["gesdd"] == 2
        assert counted.calls["geev"] - 1 < len(anchor) * cfg.epochs  # one query
        assert counted.calls["gesv"] == 2 * len(anchor) * cfg.epochs

    def test_rows_near_the_thresholds_take_both_paths(self):
        # runs of each kind near a threshold, bitwise the round loop's, and
        # among their tests some that certificates decide and some they leave
        # to LAPACK
        self.loaded_pass()
        gen = np.random.default_rng(12)
        dims, anchor, u, y = ordinary_batch(runs=12)
        A, _, C, _ = _blocks(anchor, *dims)
        pole = default_observer_poles(dims[0])[-1]
        for b in range(len(anchor)):
            near_threshold(gen, NEAR_THRESHOLD[b % 2], A[b], C[b], pole)
        cfg = TrainConfig(epochs=5)
        counted = counted_train_pass()
        got = counted(dims, cfg, anchor, u, y)
        assert all(map(lti_core._same_bits, got, _round_loop(dims, cfg, anchor, u, y)))
        placements = len(anchor) * cfg.epochs
        assert 2 < counted.calls["gesdd"] < 2 + placements
        assert 1 < counted.calls["geev"] < 1 + 2 * placements
