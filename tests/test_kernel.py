"""The C time-step loop, loss pass and placement pass against the numpy
code they replace, and their loaders.

``_affine_rollout`` runs the C loop of ``leo/_kernel.c`` where it builds
and passes its load-time check, and ``_numpy_rollout`` otherwise;
``_affine_adjoint`` is that rollout on M^T, and ``numpy_adjoint`` below
its numpy reference. Training amplifies last-bit differences, so the two must
agree bit for bit, including on the non-finite rows that divergence
detection reads. On a host without a C compiler the properties compare the
numpy loop with itself. The same holds for the loss pass of
``learning._stacked_loss`` against ``learning._numpy_loss``, and for the
placement pass of ``observer._place_poles`` against
``observer._numpy_place``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leo import learning, lti_core, observer
from leo.learning import TrainConfig, _numpy_loss, _stacked_loss
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

    @pytest.mark.parametrize("core, family", [("Haswell", "hsw"), ("Sandybridge", "seq")])
    def test_each_family_on_the_openblas_core_it_names(self, core, family, kernel_cache):
        # OpenBLAS picks its dgemv kernel by core at run time; each order
        # family must match the cores it names, not only this host's own
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on this host")
        if not openblas_can_run_avx2_cores():
            pytest.skip("numpy's BLAS cannot run OpenBLAS's AVX2 cores here")
        code = (
            "import numpy as np\n"
            "from leo import lti_core as lc\n"
            "assert lc.kernel_name() == 'c'\n"
            "lib = lc._build_c_library()\n"
            "print(*(name for f, name in enumerate(lc._FAMILIES)\n"
            "        if lc._matches_numpy(lc._family_loop(lib, f))))\n"
            "gen = np.random.default_rng(3)\n"
            "for n in range(1, 5):\n"
            "    M, x0 = gen.standard_normal((7, n, n)), gen.standard_normal((7, n))\n"
            "    f, d = gen.standard_normal((7, 300, n)), gen.standard_normal((7, 301, n))\n"
            "    M[0], x0[0] = -0.0, -0.0\n"
            "    for S in (M, M.transpose(0, 2, 1)):\n"
            "        ref = lc._numpy_rollout(S, x0, f)\n"
            "        assert lc._affine_rollout(S, x0, f).tobytes() == ref.tobytes()\n"
            "        back = lc._numpy_rollout(S.transpose(0, 2, 1), d[:, -1], d[:, -2::-1])\n"
            "        assert lc._affine_adjoint(S, d).tobytes() == back[:, ::-1].tobytes()\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(kernel_cache),
                   OPENBLAS_CORETYPE=core)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=240)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [family]


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


class TestLoader:
    def check_numpy_fallback(self):
        # pytest turns warnings into errors: the fallback must emit none
        gen = np.random.default_rng(5)
        M, x0 = gen.standard_normal((3, 2, 2)), gen.standard_normal((3, 2))
        forcing, direct = gen.standard_normal((3, 9, 2)), gen.standard_normal((3, 10, 2))
        assert lti_core.kernel_name() == "numpy"
        assert same_bits(_affine_rollout(M, x0, forcing), _numpy_rollout(M, x0, forcing))
        assert same_bits(_affine_adjoint(M, direct), numpy_adjoint(M, direct))

    def test_forced_fallback(self, monkeypatch):
        monkeypatch.setattr(lti_core, "_c_loop", False)
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
        loop = lti_core._load_c_loop()
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


def test_import_loads_neither_scipy_linalg_nor_the_kernel(kernel_cache):
    # no loader runs and the cache is untouched on import, and loading the
    # kernel and the passes later imports no scipy.linalg either
    cache = kernel_cache / "leo"
    code = (
        "import os, sys, leo\n"
        "loaded = [m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "assert leo.lti_core._c_loop is None and leo.learning._c_pass is None\n"
        "assert leo.observer._c_place is None and leo.lti_core._openblas_handle is None\n"
        f"assert os.listdir({str(cache)!r}) == {os.listdir(cache)!r}\n"
        "leo.lti_core.kernel_name()\n"
        "leo.learning._load_c_pass()\n"
        "leo.observer._load_c_place()\n"
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
        loss_pass = learning._load_c_pass()
        horizon = cfg.window_start + cfg.window_len
        if loss_pass and 2 <= dims[0] <= 4 and 2 <= horizon <= 256:
            assert loss_pass(*args) is not None  # the pass ran

    def test_pass_runs_where_a_compiler_is(self, fresh):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on this host")
        assert learning._load_c_pass()

    @pytest.mark.parametrize("core, family", [("Haswell", "hsw"), ("Sandybridge", "seq")])
    def test_each_family_on_the_openblas_core_it_names(self, core, family, kernel_cache):
        # the pass's products follow the BLAS core's own orders, so each
        # family must match the cores it names, not only this host's own
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on this host")
        if not openblas_can_run_avx2_cores():
            pytest.skip("numpy's BLAS cannot run OpenBLAS's AVX2 cores here")
        code = (
            "import numpy as np\n"
            "from leo import learning as lg, lti_core as lc\n"
            "from leo.learning import TrainConfig\n"
            "lib = lc._build_c_library()\n"
            "print(*(name for f, name in enumerate(lc._FAMILIES)\n"
            "        if lg._pass_matches_numpy(lg._family_pass(lib, f))))\n"
            "loss_pass = lg._load_c_pass()\n"
            "gen = np.random.default_rng(3)\n"
            "for n, p, q in ((2, 1, 1), (3, 2, 1), (4, 3, 2), (4, 4, 3), (4, 4, 4)):\n"
            "    for mode in ('luenberger', 'open_loop'):\n"
            "        size = n * (n + p + q + 1)\n"
            "        theta = 0.3 * gen.standard_normal((5, size))\n"
            "        args = ((n, p, q), TrainConfig(rollout_mode=mode), theta,\n"
            "                theta + 0.01 * gen.standard_normal((5, size)),\n"
            "                gen.standard_normal((5, 251, p)), gen.standard_normal((5, 252, q)),\n"
            "                0.1 * gen.standard_normal((5, n, q)) if mode == 'luenberger' else None)\n"
            "        got, want = loss_pass(*args, True), lg._numpy_loss(*args, True)\n"
            "        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(kernel_cache),
                   OPENBLAS_CORETYPE=core)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=240)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [family]


class TestLossPassLoader:
    def loaded_pass(self):
        loss_pass = learning._load_c_pass()
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
        monkeypatch.setattr(learning, "_pass_matches_numpy", lambda loss_pass: False)
        gen = np.random.default_rng(4)
        args = ((2, 1, 1), TrainConfig(), gen.standard_normal((3, 10)),
                gen.standard_normal((3, 10)), gen.standard_normal((3, 251, 1)),
                gen.standard_normal((3, 252, 1)), 0.1 * gen.standard_normal((3, 2, 1)))
        assert learning._load_c_pass() is False
        for got, want in zip(_stacked_loss(*args), _numpy_loss(*args)):
            assert same_bits(got, want)


# Entry magnitudes of the extreme rows of ``placement_stacks``: subnormal,
# tiny, ordinary and huge.
EXTREMES = (0.0, 5e-324, 1e-310, 1e-300, 1e-3, 1.0, 1e150, 1e300, 1.7e308)


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
    kinds = st.sampled_from(["ordinary", "unobservable", "shared eigenvalue", "in place",
                             "singular operator", "subnormal C", "extreme"])
    for b, kind in enumerate(draw(st.lists(kinds, min_size=batch, max_size=batch))):
        if kind == "unobservable":
            C[b] = 0.0
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
        place = observer._load_c_place()  # before the patch: the probe runs unpatched
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
        assert observer._load_c_place()

    @pytest.mark.parametrize("core, family", [("Haswell", "hsw"), ("Sandybridge", "seq")])
    def test_each_family_on_the_openblas_core_it_names(self, core, family, kernel_cache):
        # the pass's products follow the BLAS core's own orders, so the
        # family it loads must be the one the core names, and match there
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on this host")
        if not openblas_can_run_avx2_cores():
            pytest.skip("numpy's BLAS cannot run OpenBLAS's AVX2 cores here")
        code = (
            "import numpy as np\n"
            "from leo import lti_core as lc, observer as ob\n"
            "place = ob._load_c_place()\n"
            "print(lc._FAMILIES[place.family])\n"
            "gen = np.random.default_rng(3)\n"
            "for n, q in ((2, 1), (3, 1), (3, 2), (4, 2), (4, 4)):\n"
            "    poles = ob._checked_poles(ob.default_observer_poles(n), n)\n"
            "    A, C = gen.standard_normal((40, n, n)), gen.standard_normal((40, q, n))\n"
            "    got, want = place(A, C, poles), ob._numpy_place(A, C, poles)\n"
            "    assert all(lc._same_bits(a, b) for a, b in zip(got, want))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(kernel_cache),
                   OPENBLAS_CORETYPE=core)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=240)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [family]


class TestPlacementPassLoader:
    def loaded_pass(self):
        place = observer._load_c_place()
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
        if failure == "probe":
            monkeypatch.setattr(observer, "_place_matches_numpy", lambda place: False)
        else:
            monkeypatch.setattr(observer, "_LAPACK", ("scipy_dgesdd_64_", "no_such_routine_"))
        gen = np.random.default_rng(5)
        A, C = gen.standard_normal((4, 3, 3)), gen.standard_normal((4, 1, 3))
        C[2] = 0.0
        poles = _checked_poles(default_observer_poles(3), 3)
        assert observer._load_c_place() is False
        for got, want in zip(_place_poles(A, C, poles), _numpy_place(A, C, poles)):
            assert same_bits_nan_aside(got, want)

    def test_sizes_the_pass_does_not_take(self, monkeypatch):
        # n = 1 and n >= 5 never call the pass; q > n makes it decline
        def refuse(A, C, desired):
            raise AssertionError("the C placement pass ran")

        place = self.loaded_pass()
        monkeypatch.setattr(observer, "_c_place", refuse)
        gen = np.random.default_rng(6)
        for n in (1, 5):
            A, C = gen.standard_normal((3, n, n)), gen.standard_normal((3, 2, n))
            _place_poles(A, C, _checked_poles(default_observer_poles(n), n))
        A, C = gen.standard_normal((3, 2, 2)), gen.standard_normal((3, 3, 2))
        assert place(A, C, _checked_poles(default_observer_poles(2), 2)) is None
