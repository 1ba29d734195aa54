"""The C time-step loop and loss pass against the numpy code they replace,
and their loaders.

``_affine_rollout`` runs the C loop of ``leo/_kernel.c`` where it builds
and passes its load-time check, and ``_numpy_rollout`` otherwise;
``_affine_adjoint`` is that rollout on M^T, and ``numpy_adjoint`` below
its numpy reference. Training amplifies last-bit differences, so the two must
agree bit for bit, including on the non-finite rows that divergence
detection reads. On a host without a C compiler the properties compare the
numpy loop with itself. The same holds for the loss pass of
``learning._stacked_loss`` against ``learning._numpy_loss``.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leo import learning, lti_core
from leo.learning import TrainConfig, _numpy_loss, _stacked_loss
from leo.lti_core import _affine_adjoint, _affine_rollout, _numpy_rollout

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


@pytest.fixture
def fresh(monkeypatch, tmp_path):
    """Loaders that have not run yet, with their cache under tmp_path."""
    monkeypatch.setattr(lti_core, "_c_loop", None)
    monkeypatch.setattr(learning, "_c_pass", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    return tmp_path / "leo"


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
    def test_each_family_on_the_openblas_core_it_names(self, core, family, tmp_path):
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
        env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(tmp_path),
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

    def test_no_compiler(self, fresh, monkeypatch):
        monkeypatch.setenv("PATH", "")
        self.check_numpy_fallback()
        assert list(fresh.iterdir()) == []  # no temp file left behind

    def test_unwritable_cache(self, fresh, monkeypatch):
        fresh.parent.joinpath("not-a-dir").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(fresh.parent / "not-a-dir"))
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

    def test_concurrent_first_builds_share_one_library(self, fresh):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on this host")
        env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(fresh.parent))
        code = "from leo.lti_core import kernel_name; print(kernel_name())"
        procs = [subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                                  text=True) for _ in range(3)]
        outputs = [proc.communicate(timeout=240)[0].strip() for proc in procs]
        assert outputs == ["c"] * 3
        assert [p.suffix for p in fresh.iterdir()] == [".so"]


def test_import_loads_neither_scipy_linalg_nor_the_kernel(tmp_path):
    # and loading the kernel later imports no scipy.linalg either
    code = (
        "import os, sys, leo\n"
        "loaded = [m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "assert leo.lti_core._c_loop is None\n"
        f"assert os.listdir({str(tmp_path)!r}) == []\n"
        "leo.lti_core.kernel_name()\n"
        "assert 'scipy.linalg' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(tmp_path))
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
    def test_each_family_on_the_openblas_core_it_names(self, core, family, tmp_path):
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
        env = dict(os.environ, PYTHONPATH=str(SRC), XDG_CACHE_HOME=str(tmp_path),
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
