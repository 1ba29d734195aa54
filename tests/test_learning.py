import json
import warnings
from collections import defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import leo.learning
import leo.lti_core
import leo.observer
from leo.exceptions import DivergedRollout, ShapeError
from leo.learning import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    LearnableParams,
    LossBreakdown,
    TrainConfig,
    TrainResult,
    gradient,
    lambda_coefficients,
    log_to_jsonl,
    loss,
    train,
    _NON_FINITE,
    _adam_update,
    _blocks,
    _stacked_loss,
    _train_runs,
    _window_data,
)
from leo.lti_core import (
    LtiParams,
    NoiseRealization,
    RngStream,
    random_system,
    simulate_true,
    _affine_adjoint,
    _affine_rollout,
)
from leo.observer import (
    NOT_PLACED,
    PLACED,
    UNOBSERVABLE,
    default_observer_poles,
    place_observer_poles,
    _checked_poles,
    _gain_matrix,
)

A_REAL = np.array([[1.02, 0.68], [-0.68, 0.34]])
B_REAL = np.array([[1.5], [0.7]])
C_REAL = np.array([[1.0, 0.0]])
X0_REAL = np.array([0.4617, 0.2674])
A_INIT = np.array([[1.0368, 0.6864], [-0.6683, 0.3515]])
B_INIT = np.array([[1.4439], [0.6907]])
C_INIT = np.array([[1.1104, -0.0319]])
X0_INIT = np.array([5.8107, 8.3609])

FIELDS = ("A_hat", "B_hat", "C_hat", "x0_hat")

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


def random_params(gen, dims, scale=1.0):
    """Parameters with standard normal entries times ``scale``."""
    n, p, q = dims
    return LearnableParams(
        A_hat=scale * gen.standard_normal((n, n)),
        B_hat=scale * gen.standard_normal((n, p)),
        C_hat=scale * gen.standard_normal((q, n)),
        x0_hat=scale * gen.standard_normal(n),
    )


def adam_step_per_tensor(m, v, step, params, grads, lr, weight_decay):
    """The per-tensor Adam loop over dict moments that the one vector update
    replaced; kept as the reference it must equal bit for bit."""
    t = step + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    new_m, new_v, new_p = {}, {}, {}
    for key in FIELDS:
        p, g = getattr(params, key), getattr(grads, key)
        mk = b1 * m[key] + (1 - b1) * g
        vk = b2 * v[key] + (1 - b2) * np.square(g)
        m_hat = mk / (1 - b1**t)
        v_hat = vk / (1 - b2**t)
        new_p[key] = p * (1 - lr * weight_decay) - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        new_m[key], new_v[key] = mk, vk
    return new_m, new_v, new_p


def loss_and_gradient_reference(params, gain, inputs, measured_outputs, cfg, init, want_gradient):
    """The per-run loss and gradient body that the stacked loss replaced,
    with its rollout and adjoint as one-run kernel calls; kept as the
    reference it must equal bit for bit. Returns ``(breakdown, grads or
    None)`` or raises."""
    n, p, q = params.dims
    k0, K = cfg.window_start, cfg.window_len
    inputs = np.asarray(inputs, dtype=float).reshape(-1, p)
    measured = np.asarray(measured_outputs, dtype=float).reshape(-1, q)
    T = inputs.shape[0]
    if k0 + K > T:
        raise ShapeError(f"steady-state window [{k0}, {k0 + K}] exceeds horizon {T}")
    if measured.shape[0] <= k0 + K:
        raise ShapeError("not enough measured outputs for the window")
    inputs, measured = inputs[: k0 + K], measured[: k0 + K + 1]
    L = None if cfg.rollout_mode == "open_loop" else _gain_matrix(gain, n, q)
    anchor = init if init is not None else params
    lam_A, lam_B, lam_C = cfg.resolved_lambdas(n, p, q)

    M = params.A_hat if L is None else params.A_hat - L @ params.C_hat
    forcing = inputs @ params.B_hat.T
    if L is not None:
        forcing += measured[:-1] @ L.T
    with np.errstate(over="ignore", invalid="ignore"):
        states = _affine_rollout(M[None], params.x0_hat[None], forcing[None])[0]
    finite = np.all(np.isfinite(states), axis=1)
    if not finite.all():
        raise DivergedRollout(int(np.argmax(~finite)))
    window = slice(k0, k0 + K + 1)
    residuals = measured[window] - states[window] @ params.C_hat.T
    data_term = float(np.abs(residuals).mean(axis=1).sum() / K)

    dA, dB, dC, _ = _blocks(params.theta - anchor.theta, n, p, q)
    reg_A = float(np.abs(dA).mean())
    reg_B = float(np.abs(dB).mean())
    reg_C = float(np.abs(dC).mean())
    breakdown = LossBreakdown(
        data_term=data_term,
        reg_A=reg_A,
        reg_B=reg_B,
        reg_C=reg_C,
        total=data_term + lam_A * reg_A + lam_B * reg_B + lam_C * reg_C,
    )
    if not want_gradient:
        return breakdown, None

    S = np.zeros_like(measured)
    S[window] = np.sign(residuals) / (K * q)
    adj = _affine_adjoint(M[None], (-S @ params.C_hat)[None])[0]

    gA = adj[1:].T @ states[:-1]
    gB = adj[1:].T @ inputs
    gC = -(S.T @ states)
    if L is not None:
        gC -= L.T @ gA

    gA += lam_A * np.sign(dA) / dA.size
    gB += lam_B * np.sign(dB) / dB.size
    gC += lam_C * np.sign(dC) / dC.size
    theta = np.concatenate((gA, gB, gC, adj[0]), axis=None)
    return breakdown, LearnableParams(*_blocks(theta, n, p, q))


def flat(fields: dict) -> np.ndarray:
    """The per-field arrays in parameter-vector order."""
    return np.concatenate([fields[key] for key in FIELDS], axis=None)


def make_instance(seed, dims, x0_offset=10.0, noise=0.1, T=260):
    """One simulated dataset plus nominal initialization."""
    n, p, q = dims
    gen = RngStream(seed).generator()
    sys = random_system(n, p, q, gen)
    inputs = gen.normal(0, 1, (T, p))
    nr = NoiseRealization(
        w=gen.normal(0, 1, (T, n)) * noise, v=gen.normal(0, 1, (T + 1, q)) * noise
    )
    traj = simulate_true(sys, inputs, nr, T)
    x0_hat = sys.x0_real + gen.normal(0, x0_offset, n)
    init = LearnableParams.from_lti(sys.nominal(), x0_hat)
    return sys, inputs, traj, init


class TestLambdaCoefficients:
    def test_small_case(self):
        la, lb, lc = lambda_coefficients(2, 1, 1)
        assert la == pytest.approx(5e-4)
        assert lb == pytest.approx(2.5e-4)
        assert lc == pytest.approx(2.5e-4)

    def test_sum_identity(self):
        gen = np.random.default_rng(0)
        for _ in range(20):
            n, p, q = (int(gen.integers(1, 9)) for _ in range(3))
            assert sum(lambda_coefficients(n, p, q)) == pytest.approx(1e-3, abs=1e-18)

    def test_larger_case(self):
        la, _, _ = lambda_coefficients(4, 4, 3)
        assert la == pytest.approx(1e-3 * 16 / 44)


class TestLoss:
    def test_reg_terms_zero_at_anchor(self):
        sys, inputs, traj, init = make_instance(1, (2, 1, 1))
        gain = place_observer_poles(init.A_hat, init.C_hat, default_observer_poles(2))
        out = loss(init, gain, inputs, traj.outputs, TrainConfig(), init=init)
        assert out.reg_A == 0.0 and out.reg_B == 0.0 and out.reg_C == 0.0
        assert out.total == out.data_term

    def test_perfect_model_zero_data_term(self):
        # rounding differs between the simulator and the observer recursion,
        # so "zero" means machine-epsilon accumulation here
        sys, inputs, traj, _ = make_instance(2, (2, 1, 1), noise=0.0)
        exact = LearnableParams.from_lti(sys.real, sys.x0_real)
        gain = place_observer_poles(sys.real.A, sys.real.C, default_observer_poles(2))
        out = loss(exact, gain, inputs, traj.outputs, TrainConfig(), init=exact)
        assert out.data_term < 1e-12

    def test_matches_straight_line_reimplementation(self):
        # bundled showcase matrices, seeded noise; oracle coded from scratch
        sys_real = LtiParams(A=A_REAL, B=B_REAL, C=C_REAL)
        gen = RngStream(99).generator()
        T, k0, K = 260, 201, 50
        inputs = gen.normal(0, 1, (T, 1))
        w = gen.normal(0, 0.1, (T, 2))
        v = gen.normal(0, 0.1, (T + 1, 1))
        x = X0_REAL.copy()
        ys = []
        for k in range(T):
            ys.append(C_REAL @ x + v[k])
            x = A_REAL @ x + B_REAL @ inputs[k] + w[k]
        ys.append(C_REAL @ x + v[T])
        measured = np.array(ys)

        params = LearnableParams(A_hat=A_INIT, B_hat=B_INIT, C_hat=C_INIT, x0_hat=X0_INIT)
        init = LearnableParams(
            A_hat=A_REAL, B_hat=B_REAL, C_hat=C_REAL, x0_hat=X0_INIT
        )
        gain = place_observer_poles(A_INIT, C_INIT, default_observer_poles(2))
        cfg = TrainConfig()
        out = loss(params, gain, inputs, measured, cfg, init=init)

        # independent evaluation: observer recursion + windowed mean abs
        L = gain
        xh = X0_INIT.copy()
        data = 0.0
        for k in range(k0 + K + 1):
            if k >= k0:
                data += np.abs(measured[k] - C_INIT @ xh).mean()
            xh = A_INIT @ xh + B_INIT @ inputs[k] + L @ (measured[k] - C_INIT @ xh)
        data /= K
        lam = lambda_coefficients(2, 1, 1)
        expected = (
            data
            + lam[0] * np.abs(A_INIT - A_REAL).mean()
            + lam[1] * np.abs(B_INIT - B_REAL).mean()
            + lam[2] * np.abs(C_INIT - C_REAL).mean()
        )
        assert out.total == pytest.approx(expected, abs=1e-12)

    def test_window_must_fit_horizon(self):
        sys, inputs, traj, init = make_instance(3, (2, 1, 1), T=100)
        with pytest.raises(Exception):
            loss(init, None, inputs, traj.outputs, TrainConfig(rollout_mode="open_loop"))

    def test_diverged_rollout_reports_first_bad_step(self):
        params = LearnableParams(
            A_hat=[[100.0]], B_hat=[[0.0]], C_hat=[[1.0]], x0_hat=[1.0]
        )
        inputs = np.zeros((300, 1))
        measured = np.zeros((301, 1))
        cfg = TrainConfig(rollout_mode="open_loop")
        with pytest.raises(DivergedRollout) as exc:
            loss(params, None, inputs, measured, cfg)
        assert 0 < exc.value.step <= 300


class TestNonFiniteData:
    """Data up to the window's end must be finite: a NaN or inf there is a
    configuration error, never a diverged rollout; after it, data is unused."""

    CFG = TrainConfig(epochs=2)

    def calls(self, init, inputs, measured):
        gain = np.zeros((init.dims[0], init.dims[2]))
        return {
            "train": lambda: train(init, inputs, measured, self.CFG),
            "loss": lambda: loss(init, gain, inputs, measured, self.CFG),
            "gradient": lambda: gradient(init, gain, inputs, measured, self.CFG),
        }

    @pytest.mark.parametrize("where", ["inputs", "measured"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", ["train", "loss", "gradient"])
    def test_inside_the_cut_is_a_shape_error(self, where, bad, call):
        _, inputs, traj, init = make_instance(3, (2, 1, 1))
        data = {"inputs": inputs.copy(), "measured": traj.outputs.copy()}
        # the window's first step, and the last row each array contributes
        last = self.CFG.window_start + self.CFG.window_len - (where == "inputs")
        for row in (self.CFG.window_start, last):
            data[where][row, 0] = bad
            with pytest.raises(ShapeError, match="not all finite"):
                self.calls(init, data["inputs"], data["measured"])[call]()
            data[where][row, 0] = 0.0

    def test_after_the_cut_is_ignored(self):
        _, inputs, traj, init = make_instance(3, (2, 1, 1))
        end = self.CFG.window_start + self.CFG.window_len
        bad_inputs, bad_measured = inputs.copy(), traj.outputs.copy()
        bad_inputs[end:], bad_measured[end + 1 :] = np.nan, np.inf
        clean = self.calls(init, inputs, traj.outputs)
        dirty = self.calls(init, bad_inputs, bad_measured)
        assert dirty["loss"]() == clean["loss"]()
        assert np.array_equal(dirty["gradient"]().theta, clean["gradient"]().theta)
        got, want = dirty["train"](), clean["train"]()
        assert not got.diagnostics["aborted"]
        assert np.array_equal(got.params.theta, want.params.theta) and got.log == want.log


class TestGradient:
    @pytest.mark.parametrize("mode", ["luenberger", "open_loop"])
    @pytest.mark.parametrize("seed,dims", [(1, (2, 1, 1)), (2, (3, 2, 1)), (3, (4, 3, 2))])
    def test_matches_central_finite_differences(self, mode, seed, dims):
        n, p, q = dims
        sys, inputs, traj, init = make_instance(seed, dims)
        gen = RngStream(seed, (100,)).generator()
        params = LearnableParams(
            A_hat=init.A_hat + gen.normal(0, 0.01, (n, n)),
            B_hat=init.B_hat + gen.normal(0, 0.01, (n, p)),
            C_hat=init.C_hat + gen.normal(0, 0.01, (q, n)),
            x0_hat=init.x0_hat + gen.normal(0, 0.1, n),
        )
        cfg = TrainConfig(rollout_mode=mode)
        gain = (
            place_observer_poles(init.A_hat, init.C_hat, default_observer_poles(n))
            if mode == "luenberger"
            else None
        )
        grads = gradient(params, gain, inputs, traj.outputs, cfg, init=init)
        h = 1e-6
        for field in FIELDS:
            arr = getattr(params, field)
            g = np.atleast_1d(getattr(grads, field))
            for idx in np.ndindex(arr.shape):
                kw = {f: getattr(params, f).copy() for f in FIELDS}
                kw[field][idx] += h
                up = loss(LearnableParams(**kw), gain, inputs, traj.outputs, cfg, init=init).total
                kw[field][idx] -= 2 * h
                dn = loss(LearnableParams(**kw), gain, inputs, traj.outputs, cfg, init=init).total
                fd = (up - dn) / (2 * h)
                assert abs(g[idx] - fd) <= max(1e-4 * abs(fd), 1e-8)

    def test_stationary_at_exact_zero_residuals(self):
        # residuals that are exactly 0.0 contribute nothing (sign(0) = 0);
        # a zero system keeps every residual bitwise zero
        exact = LearnableParams(
            A_hat=np.zeros((2, 2)), B_hat=np.zeros((2, 1)),
            C_hat=[[1.0, 0.0]], x0_hat=np.zeros(2),
        )
        gen = RngStream(5).generator()
        inputs = gen.normal(0, 1, (260, 1))
        measured = np.zeros((261, 1))
        g = gradient(exact, np.zeros((2, 1)), inputs, measured, TrainConfig(), init=exact)
        for field in FIELDS:
            assert_allclose(getattr(g, field), 0.0, atol=0)

    def test_regularizer_separability(self):
        sys, inputs, traj, init = make_instance(6, (2, 1, 1))
        perturbed = LearnableParams(
            A_hat=init.A_hat,
            B_hat=init.B_hat + 0.05,
            C_hat=init.C_hat,
            x0_hat=init.x0_hat,
        )
        gain = place_observer_poles(init.A_hat, init.C_hat, default_observer_poles(2))
        cfg = TrainConfig()
        out = loss(perturbed, gain, inputs, traj.outputs, cfg, init=init)
        assert out.reg_A == 0.0 and out.reg_C == 0.0 and out.reg_B > 0.0


class TestAdamStep:
    def first_step(self, value, g, lr, weight_decay=0.0):
        """θ, m and v after a first step from zero moments, as one row of the
        (1, 1, 1) parameter vector with θ and g filled with ``value`` and ``g``."""
        theta, m, v = _adam_update(
            np.full((1, 4), value), np.zeros((1, 4)), np.zeros((1, 4)), np.full((1, 4), g),
            [1], [lr], weight_decay,
        )
        return theta[0], m[0], v[0]

    def test_zero_gradient_no_decay(self):
        theta, m, v = self.first_step(0.7, 0.0, lr=1e-3)
        assert_allclose(theta, 0.7)
        assert not m.any() and not v.any()

    def test_first_step_magnitude(self):
        # constant unit gradient: bias corrections cancel, update ~ -lr
        lr = 1e-3
        theta, _, _ = self.first_step(0.0, 1.0, lr)
        assert theta[0] == pytest.approx(-lr / (1.0 + 1e-8), rel=1e-12)

    def test_deterministic(self):
        args = (
            np.full((1, 4), 0.3), np.zeros((1, 4)), np.zeros((1, 4)),
            np.array([[0.2, -0.4, 0.1, 0.7]]), [1], [1e-3], 1e-5,
        )
        for first, second in zip(_adam_update(*args), _adam_update(*args)):
            assert first.tobytes() == second.tobytes()

    def test_decoupled_decay_shrinks_params(self):
        theta, _, _ = self.first_step(1.0, 0.0, lr=0.1, weight_decay=0.01)
        assert theta[0] == pytest.approx(1.0 - 0.1 * 0.01)


class TestAdamStepMatchesPerTensorLoop:
    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        rows=st.lists(
            st.tuples(st.integers(0, 299), st.floats(1e-8, 10.0)), min_size=1, max_size=5
        ),
        weight_decay=st.floats(0.0, 0.1),
        scale=st.sampled_from([1e-6, 1.0, 1e3]),
    )
    def test_bitwise_equal(self, seed, dims, rows, weight_decay, scale):
        # a stack of rows, each at its own step and learning rate
        gen = np.random.default_rng(seed)
        draws = [[random_params(gen, dims, s) for s in (1.0, scale, scale, scale**2)]
                 for _ in rows]
        theta, g, m, v = (np.stack([d[k].theta for d in draws]) for k in range(4))
        got_theta, got_m, got_v = _adam_update(
            theta, m, np.abs(v), g, [step + 1 for step, _ in rows], [lr for _, lr in rows],
            weight_decay,
        )
        for r, ((step, lr), (params, grads, m_r, v_r)) in enumerate(zip(rows, draws)):
            want_m, want_v, want_p = adam_step_per_tensor(
                {key: getattr(m_r, key) for key in FIELDS},
                {key: np.abs(getattr(v_r, key)) for key in FIELDS},
                step, params, grads, lr, weight_decay,
            )
            assert got_m[r].tobytes() == flat(want_m).tobytes()
            assert got_v[r].tobytes() == flat(want_v).tobytes()
            assert got_theta[r].tobytes() == flat(want_p).tobytes()


class TestLearnableParams:
    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
    )
    def test_fields_are_read_only_views_of_theta(self, seed, dims):
        params = random_params(np.random.default_rng(seed), dims)
        assert params.dims == dims
        assert np.array_equal(
            params.theta, np.concatenate([getattr(params, key) for key in FIELDS], axis=None)
        )
        for key in FIELDS:
            block = getattr(params, key)
            assert np.shares_memory(block, params.theta)
            with pytest.raises(ValueError, match="read-only"):
                block[...] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            params.theta[0] = 0.0

    def test_training_outputs_are_read_only(self):
        sys, inputs, traj, init = make_instance(1, (2, 1, 1))
        gain = place_observer_poles(init.A_hat, init.C_hat, default_observer_poles(2))
        grads = gradient(init, gain, inputs, traj.outputs, TrainConfig(), init=init)
        trained = train(init, inputs, traj.outputs, TrainConfig(epochs=2)).params
        for params in (grads, trained):
            with pytest.raises(ValueError, match="read-only"):
                params.A_hat[0, 0] = 1.0

    @pytest.mark.parametrize(
        "key, value",
        [
            ("A_hat", [1.0, 0.0]),
            ("B_hat", [1.0, 0.5]),
            ("C_hat", [1.0, 0.0]),
            ("C_hat", [[[1.0, 0.0]]]),
            ("B_hat", [[1.0], [0.5], [0.2]]),
            ("x0_hat", [0.0, 0.0, 0.0]),
            ("x0_hat", [np.nan, 0.0]),
            ("A_hat", [[1.0, np.inf], [0.0, 1.0]]),
        ],
    )
    def test_malformed_fields_rejected(self, key, value):
        kw = dict(A_hat=np.eye(2), B_hat=[[1.0], [0.5]], C_hat=[[1.0, 0.0]], x0_hat=[0.0, 0.0])
        kw[key] = value
        with pytest.raises(ShapeError):
            LearnableParams(**kw)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            {"lr0": float("nan")},
            {"lr0": float("inf")},
            {"decay_factor": float("nan")},
            {"decay_factor": float("inf")},
            {"weight_decay": float("nan")},
            {"weight_decay": float("inf")},
            {"lambda_A": float("nan")},
            {"lambda_B": -1e-3},
            {"lambda_C": float("inf")},
            {"epochs": 3.0},
            {"decay_every": 200.5},
            {"window_start": 201.0},
            {"window_len": 50.5},
        ],
    )
    def test_invalid_values_rejected(self, bad):
        with pytest.raises(ValueError):
            TrainConfig(**bad)

    def test_boundary_values_accepted(self):
        cfg = TrainConfig(epochs=np.int64(0), weight_decay=0.0, lambda_A=0.0)
        assert cfg.resolved_lambdas(2, 1, 1)[0] == 0.0

    def test_conditioning_threshold_is_gone(self):
        with pytest.raises(TypeError, match="conditioning_threshold"):
            TrainConfig(conditioning_threshold=1e8)

    def test_learning_rate_where_the_decay_leaves_the_floats(self):
        # 10.0 ** 309 overflows: the rate is the quotient, subnormal, then 0.0
        cfg = TrainConfig(decay_every=1)
        assert cfg.lr_at(308) == 1e-4 / 10.0**308
        assert cfg.lr_at(309) == 1e-313
        assert cfg.lr_at(330) == 0.0
        # 0.5 ** 1075 underflows to 0.0: a rising rate overflows instead
        assert TrainConfig(decay_every=1, decay_factor=0.5).lr_at(1075) == np.inf

    @pytest.mark.parametrize("path", ["train pass", "round loop"])
    def test_training_past_the_decay_float_range(self, request, path):
        if path == "round loop":
            request.getfixturevalue("round_loop")
        _, inputs, traj, init = make_instance(3, (2, 1, 1))
        res = train(init, inputs, traj.outputs, TrainConfig(decay_every=1, epochs=400))
        assert len(res.log) == 400
        assert res.log[309]["lr"] == 1e-313 and res.log[-1]["lr"] == 0.0


class TestTrain:
    def test_fixed_point_without_weight_decay(self):
        # exact model and measurements generated by the same rollout code:
        # residuals stay bitwise zero, so with weight decay off nothing moves
        from leo.lti_core import _affine_rollout

        gen = RngStream(4).generator()
        sys = random_system(2, 1, 1, gen)
        exact = LearnableParams.from_lti(sys.real, sys.x0_real)
        inputs = gen.normal(0, 1, (260, 1))
        forcing = inputs @ exact.B_hat.T
        states = _affine_rollout(exact.A_hat[None], exact.x0_hat[None], forcing[None])[0]
        measured = states @ exact.C_hat.T
        cfg = TrainConfig(epochs=50, weight_decay=0.0, rollout_mode="open_loop")
        res = train(exact, inputs, measured, cfg)
        assert all(entry["loss_total"] <= 1e-10 for entry in res.log)
        for field in FIELDS:
            assert_allclose(getattr(res.params, field), getattr(exact, field), atol=0)

    def test_near_fixed_point_with_luenberger_rollout(self):
        # exact model + zero noise: data term stays at rounding level even
        # though the closed-loop recursion rounds differently
        sys, inputs, traj, _ = make_instance(4, (2, 1, 1), noise=0.0)
        exact = LearnableParams.from_lti(sys.real, sys.x0_real)
        cfg = TrainConfig(epochs=20, weight_decay=0.0)
        res = train(exact, inputs, traj.outputs, cfg)
        assert res.log[0]["loss_total"] < 1e-12

    def test_default_decay_keeps_params_near_anchor(self):
        sys, inputs, traj, _ = make_instance(4, (2, 1, 1), noise=0.0)
        exact = LearnableParams.from_lti(sys.real, sys.x0_real)
        res = train(exact, inputs, traj.outputs, TrainConfig(epochs=80))
        # Adam reacts to the weight-decay drift at the lr scale
        assert np.abs(res.params.A_hat - exact.A_hat).max() < 1e-3

    def test_schedule_and_log_shape(self):
        sys, inputs, traj, init = make_instance(7, (2, 1, 1))
        cfg = TrainConfig(epochs=210)
        res = train(init, inputs, traj.outputs, cfg)
        assert len(res.log) == 210
        assert res.log[0]["lr"] == pytest.approx(cfg.lr0)
        assert res.log[199]["lr"] == pytest.approx(cfg.lr0)
        assert res.log[200]["lr"] == pytest.approx(cfg.lr0 / 10)
        assert all(entry["L_refreshed"] for entry in res.log)
        lines = log_to_jsonl(res.log).strip().split("\n")
        assert len(lines) == 210
        parsed = json.loads(lines[0])
        assert set(parsed) == {
            "epoch", "loss_total", "loss_data", "reg_A", "reg_B", "reg_C", "lr", "L_refreshed",
        }

    def test_showcase_fixture_improves_closed_loop(self):
        from leo.experiments import normalized_error
        from leo.observer import run_luenberger

        real = LtiParams(A=A_REAL, B=B_REAL, C=C_REAL)
        nominal = LtiParams(A=A_INIT, B=B_INIT, C=C_INIT)
        gen = RngStream(0).generator()
        T = 260
        inputs = gen.normal(0, 1, (T, 1))
        nr = NoiseRealization(w=gen.normal(0, 0.1, (T, 2)), v=gen.normal(0, 0.1, (T + 1, 1)))
        from leo.lti_core import TrueSystem

        sys = TrueSystem(
            real=real,
            delta_A=real.A - nominal.A,
            delta_B=real.B - nominal.B,
            delta_C=real.C - nominal.C,
            x0_real=X0_REAL,
        )
        traj = simulate_true(sys, inputs, nr, T)
        init = LearnableParams.from_lti(nominal, X0_INIT)
        res = train(init, inputs, traj.outputs, TrainConfig())
        poles = default_observer_poles(2)
        e_nom = normalized_error(
            run_luenberger(nominal, place_observer_poles(nominal.A, nominal.C, poles),
                           inputs, traj.outputs, X0_INIT, T),
            traj, 201, 50,
        )
        opt = res.params
        e_enh = normalized_error(
            run_luenberger(opt.as_lti(), place_observer_poles(opt.A_hat, opt.C_hat, poles),
                           inputs, traj.outputs, opt.x0_hat, T),
            traj, 201, 50,
        )
        assert e_enh < e_nom

    def test_heavy_regularization_pins_params(self):
        sys, inputs, traj, init = make_instance(8, (2, 1, 1))
        cfg = TrainConfig(lambda_A=1e3, lambda_B=1e3, lambda_C=1e3, weight_decay=0.0)
        res = train(init, inputs, traj.outputs, cfg)
        for field in ("A_hat", "B_hat", "C_hat"):
            drift = np.abs(getattr(res.params, field) - getattr(init, field)).mean()
            assert drift < 1e-3

    def test_loss_usually_decreases(self):
        # one batch: each row is bitwise its own train run (TestBatchTraining)
        instances = [make_instance(1000 + t, (2, 1, 1)) for t in range(50)]
        results = _train_runs(
            [init for *_, init in instances], [inputs for _, inputs, _, _ in instances],
            [traj.outputs for _, _, traj, _ in instances], TrainConfig(),
        )
        wins = sum(res.log[-1]["loss_total"] <= res.log[0]["loss_total"] for res in results)
        assert wins >= 45

    def test_divergence_aborts_with_diagnostics(self):
        init = LearnableParams(
            A_hat=[[100.0]], B_hat=[[0.0]], C_hat=[[1.0]], x0_hat=[1.0]
        )
        inputs = np.zeros((300, 1))
        measured = np.zeros((301, 1))
        cfg = TrainConfig(rollout_mode="open_loop", epochs=10)
        res = train(init, inputs, measured, cfg)
        assert res.diagnostics["aborted"]
        assert res.diagnostics["abort_epoch"] == 0
        assert res.log == []

    # Open loop with no input and outputs far above the model's: each
    # step moves A, C and x0 by about lr. In the window the states stay
    # finite while dL/dA, about 200 C / A times the last state, grows
    # fast with A: about 3e129 at A = 4, 3e259 at A = 17.75, whose square
    # overflows, and inf at A = 31.5.
    GRADIENT_OVERFLOW = dict(B_hat=[[0.0]], C_hat=[[1e3]], x0_hat=[1e3])
    OVERFLOW_CFG = TrainConfig(rollout_mode="open_loop", epochs=3, lr0=27.5, window_len=1)

    def overflow_data(self):
        return np.zeros((202, 1)), np.full((203, 1), 1e300)

    def overflow_gradient(self, params):
        """The gradient at params, whose rollout stays finite."""
        cfg = self.OVERFLOW_CFG
        inputs, measured = _window_data(*self.overflow_data(), (1, 1, 1), cfg)
        _, grads, diverged_at = _stacked_loss(
            (1, 1, 1), cfg, params.theta[None], params.theta[None], inputs[None], measured[None]
        )
        assert diverged_at[0] == 0
        return grads[0]

    def assert_gradient_overflows(self, params):
        assert not np.isfinite(self.overflow_gradient(params)).all()

    def assert_second_moment_overflows(self, params):
        """The gradient at params is finite and its square is not."""
        g = self.overflow_gradient(params)
        with np.errstate(over="ignore"):
            assert np.isfinite(g).all() and not np.isfinite(np.square(g)).all()

    def train_overflow(self, A, cfg):
        init = LearnableParams(A_hat=[[A]], **self.GRADIENT_OVERFLOW)
        res = train(init, *self.overflow_data(), cfg)
        assert_same_training(res, train_reference(init, *self.overflow_data(), cfg))
        return init, res

    def test_gradient_overflow_after_a_step_rolls_back(self):
        # lr falls a hundredfold per epoch, so the retried epoch moves A
        # only to about 4.14, where θ, m and v stay finite
        cfg = replace(self.OVERFLOW_CFG, decay_every=1, decay_factor=100.0)
        init, res = self.train_overflow(4.0, cfg)
        assert res.diagnostics["lr_halvings"] == 1 and not res.diagnostics["aborted"]
        assert [e["lr"] for e in res.log] == [27.5, 0.1375, 0.001375]
        assert 4.1 < res.params.A_hat[0, 0] < 4.2
        # the epoch that failed started where the first step left A
        one_step = train(init, *self.overflow_data(), replace(cfg, epochs=1))
        self.assert_gradient_overflows(one_step.params)

    def test_second_moment_overflow_rolls_back(self):
        # the retried epoch moves A to about 17.75; the epoch after it
        # overflows Adam's second moment and is rolled back in turn
        init, res = self.train_overflow(4.0, self.OVERFLOW_CFG)
        assert res.diagnostics["lr_halvings"] == 2 and not res.diagnostics["aborted"]
        assert [e["lr"] for e in res.log] == [27.5, 13.75, 6.875]
        assert np.isfinite(res.params.theta).all()
        two_steps = train(init, *self.overflow_data(), replace(self.OVERFLOW_CFG, epochs=2))
        self.assert_second_moment_overflows(two_steps.params)

    @pytest.mark.parametrize("stage", ["gradient", "second_moment", "adam_step"])
    def test_failed_first_epoch_aborts_without_raising(self, stage):
        data, cfg = self.overflow_data(), self.OVERFLOW_CFG
        if stage == "gradient":
            init = LearnableParams(A_hat=[[31.5]], **self.GRADIENT_OVERFLOW)
            self.assert_gradient_overflows(init)
        elif stage == "second_moment":
            init = LearnableParams(A_hat=[[17.75]], **self.GRADIENT_OVERFLOW)
            self.assert_second_moment_overflows(init)
        else:  # a finite gradient times lr0 = 1e308 overflows the step
            init = LearnableParams(A_hat=[[0.5]], B_hat=[[1e5]], C_hat=[[1e5]], x0_hat=[1e5])
            data = np.ones((202, 1)), np.zeros((203, 1))
            cfg = replace(self.OVERFLOW_CFG, lr0=1e308)
        res = train(init, *data, cfg)
        assert res.diagnostics["aborted"] and res.diagnostics["abort_epoch"] == 0
        assert res.log == [] and res.params.theta.tobytes() == init.theta.tobytes()
        assert_same_training(res, train_reference(init, *data, cfg))

    def test_unobservable_start_reuses_zero_gain(self):
        # identity dynamics with C = [1, 0] is unobservable: epoch 0 cannot
        # synthesize a gain and falls back to zero; generic gradient drift
        # restores observability within a few epochs
        init = LearnableParams(
            A_hat=np.eye(2), B_hat=[[1.0], [0.5]], C_hat=[[1.0, 0.0]], x0_hat=[0.0, 0.0],
        )
        gen = RngStream(12).generator()
        inputs = gen.normal(0, 1, (260, 1))
        measured = gen.normal(0, 1, (261, 1))
        res = train(init, inputs, measured, TrainConfig(epochs=5))
        assert res.diagnostics["gain_reuses"] >= 1
        assert res.log[0]["L_refreshed"] is False
        assert not res.diagnostics["never_observable"]
        # here every epoch that reuses the gain is an unobservable one
        assert res.diagnostics["observable_epochs"] == 5 - res.diagnostics["gain_reuses"]

    @pytest.mark.parametrize("mode, per_epoch", [("luenberger", 1), ("open_loop", 0)])
    def test_observability_stacks_per_epoch(self, monkeypatch, mode, per_epoch):
        # one stack decides observability; gain synthesis relies on that
        # decision instead of building a second one, and the open-loop
        # mode, which places no gain, builds none
        import leo.learning
        import leo.lti_core
        import leo.observer

        sys, inputs, traj, init = make_instance(3, (3, 2, 1))
        calls = []
        # the one function that builds stacks; observability_matrix
        # validates, then calls it
        original = leo.lti_core._observability_stack

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # every module that binds the name, so no call path escapes the count
        for module in (leo.lti_core, leo.observer, leo.learning):
            if hasattr(module, "_observability_stack"):
                monkeypatch.setattr(module, "_observability_stack", counted)
        res = train(init, inputs, traj.outputs, TrainConfig(epochs=5, rollout_mode=mode))
        assert len(res.log) == 5
        assert len(calls) <= per_epoch * 5

    def test_open_loop_mode_trains(self):
        sys, inputs, traj, init = make_instance(10, (2, 1, 1))
        res = train(init, inputs, traj.outputs, TrainConfig(epochs=30, rollout_mode="open_loop"))
        assert len(res.log) == 30
        assert not any(entry["L_refreshed"] for entry in res.log)
        assert res.diagnostics["final_gain"] is None
        assert res.diagnostics["observable_epochs"] is None

    def test_frozen_gain_contract(self):
        # finite differences computed with the same frozen gain agree with the
        # adjoint even though training would re-synthesize L afterwards
        sys, inputs, traj, init = make_instance(11, (2, 1, 1))
        gain = place_observer_poles(init.A_hat, init.C_hat, default_observer_poles(2))
        cfg = TrainConfig()
        g = gradient(init, gain, inputs, traj.outputs, cfg, init=init)
        h = 1e-6
        arr = init.A_hat
        for idx in [(0, 0), (1, 1)]:
            kw = {f: getattr(init, f).copy() for f in FIELDS}
            kw["A_hat"][idx] += h
            up = loss(LearnableParams(**kw), gain, inputs, traj.outputs, cfg, init=init).total
            kw["A_hat"][idx] -= 2 * h
            dn = loss(LearnableParams(**kw), gain, inputs, traj.outputs, cfg, init=init).total
            fd = (up - dn) / (2 * h)
            assert abs(g.A_hat[idx] - fd) <= max(1e-4 * abs(fd), 1e-8)


def train_reference(init, inputs, measured_outputs, cfg):
    """The per-run training loop that the batch trainer replaced, without
    the coordinate conditioning that never fired; kept as the reference the
    batch must equal bit for bit. Each stacked call is made on a stack of
    one, through the names the trainer calls, so injected faults reach both.
    An epoch fails when its rollout diverges or its gradient, Adam step or
    second moment is not finite; it then undoes the last step and halves
    the learning rate, or aborts the run if there is no step to undo. Returns a
    ``TrainResult``, or raises for data that does not cover the window."""
    n, p, q = init.dims
    k0, K = cfg.window_start, cfg.window_len
    inputs = np.asarray(inputs, dtype=float).reshape(-1, p)
    measured = np.asarray(measured_outputs, dtype=float).reshape(-1, q)
    if k0 + K > inputs.shape[0]:
        raise ShapeError(f"steady-state window [{k0}, {k0 + K}] exceeds horizon {inputs.shape[0]}")
    if measured.shape[0] <= k0 + K:
        raise ShapeError("not enough measured outputs for the window")
    inputs, measured = inputs[: k0 + K], measured[: k0 + K + 1]

    current = anchor = init
    m = v = np.zeros((1, init.theta.size))
    step = 0
    poles = tuple(_checked_poles(default_observer_poles(n), n))
    L = None
    luenberger = cfg.rollout_mode == "luenberger"
    diagnostics = {
        "transforms_applied": 0,
        "gain_refreshes": 0,
        "gain_reuses": 0,
        "observable_epochs": 0 if luenberger else None,
        "never_observable": False,
        "aborted": False,
        "abort_epoch": None,
        "lr_halvings": 0,
        "final_gain": None,
    }
    log = []
    prev_snapshot = None

    epoch = 0
    while epoch < cfg.epochs:
        lr = cfg.lr_at(epoch) * 0.5 ** diagnostics["lr_halvings"]
        refreshed = False
        if luenberger:
            gains, reason, _ = leo.learning._place_poles(
                current.A_hat[None], current.C_hat[None], poles
            )
            if reason[0] != UNOBSERVABLE:
                diagnostics["observable_epochs"] += 1
            if reason[0] == PLACED:
                L, refreshed = gains[0], True
            if refreshed:
                diagnostics["gain_refreshes"] += 1
            else:
                diagnostics["gain_reuses"] += 1
                if L is None:
                    L = np.zeros((n, q))

        terms, grads, diverged_at = leo.learning._stacked_loss(
            init.dims, cfg, current.theta[None], anchor.theta[None], inputs[None],
            measured[None], L[None] if luenberger else None,
        )
        failed = bool(diverged_at[0]) or not np.isfinite(grads).all()
        if not failed:
            theta, m_new, v_new = leo.learning._adam_update(
                current.theta[None], m, v, grads, [step + 1], [lr], cfg.weight_decay
            )
            # the step or its second moment left the finite numbers
            failed = not (np.isfinite(theta).all() and np.isfinite(v_new).all())
        if failed:
            if prev_snapshot is None:
                diagnostics["aborted"] = True
                diagnostics["abort_epoch"] = epoch
                break
            current, m, v, step = prev_snapshot
            prev_snapshot = None
            diagnostics["lr_halvings"] += 1
            continue

        data_term, reg_A, reg_B, reg_C, total = terms[0].tolist()
        log.append(
            {
                "epoch": epoch,
                "loss_total": total,
                "loss_data": data_term,
                "reg_A": reg_A,
                "reg_B": reg_B,
                "reg_C": reg_C,
                "lr": lr,
                "L_refreshed": refreshed,
            }
        )
        prev_snapshot = (current, m, v, step)
        current = LearnableParams(*_blocks(theta[0], *init.dims))
        m, v, step = m_new, v_new, step + 1
        epoch += 1

    diagnostics["never_observable"] = bool(
        luenberger and log and diagnostics["observable_epochs"] == 0
    )
    if L is not None:
        diagnostics["final_gain"] = L.copy()
    return TrainResult(params=current, log=log, diagnostics=diagnostics)


def reference_outcome(init, inputs, measured_outputs, cfg):
    """``train_reference``'s result, or the window error it raised."""
    try:
        return train_reference(init, inputs, measured_outputs, cfg)
    except ShapeError as exc:
        return exc


def assert_same_training(got, want):
    """Bitwise-equal parameters, log and diagnostics of two train results,
    or the same exception."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert isinstance(got, TrainResult)
    assert got.params.dims == want.params.dims
    assert got.params.theta.tobytes() == want.params.theta.tobytes()
    assert got.log == want.log
    got_diag, want_diag = dict(got.diagnostics), dict(want.diagnostics)
    got_gain, want_gain = got_diag.pop("final_gain"), want_diag.pop("final_gain")
    assert got_diag == want_diag
    assert (got_gain is None) == (want_gain is None)
    if want_gain is not None:
        assert got_gain.tobytes() == want_gain.tobytes()


def inject_faults(monkeypatch, loss_faults=(), placement_faults=()):
    """Make chosen runs' stacked calls fail, by each run's count of the
    calls it is in.

    ``loss_faults`` maps a run, known by the bytes of its window inputs, to
    {call number: fault} for ``_stacked_loss``: "diverge" marks its rollout
    diverged and "nan" makes its gradient non-finite. A run's count is
    that of a batch of one. ``placement_faults`` maps a run,
    known by its rounded C[0, 0], to {call number: reason code} for
    ``_place_poles``, the observer's gate and synthesis in one:
    ``NOT_PLACED`` fails the synthesis, ``UNOBSERVABLE`` makes the pair
    unobservable. Returns the counts, to be cleared between a batch and
    its reference runs.
    """
    loss_faults, placement_faults = dict(loss_faults), dict(placement_faults)
    counts = {"loss": defaultdict(int), "placement": defaultdict(int)}
    stacked, place = leo.learning._stacked_loss, leo.learning._place_poles

    def faulty_loss(dims, cfg, theta, anchor, inputs, *rest):
        keys = [u.tobytes() for u in inputs]
        faults = [loss_faults.get(key, {}).get(counts["loss"][key]) for key in keys]
        terms, grads, diverged_at = stacked(dims, cfg, theta, anchor, inputs, *rest)
        for i, (key, fault) in enumerate(zip(keys, faults)):
            counts["loss"][key] += 1
            if fault == "diverge":
                diverged_at[i] = 7
            elif fault == "nan":
                grads[i, 0] = np.nan
        return terms, grads, diverged_at

    def faulty_placement(A, C, desired):
        gains, reason, best = place(A, C, desired)
        for i, marker in enumerate(np.rint(C[:, 0, 0]).tolist()):
            if marker in placement_faults:
                fault = placement_faults[marker].get(counts["placement"][marker])
                if fault is not None:
                    reason[i], gains[i], best[i] = fault, 0.0, np.nan
                counts["placement"][marker] += 1
        return gains, reason, best

    # the stages run one by one only in the round loop; the kernel's
    # probes run before the stages are patched
    monkeypatch.setattr(leo.lti_core, "_kernel", replace(leo.lti_core._load_kernel(), train=False))
    monkeypatch.setattr(leo.learning, "_stacked_loss", faulty_loss)
    monkeypatch.setattr(leo.learning, "_place_poles", faulty_placement)
    return counts


FAULT_KINDS = (
    "none", "rollback", "abort", "placement", "nan", "extreme", "unobservable",
    "loses_observability",
)
PLACEMENT_FAULTS = {"placement": NOT_PLACED, "loses_observability": UNOBSERVABLE}


def faulty_runs(gen, dims, cfg, kinds, calls):
    """Stable random runs of one problem, each with a fault of its kind at
    its call number: the runs and the faults for ``inject_faults``.

    An "extreme" run injects nothing: its C starts subnormal (about 1e-310),
    so its first placement solves for a subnormal X and fails on its own,
    as a real stage does; its first Adam step makes C ordinary."""
    n, p, q = dims
    T = cfg.window_start + cfg.window_len + 2
    runs, loss_faults, placement_faults = [], {}, {}
    for i, (kind, k) in enumerate(zip(kinds, calls)):
        A = gen.standard_normal((n, n))
        A = 0.9 * A / np.linalg.norm(A, 2)
        C = gen.standard_normal((q, n))
        if kind == "unobservable":  # for q < n: no gain until training moves A
            A, C = np.eye(n), np.eye(q, n)
        if kind == "extreme":
            C *= 1e-310
        if kind in PLACEMENT_FAULTS:  # a marker C[0, 0] that no normal draw reaches
            C[0, 0] = 7 + 2 * i
            placement_faults[7 + 2 * i] = {k: PLACEMENT_FAULTS[kind]}
        init = LearnableParams(
            A_hat=A, B_hat=gen.standard_normal((n, p)), C_hat=C, x0_hat=gen.standard_normal(n)
        )
        inputs, measured = gen.standard_normal((T, p)), gen.standard_normal((T + 1, q))
        key = _window_data(inputs, measured, dims, cfg)[0].tobytes()
        if kind == "rollback":
            loss_faults[key] = {k: "diverge"}
        elif kind == "abort":  # the retry after the rollback diverges too
            loss_faults[key] = {k: "diverge", k + 1: "diverge"}
        elif kind == "nan":
            loss_faults[key] = {k: kind}
        runs.append((init, inputs, measured))
    return runs, loss_faults, placement_faults


def train_faulty_batch(runs, cfg, loss_faults, placement_faults):
    """The runs trained as one batch and, one by one, by the reference, with
    the same faults injected: the two lists of outcomes."""
    with pytest.MonkeyPatch.context() as mp:
        counts = inject_faults(mp, loss_faults, placement_faults)
        batch = _train_runs(*map(list, zip(*runs)), cfg)
        for count in counts.values():
            count.clear()
        alone = [reference_outcome(*run, cfg) for run in runs]
    return batch, alone


class TestBatchTraining:
    def mixed_runs(self):
        """Runs that abort, roll back, start unobservable, fail outright, and
        use both rollout modes, at three state sizes."""
        runs = []
        # aborts at epoch 0 (test_divergence_aborts_with_diagnostics)
        runs.append((
            LearnableParams(A_hat=[[100.0]], B_hat=[[0.0]], C_hat=[[1.0]], x0_hat=[1.0]),
            np.zeros((300, 1)), np.zeros((301, 1)),
            TrainConfig(rollout_mode="open_loop", epochs=10),
        ))
        # the first Adam step (about lr0) makes the rollout overflow, so the
        # run rolls back, halves the learning rate and goes on
        gen = RngStream(21).generator()
        runs.append((
            LearnableParams(A_hat=[[1.0]], B_hat=[[1.0]], C_hat=[[1.0]], x0_hat=[1.0]),
            gen.normal(0, 1, (260, 1)), gen.normal(0, 1, (261, 1)),
            TrainConfig(rollout_mode="open_loop", epochs=6, lr0=40.0),
        ))
        # the unobservable start of test_unobservable_start_reuses_zero_gain
        gen = RngStream(12).generator()
        runs.append((
            LearnableParams(
                A_hat=np.eye(2), B_hat=[[1.0], [0.5]], C_hat=[[1.0, 0.0]], x0_hat=[0.0, 0.0],
            ),
            gen.normal(0, 1, (260, 1)), gen.normal(0, 1, (261, 1)), TrainConfig(epochs=5),
        ))
        # ordinary runs in both modes
        for seed, mode in ((4, "luenberger"), (5, "open_loop"), (6, "luenberger")):
            _, inputs, traj, init = make_instance(seed, (3, 2, 1))
            runs.append((init, inputs, traj.outputs, TrainConfig(epochs=12, rollout_mode=mode)))
        _, inputs, traj, init = make_instance(7, (2, 1, 1))
        runs.append((init, inputs, traj.outputs, TrainConfig(epochs=12, rollout_mode="open_loop")))
        # a horizon shorter than the window: the run raises
        runs.append((init, inputs[:100], traj.outputs[:101], TrainConfig(epochs=3)))
        return runs

    def test_train_matches_the_reference_loop(self):
        # pytest turns numpy warnings into errors: none escapes from these
        runs = self.mixed_runs()
        outcomes = []
        for run in runs:
            try:
                outcomes.append(train(*run))
            except ShapeError as exc:
                outcomes.append(exc)
            assert_same_training(outcomes[-1], reference_outcome(*run))
        assert isinstance(outcomes[-1], ShapeError) and "exceeds horizon" in str(outcomes[-1])
        # the runs really have every branch they are meant to cover
        diags = [r.diagnostics for r in outcomes[:-1]]
        assert diags[0]["aborted"] and diags[0]["abort_epoch"] == 0
        assert diags[1]["lr_halvings"] >= 1 and not diags[1]["aborted"]
        assert diags[2]["gain_reuses"] >= 1

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 10),
        n=st.integers(1, 3),
        mode=st.sampled_from(["luenberger", "open_loop"]),
        data=st.data(),
    )
    def test_rows_equal_reference_runs(self, seed, batch, n, mode, data):
        p, q = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
        epochs = data.draw(st.integers(1, 6))
        cfg = TrainConfig(
            rollout_mode=mode, epochs=epochs,
            window_start=data.draw(st.integers(0, 20)), window_len=data.draw(st.integers(1, 30)),
        )
        rows = st.lists(st.sampled_from(FAULT_KINDS), min_size=batch, max_size=batch)
        kinds = data.draw(rows)
        calls = data.draw(st.lists(st.integers(0, epochs - 1), min_size=batch, max_size=batch))
        runs, *faults = faulty_runs(np.random.default_rng(seed), (n, p, q), cfg, kinds, calls)
        together, alone = train_faulty_batch(runs, cfg, *faults)
        assert len(together) == batch
        for got, want in zip(together, alone):
            assert_same_training(got, want)

    @pytest.mark.parametrize("mode", ["luenberger", "open_loop"])
    def test_every_fault_in_one_batch(self, mode):
        kinds = FAULT_KINDS[1:] + ("none",)
        calls = (2, 1, 1, 2, 3, 0, 2, 0)
        cfg = TrainConfig(rollout_mode=mode, epochs=6, window_start=10, window_len=20)
        runs, *faults = faulty_runs(np.random.default_rng(3), (3, 2, 1), cfg, kinds, calls)
        together, alone = train_faulty_batch(runs, cfg, *faults)
        for got, want in zip(together, alone):
            assert_same_training(got, want)
        rollback, abort, placement, nan, extreme, unobservable, loses, plain = together
        assert rollback.diagnostics["lr_halvings"] == 1 and len(rollback.log) == 6
        assert abort.diagnostics["aborted"] and abort.diagnostics["abort_epoch"] == 1
        # a non-finite gradient fails its epoch like a diverged rollout
        assert nan.diagnostics["lr_halvings"] == 1 and len(nan.log) == 6
        assert not nan.diagnostics["aborted"]
        assert len(extreme.log) == 6 and not extreme.diagnostics["aborted"]
        assert plain.diagnostics["lr_halvings"] == plain.diagnostics["gain_reuses"] == 0
        if mode == "luenberger":
            assert placement.diagnostics["gain_reuses"] == 1
            assert [e["L_refreshed"] for e in placement.log] == [True, False] + [True] * 4
            assert [e["L_refreshed"] for e in extreme.log] == [False] + [True] * 5
            assert extreme.diagnostics["observable_epochs"] == 6
            assert unobservable.diagnostics["gain_reuses"] >= 1
            assert unobservable.log[0]["L_refreshed"] is False
            assert loses.diagnostics["observable_epochs"] == 5
            assert [e["L_refreshed"] for e in loses.log] == [True, True, False] + [True] * 3
            assert plain.diagnostics["observable_epochs"] == 6
        else:
            assert placement.diagnostics["gain_reuses"] == 0
            assert placement.diagnostics["observable_epochs"] is None

    def test_failed_placement_reuses_the_gain_of_that_run_only(self, monkeypatch, round_loop):
        # The run of seed 4 fails its first placement, as if no G had
        # placed the poles; every other run's placement is the real one.
        cfg = TrainConfig(epochs=6)
        runs = []
        for seed in range(1, 8):
            _, inputs, traj, init = make_instance(seed, (3, 2, 1))
            runs.append((init, inputs, traj.outputs))
        failing = 3
        poisoned = runs[failing][0].A_hat
        place = leo.learning._place_poles
        batch_sizes = []

        def first_placement_fails(A, C, desired):
            batch_sizes.append(len(A))
            gains, reason, best = place(A, C, desired)
            for i, a in enumerate(A):
                if np.array_equal(a, poisoned):
                    reason[i] = NOT_PLACED
            return gains, reason, best

        monkeypatch.setattr(leo.learning, "_place_poles", first_placement_fails)
        together = _train_runs(*map(list, zip(*runs)), cfg)
        assert max(batch_sizes) > 1
        for run, got in zip(runs, together):
            assert_same_training(got, train_reference(*run, cfg))
        diags = together[failing].diagnostics
        assert diags["gain_reuses"] == 1
        assert together[failing].log[0]["L_refreshed"] is False
        assert all(entry["L_refreshed"] for entry in together[failing].log[1:])
        assert all(got.diagnostics["gain_reuses"] == 0 for i, got in enumerate(together)
                   if i != failing)

    def test_one_stacked_call_per_epoch_and_stage(self, monkeypatch, round_loop):
        # ten runs of one problem in the round loop: each epoch's placement
        # with its observability decision (or, where the C placement pass
        # does not load, the observability stack) and loss pass (or, where
        # the C pass does not load, rollout and adjoint) are one call over
        # all ten
        epochs = 4
        runs = []
        for seed in range(40, 50):
            _, inputs, traj, init = make_instance(seed, (3, 2, 1))
            runs.append((init, inputs, traj.outputs))
        batches = defaultdict(list)

        def counted(module, name):
            original = getattr(module, name)

            def count(*args, **kwargs):
                batches[name].append(len(args[0]))
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, count)

        # loaded first (the round_loop fixture): the probes make calls of their own
        kernel = leo.lti_core._load_kernel()
        loss_pass, place = kernel.loss, kernel.place
        for module in (leo.lti_core, leo.observer, leo.learning):
            for name in ("_affine_rollout", "_affine_adjoint", "_observability_stack"):
                if hasattr(module, name):
                    counted(module, name)

        def count_pass(dims, cfg, theta, *rest):
            batches["C loss pass"].append(len(theta))
            return loss_pass(dims, cfg, theta, *rest)

        def count_place(A, *rest):
            batches["C placement pass"].append(len(A))
            return place(A, *rest)

        monkeypatch.setattr(leo.lti_core, "_kernel", replace(
            kernel, loss=loss_pass and count_pass, place=place and count_place))
        together = _train_runs(*map(list, zip(*runs)), TrainConfig(epochs=epochs))
        for got in together:
            assert len(got.log) == epochs
            assert got.diagnostics["lr_halvings"] == 0
        # each observability stack is factorized by exactly one SVD, and
        # the loss and its gradient take one C call per epoch
        per_epoch = ["C loss pass"] if loss_pass else ["_affine_rollout", "_affine_adjoint"]
        per_epoch += ["C placement pass"] if place else ["_observability_stack"]
        assert batches == {name: [10] * epochs for name in per_epoch}

    def test_one_c_call_per_batch(self, monkeypatch):
        # ten runs of one problem: every epoch of every run, each stage
        # included, is one call of the C training pass
        kernel = leo.lti_core._load_kernel()
        train_pass = kernel.train
        if not train_pass:
            pytest.skip("the C training pass does not load on this host")
        epochs = 4
        runs = []
        for seed in range(40, 50):
            _, inputs, traj, init = make_instance(seed, (3, 2, 1))
            runs.append((init, inputs, traj.outputs))
        batches = []

        def count(dims, cfg, anchor, *rest):
            batches.append(len(anchor))
            return train_pass(dims, cfg, anchor, *rest)

        def refuse(*args):
            raise AssertionError("a stage ran outside the C training pass")

        monkeypatch.setattr(leo.lti_core, "_kernel", replace(kernel, train=count))
        for name in ("_place_poles", "_stacked_loss", "_adam_update"):
            monkeypatch.setattr(leo.learning, name, refuse)
        together = _train_runs(*map(list, zip(*runs)), TrainConfig(epochs=epochs))
        assert batches == [10]
        for got in together:
            assert len(got.log) == epochs
            assert got.diagnostics["lr_halvings"] == 0

    @pytest.mark.parametrize("outcome", ["rollback", "abort"])
    def test_a_diverged_run_costs_no_extra_call(self, monkeypatch, outcome):
        # Ten runs of one problem; run 3's rollout diverges at epoch 1 (it
        # rolls back), or overflows at epoch 0 (A = 100: it aborts).
        epochs, culprit = 4, 3
        cfg = TrainConfig(rollout_mode="open_loop", epochs=epochs)
        runs = []
        for seed in range(10):
            gen = RngStream(21 + seed).generator()
            a = 100.0 if seed == culprit and outcome == "abort" else 1.0
            runs.append((
                LearnableParams(A_hat=[[a]], B_hat=[[1.0]], C_hat=[[1.0]], x0_hat=[1.0]),
                gen.normal(0, 1, (260, 1)), gen.normal(0, 1, (261, 1)),
            ))
        key = _window_data(*runs[culprit][1:], (1, 1, 1), cfg)[0].tobytes()
        counts = inject_faults(monkeypatch, {key: {1: "diverge"}} if outcome == "rollback" else {})
        stacked = leo.learning._stacked_loss
        calls = []

        def recorded(dims, cfg, theta, *arrays):
            out = stacked(dims, cfg, theta, *arrays)
            calls.append((len(theta), int((out[2] > 0).sum())))
            return out

        monkeypatch.setattr(leo.learning, "_stacked_loss", recorded)
        together = _train_runs(*map(list, zip(*runs)), cfg)
        if outcome == "rollback":
            # run 3 repeats epoch 1 with the others' epoch 2, and its last epoch alone
            want = [(10, 0), (10, 1)] + [(10, 0)] * (epochs - 2) + [(1, 0)]
        else:
            want = [(10, 1)] + [(9, 0)] * (epochs - 1)
        assert calls == want
        diags = together[culprit].diagnostics
        assert diags["lr_halvings"] == (outcome == "rollback")
        assert diags["aborted"] == (outcome == "abort")
        counts["loss"].clear()
        for run, got in zip(runs, together):
            assert_same_training(got, train_reference(*run, cfg))

    @pytest.mark.parametrize("stage", ["_place_poles", "_stacked_loss"])
    def test_a_stage_that_raises_fails_the_batch(self, monkeypatch, round_loop, stage):
        # Every stage gives each finite row a result, so an exception from
        # one is a bug: it reaches the caller of the batch and of train.
        cfg = TrainConfig(epochs=6)
        runs = []
        for seed in range(1, 8):
            _, inputs, traj, init = make_instance(seed, (3, 2, 1))
            runs.append((init, inputs, traj.outputs))
        original = getattr(leo.learning, stage)
        calls = []

        def raises_on_its_third_call(*args):
            calls.append(args)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("injected")
            return original(*args)

        monkeypatch.setattr(leo.learning, stage, raises_on_its_third_call)
        with pytest.raises(np.linalg.LinAlgError, match="injected"):
            _train_runs(*map(list, zip(*runs)), cfg)
        assert len(calls) == 3
        calls.clear()
        with pytest.raises(np.linalg.LinAlgError, match="injected"):
            train(*runs[3], cfg)


def stacked_loss_case(gen, batch, dims, k0, K, scale=1.0):
    """Runs of one problem: stable matrices, anchors nearby, small gains."""
    n, p, q = dims
    T = k0 + K + int(gen.integers(0, 3))
    runs = []
    for _ in range(batch):
        A = gen.standard_normal((n, n))
        params = LearnableParams(
            A_hat=0.9 * A / np.linalg.norm(A, 2),
            B_hat=scale * gen.standard_normal((n, p)),
            C_hat=scale * gen.standard_normal((q, n)),
            x0_hat=scale * gen.standard_normal(n),
        )
        moved = params.theta + 0.01 * gen.standard_normal(params.theta.size)
        anchor = LearnableParams(*_blocks(moved, *dims))
        runs.append([
            params, 0.1 * gen.standard_normal((n, q)),
            scale * gen.standard_normal((T, p)), scale * gen.standard_normal((T + 1, q)), anchor,
        ])
    return runs


def stacked_rows(runs, cfg, want_gradient):
    """The runs' loss terms and gradients from one ``_stacked_loss`` call,
    per row: ``(breakdown, grads or None)``, or the exception a one-run call
    raises for it."""
    dims = runs[0][0].dims
    data = [_window_data(run[2], run[3], dims, cfg) for run in runs]
    gains = np.stack([run[1] for run in runs]) if cfg.rollout_mode == "luenberger" else None
    terms, grads, diverged_at = _stacked_loss(
        dims, cfg, np.stack([run[0].theta for run in runs]), np.stack([run[4].theta for run in runs]),
        np.stack([d[0] for d in data]), np.stack([d[1] for d in data]), gains, want_gradient,
    )
    rows = []
    for i in range(len(runs)):
        if diverged_at[i]:
            rows.append(DivergedRollout(int(diverged_at[i])))
        elif not want_gradient:
            rows.append((LossBreakdown(*terms[i].tolist()), None))
        elif not np.isfinite(grads[i]).all():
            rows.append(ShapeError(_NON_FINITE))
        else:
            breakdown = LossBreakdown(*terms[i].tolist())
            rows.append((breakdown, LearnableParams(*_blocks(grads[i], *dims))))
    return rows


def assert_row_matches_reference(row, run, cfg, want_gradient):
    """The row equals the reference body's result, or its exception, bitwise."""
    try:
        want = loss_and_gradient_reference(*run[:4], cfg, run[4], want_gradient)
    except (DivergedRollout, ShapeError) as exc:
        assert type(row) is type(exc) and row.args == exc.args and str(row) == str(exc)
        return
    breakdown, grads = row
    assert breakdown == want[0]
    if want_gradient:
        assert np.array_equal(grads.theta, want[1].theta)
        assert not grads.theta.flags.writeable
    else:
        assert grads is None


class TestStackedLoss:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 10),
        n=st.integers(1, 4),
        mode=st.sampled_from(["luenberger", "open_loop"]),
        want_gradient=st.booleans(),
        data=st.data(),
    )
    def test_rows_equal_reference_runs(self, seed, batch, n, mode, want_gradient, data):
        p, q = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
        # windows past 128 steps reach numpy's pairwise summation blocks
        k0, K = data.draw(st.integers(0, 60)), data.draw(st.integers(1, 140))
        gen = np.random.default_rng(seed)
        scale = data.draw(st.sampled_from([1e-3, 1.0, 30.0]))
        runs = stacked_loss_case(gen, batch, (n, p, q), k0, K, scale)
        cfg = TrainConfig(rollout_mode=mode, window_start=k0, window_len=K)
        rows = stacked_rows(runs, cfg, want_gradient)
        assert len(rows) == batch
        for row, run in zip(rows, runs):
            assert_row_matches_reference(row, run, cfg, want_gradient)
        # the public one-run calls are batches of one
        want = loss_and_gradient_reference(*runs[0][:4], cfg, runs[0][4], True)
        assert loss(*runs[0][:4], cfg, runs[0][4]) == want[0]
        assert np.array_equal(gradient(*runs[0][:4], cfg, runs[0][4]).theta, want[1].theta)

    def test_diverging_row_leaves_the_others_unchanged(self):
        gen = np.random.default_rng(7)
        runs = stacked_loss_case(gen, 5, (2, 1, 1), 201, 50)
        diverging = 2
        unstable = runs[diverging][0]
        runs[diverging][0] = LearnableParams(
            A_hat=100 * np.eye(2), B_hat=unstable.B_hat, C_hat=unstable.C_hat,
            x0_hat=unstable.x0_hat,
        )
        cfg = TrainConfig()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = stacked_rows(runs, cfg, True)
            alone = stacked_rows(runs[:diverging] + runs[diverging + 1 :], cfg, True)
            for row, run in zip(rows, runs):
                assert_row_matches_reference(row, run, cfg, True)
        assert isinstance(rows[diverging], DivergedRollout)
        assert 0 < rows[diverging].step <= 251
        for got, own in zip(rows[:diverging] + rows[diverging + 1 :], alone):
            assert got[0] == own[0] and np.array_equal(got[1].theta, own[1].theta)

    # The rollout stays finite near 1e307, so its gradient overflows; the
    # reference body warns about that, the stacked call does not.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_row_with_a_non_finite_gradient_fails_alone(self):
        gen = np.random.default_rng(8)
        runs = stacked_loss_case(gen, 4, (1, 1, 1), 201, 50)
        culprit = 1
        huge = LearnableParams(A_hat=[[1.0]], B_hat=[[0.0]], C_hat=[[1.0]], x0_hat=[1e307])
        runs[culprit][0] = runs[culprit][4] = huge
        cfg = TrainConfig(rollout_mode="open_loop")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = stacked_rows(runs, cfg, True)
            with pytest.raises(ShapeError, match="non-finite"):
                gradient(*runs[culprit][:4], cfg, runs[culprit][4])
        for row, run in zip(rows, runs):
            assert_row_matches_reference(row, run, cfg, True)
        assert isinstance(rows[culprit], ShapeError)
        assert not any(isinstance(row, Exception) for i, row in enumerate(rows) if i != culprit)
