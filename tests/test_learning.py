import json
import warnings
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import leo.learning
import leo.lti_core
import leo.observer
from leo.exceptions import DivergedRollout, ShapeError, SynthesisFailureError
from leo.learning import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    LearnableParams,
    LossBreakdown,
    TrainConfig,
    adam_step,
    elementwise_mean_abs,
    gradient,
    lambda_coefficients,
    log_to_jsonl,
    loss,
    train,
    _blocks,
    _lockstep,
    _loss_request,
    _stacked_loss,
    _train_steps,
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
from leo.observer import default_observer_poles, place_observer_poles, _gain_matrix

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
        states = _affine_rollout(M, params.x0_hat, forcing)
    finite = np.all(np.isfinite(states), axis=1)
    if not finite.all():
        raise DivergedRollout(int(np.argmax(~finite)))
    window = slice(k0, k0 + K + 1)
    residuals = measured[window] - states[window] @ params.C_hat.T
    data_term = float(np.abs(residuals).mean(axis=1).sum() / K)

    dA, dB, dC, _ = _blocks(params.theta - anchor.theta, n, p, q)
    reg_A = elementwise_mean_abs(dA)
    reg_B = elementwise_mean_abs(dB)
    reg_C = elementwise_mean_abs(dC)
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
    adj = _affine_adjoint(M, -S @ params.C_hat)

    gA = adj[1:].T @ states[:-1]
    gB = adj[1:].T @ inputs
    gC = -(S.T @ states)
    if L is not None:
        gC -= L.T @ gA

    gA += lam_A * np.sign(dA) / dA.size
    gB += lam_B * np.sign(dB) / dB.size
    gC += lam_C * np.sign(dC) / dC.size
    theta = np.concatenate((gA, gB, gC, adj[0]), axis=None)
    return breakdown, LearnableParams._of(theta, (n, p, q))


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


class TestElementwiseMeanAbs:
    def test_matrix(self):
        assert elementwise_mean_abs([[1.0, -1.0], [2.0, -2.0]]) == 1.5

    def test_zero(self):
        assert elementwise_mean_abs(np.zeros((3, 4))) == 0.0

    def test_singleton(self):
        assert elementwise_mean_abs([3.0]) == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            elementwise_mean_abs(np.zeros((0, 2)))


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
        L = gain.L
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
    def scalar_params(self, value=1.0):
        return LearnableParams(
            A_hat=[[value]], B_hat=[[value]], C_hat=[[value]], x0_hat=[value]
        )

    def test_zero_gradient_no_decay(self):
        params = self.scalar_params(0.7)
        grads = LearnableParams(
            A_hat=np.zeros((1, 1)), B_hat=np.zeros((1, 1)),
            C_hat=np.zeros((1, 1)), x0_hat=np.zeros(1),
        )
        state = AdamState.for_params(params)
        state2, out = adam_step(state, params, grads, lr=1e-3, weight_decay=0.0)
        assert state2.step == 1
        for field in FIELDS:
            assert_allclose(getattr(out, field), getattr(params, field))

    def test_first_step_magnitude(self):
        # constant unit gradient: bias corrections cancel, update ~ -lr
        lr = 1e-3
        params = self.scalar_params(0.0)
        grads = LearnableParams(
            A_hat=np.ones((1, 1)), B_hat=np.ones((1, 1)),
            C_hat=np.ones((1, 1)), x0_hat=np.ones(1),
        )
        state = AdamState.for_params(params)
        _, out = adam_step(state, params, grads, lr=lr, weight_decay=0.0)
        expected = -lr / (1.0 + 1e-8)
        assert out.A_hat[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_deterministic(self):
        params = self.scalar_params(0.3)
        grads = LearnableParams(
            A_hat=np.full((1, 1), 0.2), B_hat=np.full((1, 1), -0.4),
            C_hat=np.full((1, 1), 0.1), x0_hat=np.full(1, 0.7),
        )
        s1, p1 = adam_step(AdamState.for_params(params), params, grads, 1e-3, 1e-5)
        s2, p2 = adam_step(AdamState.for_params(params), params, grads, 1e-3, 1e-5)
        for field in FIELDS:
            assert np.array_equal(getattr(p1, field), getattr(p2, field))

    def test_decoupled_decay_shrinks_params(self):
        params = self.scalar_params(1.0)
        grads = LearnableParams(
            A_hat=np.zeros((1, 1)), B_hat=np.zeros((1, 1)),
            C_hat=np.zeros((1, 1)), x0_hat=np.zeros(1),
        )
        _, out = adam_step(AdamState.for_params(params), params, grads, lr=0.1, weight_decay=0.01)
        assert out.A_hat[0, 0] == pytest.approx(1.0 - 0.1 * 0.01)


class TestAdamStepMatchesPerTensorLoop:
    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
        step=st.integers(0, 299),
        lr=st.floats(1e-8, 10.0),
        weight_decay=st.floats(0.0, 0.1),
        scale=st.sampled_from([1e-6, 1.0, 1e3]),
    )
    def test_bitwise_equal(self, seed, dims, step, lr, weight_decay, scale):
        gen = np.random.default_rng(seed)
        params = random_params(gen, dims)
        grads = random_params(gen, dims, scale)
        m = random_params(gen, dims, scale)
        v = random_params(gen, dims, scale**2)
        v_abs = {key: np.abs(getattr(v, key)) for key in FIELDS}
        state = AdamState(m=m.theta, v=flat(v_abs), step=step)
        got_state, got = adam_step(state, params, grads, lr, weight_decay)
        want_m, want_v, want_p = adam_step_per_tensor(
            {key: getattr(m, key) for key in FIELDS}, v_abs, step, params, grads, lr, weight_decay
        )
        assert got_state.step == step + 1
        assert np.array_equal(got_state.m, flat(want_m))
        assert np.array_equal(got_state.v, flat(want_v))
        for key in FIELDS:
            assert np.array_equal(getattr(got, key), want_p[key])


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
        _, stepped = adam_step(AdamState.for_params(init), init, grads, 1e-3)
        trained = train(init, inputs, traj.outputs, TrainConfig(epochs=2)).params
        for params in (grads, stepped, trained):
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
            {"conditioning_threshold": float("nan")},
            {"conditioning_threshold": 0.0},
            {"conditioning_threshold": -1.0},
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
        cfg = TrainConfig(
            epochs=np.int64(0), weight_decay=0.0, lambda_A=0.0, conditioning_threshold=np.inf
        )
        assert cfg.resolved_lambdas(2, 1, 1)[0] == 0.0


class TestTrain:
    def test_fixed_point_without_weight_decay(self):
        # exact model and measurements generated by the same rollout code:
        # residuals stay bitwise zero, so with weight decay off nothing moves
        from leo.lti_core import _affine_rollout

        gen = RngStream(4).generator()
        sys = random_system(2, 1, 1, gen)
        exact = LearnableParams.from_lti(sys.real, sys.x0_real)
        inputs = gen.normal(0, 1, (260, 1))
        states = _affine_rollout(exact.A_hat, exact.x0_hat, inputs @ exact.B_hat.T)
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
            drift = elementwise_mean_abs(getattr(res.params, field) - getattr(init, field))
            assert drift < 1e-3

    def test_loss_usually_decreases(self):
        wins = 0
        for t in range(50):
            sys, inputs, traj, init = make_instance(1000 + t, (2, 1, 1))
            res = train(init, inputs, traj.outputs, TrainConfig())
            if res.log[-1]["loss_total"] <= res.log[0]["loss_total"]:
                wins += 1
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

    def test_conditioning_identity_path_is_a_no_op(self):
        sys, inputs, traj, init = make_instance(9, (2, 1, 1))
        res_a = train(init, inputs, traj.outputs, TrainConfig(epochs=40))
        res_b = train(
            init, inputs, traj.outputs,
            TrainConfig(epochs=40, conditioning_threshold=np.inf),
        )
        for field in FIELDS:
            assert_allclose(
                getattr(res_a.params, field), getattr(res_b.params, field), atol=1e-9
            )

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

    @pytest.mark.parametrize("mode, per_epoch", [("luenberger", 1), ("open_loop", 1)])
    def test_observability_stacks_per_epoch(self, monkeypatch, mode, per_epoch):
        # one stack decides observability and conditioning; gain synthesis
        # relies on that decision instead of building a second one
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


def assert_same_training(got, want):
    """Bitwise-equal parameters, log and diagnostics of two train results."""
    for field in FIELDS:
        assert np.array_equal(getattr(got.params, field), getattr(want.params, field))
    assert got.log == want.log
    got_diag, want_diag = dict(got.diagnostics), dict(want.diagnostics)
    got_gain, want_gain = got_diag.pop("final_gain"), want_diag.pop("final_gain")
    assert got_diag == want_diag
    assert (got_gain is None) == (want_gain is None)
    if want_gain is not None:
        assert np.array_equal(got_gain, want_gain)


# The rollback run's accepted steps reach |A| ~ 10, whose 251-step gradient
# overflows Adam's squared moment; training handles that, numpy warns.
@pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
class TestLockstepTraining:
    def mixed_runs(self):
        """Runs that abort, roll back, change coordinates, start unobservable,
        fail outright, and use both rollout modes, at three state sizes."""
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
        # conditioning_threshold=1 forces coordinate transforms
        _, inputs, traj, init = make_instance(3, (3, 2, 1))
        runs.append((init, inputs, traj.outputs, TrainConfig(epochs=12, conditioning_threshold=1)))
        # the unobservable start of test_unobservable_start_reuses_zero_gain
        gen = RngStream(12).generator()
        runs.append((
            LearnableParams(
                A_hat=np.eye(2), B_hat=[[1.0], [0.5]], C_hat=[[1.0, 0.0]], x0_hat=[0.0, 0.0],
            ),
            gen.normal(0, 1, (260, 1)), gen.normal(0, 1, (261, 1)), TrainConfig(epochs=5),
        ))
        # ordinary runs in both modes, sharing request shapes with the above
        for seed, mode in ((4, "luenberger"), (5, "open_loop"), (6, "luenberger")):
            _, inputs, traj, init = make_instance(seed, (3, 2, 1))
            runs.append((init, inputs, traj.outputs, TrainConfig(epochs=12, rollout_mode=mode)))
        _, inputs, traj, init = make_instance(7, (2, 1, 1))
        runs.append((init, inputs, traj.outputs, TrainConfig(epochs=12, rollout_mode="open_loop")))
        # a horizon shorter than the window: this run raises, the rest go on
        runs.append((init, inputs[:100], traj.outputs[:101], TrainConfig(epochs=3)))
        return runs

    def test_lockstep_matches_one_run_at_a_time(self):
        runs = self.mixed_runs()
        together = _lockstep([_train_steps(*run) for run in runs])
        assert len(together) == len(runs)
        for run, got in zip(runs[:-1], together[:-1]):
            assert_same_training(got, train(*run))
        assert isinstance(together[-1], ShapeError)
        with pytest.raises(ShapeError, match="exceeds horizon"):
            train(*runs[-1])
        # the batch really has every branch it is meant to cover
        diags = [r.diagnostics for r in together[:-1]]
        assert diags[0]["aborted"] and diags[0]["abort_epoch"] == 0
        assert diags[1]["lr_halvings"] >= 1 and not diags[1]["aborted"]
        assert diags[2]["transforms_applied"] >= 1
        assert diags[3]["gain_reuses"] >= 1

    def test_failed_placement_reuses_the_gain_of_that_run_only(self, monkeypatch):
        # The run of seed 4 fails its first placement, as if no G had
        # placed the poles; every other run's placement is the real one.
        runs = self.mixed_runs()[:-1]
        failing = 4
        assert runs[failing][3].rollout_mode == "luenberger"
        poisoned = runs[failing][0].A_hat
        place = leo.learning._place_poles
        batch_sizes = []

        def first_placement_fails(A, C, desired):
            batch_sizes.append(len(A))
            return [
                SynthesisFailureError("injected") if np.array_equal(a, poisoned) else row
                for a, row in zip(A, place(A, C, desired))
            ]

        monkeypatch.setattr(leo.learning, "_place_poles", first_placement_fails)
        together = _lockstep([_train_steps(*run) for run in runs])
        assert max(batch_sizes) > 1
        for run, got in zip(runs, together):
            assert_same_training(got, train(*run))
        diags = together[failing].diagnostics
        assert diags["gain_reuses"] == 1
        assert together[failing].log[0]["L_refreshed"] is False
        assert all(entry["L_refreshed"] for entry in together[failing].log[1:])

    def test_one_stacked_call_per_epoch_and_request(self, monkeypatch):
        # ten runs of one problem: each epoch's conditioning, rollout and
        # adjoint are one call over all ten
        epochs = 4
        runs = []
        for seed in range(40, 50):
            _, inputs, traj, init = make_instance(seed, (3, 2, 1))
            runs.append((init, inputs, traj.outputs, TrainConfig(epochs=epochs)))
        batches = defaultdict(list)

        def counted(module, name):
            original = getattr(module, name)

            def count(*args, **kwargs):
                batches[name].append(len(args[0]))
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, count)

        for module in (leo.lti_core, leo.observer, leo.learning):
            for name in ("_affine_rollout", "_affine_adjoint", "_observability_stack"):
                if hasattr(module, name):
                    counted(module, name)
        together = _lockstep([_train_steps(*run) for run in runs])
        for got in together:
            assert len(got.log) == epochs
            assert got.diagnostics["lr_halvings"] == got.diagnostics["transforms_applied"] == 0
        # each observability stack is factorized by exactly one SVD
        assert batches == {
            "_affine_rollout": [10] * epochs,
            "_affine_adjoint": [10] * epochs,
            "_observability_stack": [10] * epochs,
        }

    def test_stacked_call_that_raises_fails_only_its_culprit(self, monkeypatch):
        # A placement batch holding the run of seed 4 raises; the others are
        # then served alone and train as they would one at a time.
        runs = self.mixed_runs()[:-1]
        failing = 4
        poisoned = runs[failing][0].A_hat
        place = leo.learning._place_poles

        def raises_with_poisoned_row(A, C, desired):
            if any(np.array_equal(a, poisoned) for a in A):
                raise np.linalg.LinAlgError("injected")
            return place(A, C, desired)

        monkeypatch.setattr(leo.learning, "_place_poles", raises_with_poisoned_row)
        together = _lockstep([_train_steps(*run) for run in runs])
        assert isinstance(together[failing], np.linalg.LinAlgError)
        monkeypatch.undo()
        for i, (run, got) in enumerate(zip(runs, together)):
            if i != failing:
                assert_same_training(got, train(*run))


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
        anchor = LearnableParams._of(params.theta + 0.01 * gen.standard_normal(params.theta.size), dims)
        runs.append([
            params, 0.1 * gen.standard_normal((n, q)),
            scale * gen.standard_normal((T, p)), scale * gen.standard_normal((T + 1, q)), anchor,
        ])
    return runs


def stacked_rows(runs, cfg, want_gradient):
    """One ``_stacked_loss`` call over the runs, as ``_serve`` stacks them."""
    requests = [_loss_request(*run[:4], cfg, run[4], want_gradient) for run in runs]
    static = requests[0][1]
    return _stacked_loss(static, *(np.stack(a) for a in zip(*(r[2:] for r in requests))))


def assert_row_matches_reference(row, run, cfg, want_gradient):
    """The row equals the reference body's result, or its exception, bitwise."""
    try:
        want = loss_and_gradient_reference(*run[:4], cfg, run[4], want_gradient)
    except (DivergedRollout, ShapeError) as exc:
        assert type(row) is type(exc) and row.args == exc.args
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

    # The rollout stays finite near 1e307, so its gradient overflows.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_row_with_a_non_finite_gradient_fails_alone(self):
        gen = np.random.default_rng(8)
        runs = stacked_loss_case(gen, 4, (1, 1, 1), 201, 50)
        culprit = 1
        huge = LearnableParams(A_hat=[[1.0]], B_hat=[[0.0]], C_hat=[[1.0]], x0_hat=[1e307])
        runs[culprit][0] = runs[culprit][4] = huge
        cfg = TrainConfig(rollout_mode="open_loop")
        rows = stacked_rows(runs, cfg, True)
        for row, run in zip(rows, runs):
            assert_row_matches_reference(row, run, cfg, True)
        assert isinstance(rows[culprit], ShapeError)
        assert not any(isinstance(row, Exception) for i, row in enumerate(rows) if i != culprit)

    def test_runs_of_other_modes_or_windows_never_share_a_call(self, monkeypatch):
        runs = []
        for mode in ("luenberger", "open_loop"):
            # both windows end at step 251, so only the static part tells them apart
            for k0, K in ((201, 50), (211, 40)):
                for _ in range(2):
                    _, inputs, traj, init = make_instance(30 + len(runs), (2, 1, 1))
                    cfg = TrainConfig(epochs=3, rollout_mode=mode, window_start=k0, window_len=K)
                    runs.append((init, inputs, traj.outputs, cfg))
        stacked = leo.learning._stacked_loss
        calls = []

        def recorded(static, theta, anchor, inputs, measured, L=None):
            calls.append((static, [
                i for i, run in enumerate(runs)
                if any(np.array_equal(m, run[2][: len(m)]) for m in measured)
            ]))
            return stacked(static, theta, anchor, inputs, measured, L)

        monkeypatch.setattr(leo.learning, "_stacked_loss", recorded)
        together = _lockstep([_train_steps(*run) for run in runs])
        monkeypatch.undo()
        assert len(calls) == 4 * 3
        for static, members in calls:
            assert len(members) == 2
            (cfgs,) = {(runs[i][3].rollout_mode, runs[i][3].window_start, runs[i][3].window_len)
                       for i in members}
            assert (static[4], static[1], static[2]) == cfgs
        for run, got in zip(runs, together):
            assert_same_training(got, train(*run))
