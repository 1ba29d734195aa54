"""The affine rollout kernel and its adjoint against per-step reference loops.

Every observer rollout and the training gradient run through
``_affine_rollout``, the one time-step loop; ``_affine_adjoint`` is that
rollout run backwards with M^T. Both take stacks only, so a single run is a
stack of one. The loops below are the forms those paths had before they
shared the kernel: the innovation-form Luenberger recursion, the plain
open-loop recursion, a loss/gradient whose rollout and adjoint run over the
full horizon instead of stopping at the end of the loss window, and the
per-trial forward and backward loops the stacked kernel replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leo.learning import LearnableParams, TrainConfig, gradient, loss
from leo.lti_core import (
    LtiParams,
    NoiseRealization,
    RngStream,
    _affine_adjoint,
    _affine_rollout,
    random_system,
    simulate_true,
)
from leo.observer import (
    default_observer_poles,
    place_observer_poles,
    run_luenberger,
    run_open_loop,
)

DIMS = [(2, 1, 1), (3, 2, 1), (4, 3, 2), (4, 4, 3)]
FIELDS = ("A_hat", "B_hat", "C_hat", "x0_hat")
RTOL = 1e-12
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def seeded_instance(seed, dims, T=260):
    """Noisy data of a random stable system, a perturbed start and its gain."""
    n, p, q = dims
    gen = RngStream(seed, (77,)).generator()
    sys = random_system(n, p, q, gen)
    inputs = gen.normal(0, 1, (T, p))
    noise = NoiseRealization(
        w=gen.normal(0, 0.1, (T, n)), v=gen.normal(0, 0.1, (T + 1, q))
    )
    traj = simulate_true(sys, inputs, noise, T)
    x0_hat = sys.x0_real + gen.normal(0, 10.0, n)
    params = LearnableParams.from_lti(sys.nominal(), x0_hat)
    gain = place_observer_poles(params.A_hat, params.C_hat, default_observer_poles(n))
    return params, gain, inputs, traj.outputs


def assert_close_rel(actual, reference, scale=None):
    """Max deviation at most RTOL times ``scale``, by default the reference's
    largest magnitude."""
    actual, reference = np.asarray(actual), np.asarray(reference)
    if scale is None:
        scale = np.abs(reference).max()
    assert np.abs(actual - reference).max() <= RTOL * max(scale, 1e-300)


def luenberger_reference(A, B, C, L, inputs, measured, x0):
    states = [np.asarray(x0, dtype=float)]
    for k in range(inputs.shape[0]):
        x = states[-1]
        states.append(A @ x + B @ inputs[k] + L @ (measured[k] - C @ x))
    return np.array(states)


def open_loop_reference(A, B, inputs, x0):
    states = [np.asarray(x0, dtype=float)]
    for k in range(inputs.shape[0]):
        states.append(A @ states[-1] + B @ inputs[k])
    return np.array(states)


def full_horizon_loss_and_gradient(params, L, inputs, measured, cfg, init):
    """Loss and gradient with the rollout and adjoint run to the horizon T."""
    A, B, C, x0 = params.A_hat, params.B_hat, params.C_hat, params.x0_hat
    n, p, q = params.dims
    T = inputs.shape[0]
    k0, K = cfg.window_start, cfg.window_len
    M = A if L is None else A - L @ C
    forcing = inputs @ B.T if L is None else inputs @ B.T + measured[:T] @ L.T
    states = np.empty((T + 1, n))
    states[0] = x0
    for k in range(T):
        states[k + 1] = M @ states[k] + forcing[k]
    window = slice(k0, k0 + K + 1)
    residuals = measured[window] - states[window] @ C.T
    lams = cfg.resolved_lambdas(n, p, q)
    deltas = [A - init.A_hat, B - init.B_hat, C - init.C_hat]
    total = float(np.abs(residuals).mean(axis=1).sum() / K) + sum(
        lam * np.abs(d).mean() for lam, d in zip(lams, deltas)
    )

    S = np.zeros((T + 1, q))
    S[window] = np.sign(residuals) / (K * q)
    direct = -S @ C
    adj = np.empty_like(states)
    adj[T] = direct[T]
    for k in range(T - 1, -1, -1):
        adj[k] = direct[k] + M.T @ adj[k + 1]
    gA = adj[1:].T @ states[:T]
    gB = adj[1:].T @ inputs
    gC = -(S.T @ states)
    if L is not None:
        gC -= L.T @ gA
    grads = [gA, gB, gC]
    for i, (lam, d) in enumerate(zip(lams, deltas)):
        grads[i] = grads[i] + lam * np.sign(d) / d.size
    return total, dict(zip(FIELDS, grads + [adj[0]]))


class TestRolloutsMatchReferenceLoops:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dims", DIMS)
    def test_luenberger_matches_innovation_form(self, seed, dims):
        params, L, inputs, measured = seeded_instance(seed, dims)
        lti = params.as_lti()
        roll = run_luenberger(lti, L, inputs, measured, params.x0_hat)
        ref = luenberger_reference(lti.A, lti.B, lti.C, L, inputs, measured, params.x0_hat)
        assert roll.states.shape == ref.shape
        # The two forms round differently in A x and L C x, whose sizes can
        # far exceed the state's when a large gain cancels them, so the
        # tolerance is relative to those summands.
        summands = np.abs(ref) @ (np.abs(lti.A) + np.abs(L) @ np.abs(lti.C)).T
        assert_close_rel(roll.states, ref, summands.max())
        c_norm = np.abs(lti.C).sum(axis=1).max()
        assert_close_rel(roll.outputs, ref @ lti.C.T, c_norm * summands.max())

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dims", DIMS)
    def test_open_loop_matches_plain_recursion(self, seed, dims):
        params, _, inputs, _ = seeded_instance(seed, dims)
        lti = params.as_lti()
        roll = run_open_loop(lti, inputs, params.x0_hat)
        ref = open_loop_reference(lti.A, lti.B, inputs, params.x0_hat)
        assert roll.states.shape == ref.shape
        assert_close_rel(roll.states, ref)


class TestWindowTruncation:
    @pytest.mark.parametrize("mode", ["luenberger", "open_loop"])
    @pytest.mark.parametrize("dims", DIMS)
    def test_matches_full_horizon_loss_and_gradient(self, mode, dims):
        init, L, inputs, measured = seeded_instance(5, dims)
        n, p, q = dims
        gen = RngStream(5, (78,)).generator()
        params = LearnableParams(
            A_hat=init.A_hat + gen.normal(0, 0.01, (n, n)),
            B_hat=init.B_hat + gen.normal(0, 0.01, (n, p)),
            C_hat=init.C_hat + gen.normal(0, 0.01, (q, n)),
            x0_hat=init.x0_hat + gen.normal(0, 0.1, n),
        )
        cfg = TrainConfig(rollout_mode=mode)
        assert inputs.shape[0] > cfg.window_start + cfg.window_len
        gain = L if mode == "luenberger" else None
        ref_total, ref_grads = full_horizon_loss_and_gradient(
            params, gain, inputs, measured, cfg, init
        )
        total = loss(params, gain, inputs, measured, cfg, init=init).total
        grads = gradient(params, gain, inputs, measured, cfg, init=init)
        assert total == pytest.approx(ref_total, rel=RTOL)
        for field in FIELDS:
            assert_close_rel(getattr(grads, field), ref_grads[field])


def stable_matrix(gen, n):
    """Random n x n matrix scaled to spectral norm 0.95 (no growth)."""
    M = gen.standard_normal((n, n))
    return 0.95 * M / np.linalg.norm(M, 2)


class TestKernelProperties:
    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        steps=st.integers(1, 40),
    )
    def test_adjoint_identity(self, seed, n, steps):
        # for x_0 = 0: sum_k <d_k, x_k> = sum_k <lambda_{k+1}, f_k>
        gen = np.random.default_rng(seed)
        M = stable_matrix(gen, n)
        forcing = gen.standard_normal((steps, n))
        direct = gen.standard_normal((steps + 1, n))
        states = _affine_rollout(M[None], np.zeros((1, n)), forcing[None])[0]
        adj = _affine_adjoint(M[None], direct[None])[0]
        lhs = np.einsum("ki,ki->", direct, states)
        rhs = np.einsum("ki,ki->", adj[1:], forcing)
        scale = (
            np.abs(direct).sum() * np.abs(states).max()
            + np.abs(adj).max() * np.abs(forcing).sum()
        )
        assert abs(lhs - rhs) <= 1e-12 * scale

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        dims=st.sampled_from(DIMS),
        steps=st.integers(1, 40),
    )
    def test_zero_gain_luenberger_equals_open_loop(self, seed, dims, steps):
        n, p, q = dims
        gen = np.random.default_rng(seed)
        lti = LtiParams(
            A=stable_matrix(gen, n),
            B=gen.standard_normal((n, p)),
            C=gen.standard_normal((q, n)),
        )
        inputs = gen.standard_normal((steps, p))
        measured = gen.standard_normal((steps + 1, q))
        x0 = gen.standard_normal(n)
        closed = run_luenberger(lti, np.zeros((n, q)), inputs, measured, x0)
        open_ = run_open_loop(lti, inputs, x0)
        assert np.array_equal(closed.states, open_.states)
        assert np.array_equal(closed.outputs, open_.outputs)


def plain_rollout(M, x0, forcing):
    """The per-trial loop the stacked kernel replaced."""
    states = np.empty((forcing.shape[0] + 1, M.shape[0]))
    states[0] = x0
    for k in range(forcing.shape[0]):
        states[k + 1] = M @ states[k] + forcing[k]
    return states


def plain_adjoint(M, direct):
    adj = np.empty_like(direct)
    adj[-1] = direct[-1]
    for k in range(direct.shape[0] - 2, -1, -1):
        adj[k] = direct[k] + M.T @ adj[k + 1]
    return adj


class TestStackedKernel:
    # Training amplifies last-bit differences, so batching must be exact.
    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 8),
        n=st.integers(1, 4),
        steps=st.integers(1, 40),
    )
    def test_rows_equal_per_row_calls(self, seed, batch, n, steps):
        gen = np.random.default_rng(seed)
        M = 0.6 * gen.standard_normal((batch, n, n))
        x0 = gen.standard_normal((batch, n))
        forcing = gen.standard_normal((batch, steps, n))
        direct = gen.standard_normal((batch, steps + 1, n))
        states = _affine_rollout(M, x0, forcing)
        adj = _affine_adjoint(M, direct)
        assert states.shape == adj.shape == (batch, steps + 1, n)
        for b in range(batch):
            assert states[b].flags.c_contiguous and adj[b].flags.c_contiguous
            one = slice(b, b + 1)
            assert np.array_equal(states[b], _affine_rollout(M[one], x0[one], forcing[one])[0])
            assert np.array_equal(states[b], plain_rollout(M[b], x0[b], forcing[b]))
            assert np.array_equal(adj[b], _affine_adjoint(M[one], direct[one])[0])
            assert np.array_equal(adj[b], plain_adjoint(M[b], direct[b]))

    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(2, 8),
        n=st.integers(1, 4),
        steps=st.integers(5, 40),
        data=st.data(),
    )
    def test_overflowing_row_leaves_the_others_unchanged(self, seed, batch, n, steps, data):
        bad = data.draw(st.integers(0, batch - 1))
        gen = np.random.default_rng(seed)
        M = 0.6 * gen.standard_normal((batch, n, n))
        M[bad] = 1e200 * gen.standard_normal((n, n))
        x0 = gen.standard_normal((batch, n))
        forcing = gen.standard_normal((batch, steps, n))
        direct = gen.standard_normal((batch, steps + 1, n))
        with np.errstate(over="ignore", invalid="ignore"):
            states = _affine_rollout(M, x0, forcing)
            adj = _affine_adjoint(M, direct)
        assert not np.isfinite(states[bad]).all()
        assert not np.isfinite(adj[bad]).all()
        for b in range(batch):
            if b != bad:
                assert np.array_equal(states[b], plain_rollout(M[b], x0[b], forcing[b]))
                assert np.array_equal(adj[b], plain_adjoint(M[b], direct[b]))


class TestStackedLinalg:
    # Gain synthesis serves a training batch with these stacked calls, so
    # each item must equal its own call bitwise, as in the placement code.
    @PROPERTY_SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 10),
        n=st.integers(1, 4),
        data=st.data(),
    )
    def test_items_equal_per_item_calls(self, seed, batch, n, data):
        q = data.draw(st.integers(1, n))
        m = n * n
        gen = np.random.default_rng(seed)
        M = gen.standard_normal((batch, n, n))
        K = gen.standard_normal((batch, m, m))
        regular = np.ones(batch, dtype=bool)
        if m > 1 and data.draw(st.booleans()):
            K[0, :, -1] = K[0, :, 0]  # one rank-deficient item
            regular[0] = False
        rhs = gen.standard_normal((batch, m))
        C = gen.standard_normal((batch, q, n))
        G = gen.standard_normal((q, n))
        eig = np.linalg.eigvals(M)
        sv = np.linalg.svd(M, compute_uv=False)
        x = np.empty_like(rhs)
        x[regular] = np.linalg.solve(K[regular], rhs[regular][..., None])[..., 0]
        L = np.linalg.solve(M, G.T)
        CtG = C.transpose(0, 2, 1) @ G
        for b in range(batch):
            assert np.array_equal(eig[b], np.linalg.eigvals(M[b]))
            assert np.array_equal(sv[b], np.linalg.svd(M[b], compute_uv=False))
            if regular[b]:
                assert np.array_equal(x[b], np.linalg.solve(K[b], rhs[b]))
            assert np.array_equal(L[b], np.linalg.solve(M[b], G.T))
            assert np.array_equal(CtG[b], C[b].T @ G)
