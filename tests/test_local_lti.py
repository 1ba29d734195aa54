import numpy as np
import pytest
from numpy.testing import assert_allclose

from leo.exceptions import RankDeficientError, SingularMatrixError
from leo.lti_core import LtiParams, RngStream, one_norm, random_system
from leo.local_lti import (
    TrajectoryWindow,
    back_solve_initial_state,
    check_back_solve_round_trip,
    check_initial_state_gap_bound,
    check_local_fit_replay,
    check_make_invertible,
    fit_local_lti,
    initial_state_gap_bound,
    make_invertible,
    stack_inputs,
    stacked_operators,
)


def window_from_lti(params, x0, inputs, start, width):
    """Cut a window out of a plain constant-coefficient simulation."""
    x = np.asarray(x0, dtype=float)
    states, outputs = [x], []
    for u in inputs:
        outputs.append(params.C @ x)
        x = params.A @ x + params.B @ u
        states.append(x)
    X = np.column_stack(states[start : start + width])
    X_next = np.column_stack(states[start + 1 : start + width + 1])
    U = np.column_stack(inputs[start : start + width])
    Y = np.column_stack(outputs[start : start + width])
    return TrajectoryWindow(X=X, X_next=X_next, U=U, Y=Y, start=start)


def replay(fitted, w):
    """Max deviation of the fitted model's replay from the window."""
    x = w.X[:, 0].copy()
    worst = 0.0
    for j in range(w.width):
        worst = max(worst, float(np.abs(x - w.X[:, j]).max()))
        worst = max(worst, float(np.abs(fitted.C @ x - w.Y[:, j]).max()))
        x = fitted.A @ x + fitted.B @ w.U[:, j]
    return worst


class TestFitLocalLti:
    def test_lti_window_is_its_own_match(self):
        gen = RngStream(2).generator()
        sys = random_system(3, 2, 2, gen)
        inputs = gen.normal(0, 1, (10, 2))
        w = window_from_lti(sys.real, sys.x0_real, inputs, start=3, width=3)
        fitted = fit_local_lti(w)
        assert replay(fitted, w) < 1e-8

    def test_time_varying_window(self):
        gen = RngStream(7).generator()
        n, p, q, N = 2, 1, 1, 2
        A = gen.standard_normal((n, n)) * 0.6
        B = gen.standard_normal((n, p))
        C = gen.standard_normal((q, n))
        x = gen.standard_normal(n)
        states, inputs, outputs = [x], [], []
        for _ in range(N):
            Ak = A + 0.05 * gen.standard_normal((n, n))
            Bk = B + 0.05 * gen.standard_normal((n, p))
            Ck = C + 0.05 * gen.standard_normal((q, n))
            u = gen.standard_normal(p)
            inputs.append(u)
            outputs.append(Ck @ states[-1])
            states.append(Ak @ states[-1] + Bk @ u)
        w = TrajectoryWindow(
            X=np.column_stack(states[:N]),
            X_next=np.column_stack(states[1 : N + 1]),
            U=np.column_stack(inputs),
            Y=np.column_stack(outputs),
        )
        assert replay(fit_local_lti(w), w) < 1e-8

    def test_duplicate_state_columns_rejected(self):
        x = np.array([1.0, 2.0])
        w = TrajectoryWindow(
            X=np.column_stack([x, x]),
            X_next=np.ones((2, 2)),
            U=np.ones((1, 2)),
            Y=np.ones((1, 2)),
        )
        with pytest.raises(RankDeficientError):
            fit_local_lti(w)

    def test_replay_property_over_random_windows(self):
        worst, threshold = check_local_fit_replay(cases=100, seed=10)
        assert worst <= threshold


class TestBackSolve:
    def test_zero_horizon_returns_target(self):
        params = LtiParams(A=np.eye(2), B=np.zeros((2, 1)), C=np.eye(2)[:1])
        out = back_solve_initial_state(params, np.zeros((0, 1)), [4.0, 5.0], 0)
        assert_allclose(out, [4.0, 5.0])

    def test_scalar_geometric_inversion(self):
        params = LtiParams(A=0.5 * np.eye(2), B=np.zeros((2, 1)), C=np.eye(2)[:1])
        out = back_solve_initial_state(params, np.zeros((3, 1)), [1.0, 1.0], 3)
        assert_allclose(out, [8.0, 8.0], atol=1e-12)

    def test_round_trip_random_system(self):
        gen = RngStream(13).generator()
        A = gen.standard_normal((3, 3))
        A *= 0.95 / max(np.abs(np.linalg.eigvals(A)))
        params = LtiParams(A=A, B=gen.standard_normal((3, 2)), C=np.eye(3)[:1])
        inputs = gen.normal(0, 1, (10, 2))
        target = gen.normal(0, 1, 3)
        x = back_solve_initial_state(params, inputs, target, 10)
        for k in range(10):
            x = params.A @ x + params.B @ inputs[k]
        assert np.abs(x - target).sum() < 1e-6

    def test_singular_transition_rejected(self):
        params = LtiParams(
            A=np.array([[1.0, 1.0], [1.0, 1.0]]), B=np.zeros((2, 1)), C=np.eye(2)[:1]
        )
        with pytest.raises(SingularMatrixError):
            back_solve_initial_state(params, np.zeros((2, 1)), [1.0, 1.0], 2)

    def test_round_trip_property(self):
        worst, threshold = check_back_solve_round_trip(cases=100, seed=3)
        assert worst <= threshold


class TestMakeInvertible:
    def test_invertible_passthrough(self):
        A = np.array([[2.0, 0.0], [0.0, 3.0]])
        assert make_invertible(A, 0.1) is A

    def test_zero_matrix(self):
        out = make_invertible(np.zeros((2, 2)), 0.1)
        assert np.linalg.svd(out, compute_uv=False)[-1] > 1e-10
        assert one_norm(out) < 0.1

    def test_rank_one_matrix(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        out = make_invertible(A, 1e-3)
        assert np.linalg.svd(out, compute_uv=False)[-1] > 1e-10
        assert one_norm(out - A) < 1e-3

    def test_too_small_delta_raises(self):
        # every nudge below the singularity tolerance leaves the matrix singular
        with pytest.raises(SingularMatrixError):
            make_invertible(np.zeros((2, 2)), 1e-13)

    def test_property_over_singular_inputs(self):
        worst, threshold = check_make_invertible(cases=10_000, seed=5)
        assert worst <= threshold


class TestStackedOperators:
    def test_single_step(self):
        params = LtiParams(A=np.eye(2), B=np.ones((2, 1)), C=[[1.0, 2.0]])
        ops = stacked_operators(params, 1)
        assert_allclose(ops.O, [[1.0, 2.0]])
        assert_allclose(ops.Gamma, np.zeros((1, 1)))

    def test_blocks_match_direct_products(self):
        gen = RngStream(19).generator()
        params = LtiParams(
            A=gen.standard_normal((2, 2)),
            B=gen.standard_normal((2, 1)),
            C=gen.standard_normal((1, 2)),
        )
        N = 3
        ops = stacked_operators(params, N)
        for i in range(N):
            assert_allclose(
                ops.O[i : i + 1], params.C @ np.linalg.matrix_power(params.A, i), atol=1e-12
            )
            for j in range(N):
                block = ops.Gamma[i : i + 1, j : j + 1]
                if i > j:
                    expected = params.C @ np.linalg.matrix_power(params.A, i - j - 1) @ params.B
                    assert_allclose(block, expected, atol=1e-12)
                else:
                    assert_allclose(block, 0.0)

    def test_stacked_output_identity(self):
        gen = RngStream(21).generator()
        sys = random_system(3, 2, 2, gen)
        params = sys.real
        N = 5
        inputs = gen.normal(0, 1, (N, 2))
        x = sys.x0_real.copy()
        outputs = []
        for k in range(N):
            outputs.append(params.C @ x)
            x = params.A @ x + params.B @ inputs[k]
        stacked_y = np.concatenate(outputs)
        ops = stacked_operators(params, N)
        predicted = ops.O @ sys.x0_real + ops.Gamma @ stack_inputs(inputs, N)
        assert_allclose(predicted, stacked_y, atol=1e-10)


class TestInitialStateGapBound:
    def test_identical_systems_give_zero(self):
        gen = RngStream(23).generator()
        sys = random_system(2, 1, 1, gen)
        U = stack_inputs(gen.normal(0, 1, (2, 1)), 2)
        assert initial_state_gap_bound(sys.real, sys.real, [1.0, 2.0], U, 2) == 0.0

    def test_bound_dominates_measured_gap(self):
        worst, threshold = check_initial_state_gap_bound(cases=100, seed=1)
        assert worst <= threshold

    def test_input_term_scales_linearly(self):
        gen = RngStream(29).generator()
        sys = random_system(2, 1, 1, gen)
        p1 = sys.real
        p2 = LtiParams(A=p1.A + 0.01, B=p1.B + 0.01, C=p1.C + 0.01)
        x2 = np.array([0.5, -1.0])
        U = stack_inputs(gen.normal(0, 1, (3, 1)), 3)
        b_zero = initial_state_gap_bound(p1, p2, x2, 0.0 * U, 3)
        b_one = initial_state_gap_bound(p1, p2, x2, U, 3)
        b_two = initial_state_gap_bound(p1, p2, x2, 2.0 * U, 3)
        assert b_two - b_zero == pytest.approx(2.0 * (b_one - b_zero), rel=1e-12)

    def test_rank_deficient_stack_rejected(self):
        p1 = LtiParams(A=np.eye(2), B=np.ones((2, 1)), C=[[1.0, 0.0]])
        with pytest.raises(RankDeficientError):
            initial_state_gap_bound(p1, p1, [0.0, 0.0], np.zeros(2), 2)
