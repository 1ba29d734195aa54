import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from leo.exceptions import ShapeError
from leo.lti_core import (
    LtiParams,
    NoiseRealization,
    RngStream,
    SystemGenConfig,
    Trajectory,
    TrueSystem,
    is_observable,
    is_schur,
    matrix_to_json,
    observability_matrix,
    one_norm,
    pinv,
    random_system,
    simulate_true,
    spectral_radius,
    RANK_RTOL,
    _observable,
    _simulate_stack,
)
from leo.observer import place_observer_poles

A_DEMO = np.array([[1.02, 0.68], [-0.68, 0.34]])
B_DEMO = np.array([[1.5], [0.7]])
C_DEMO = np.array([[1.0, 0.0]])
X0_DEMO = np.array([0.4617, 0.2674])


def demo_true_system():
    n = 2
    return TrueSystem(
        real=LtiParams(A=A_DEMO, B=B_DEMO, C=C_DEMO),
        delta_A=np.zeros((n, n)),
        delta_B=np.zeros((n, 1)),
        delta_C=np.zeros((1, n)),
        x0_real=X0_DEMO,
    )


class TestSimulateTrue:
    def test_single_step_by_hand(self):
        # one hand recursion step: x1 = A x0 + B * 1
        sys = demo_true_system()
        traj = simulate_true(sys, np.ones((1, 1)), NoiseRealization.zero(1, 2, 1), 1)
        assert_allclose(traj.states[1], [2.152766, 0.47696], atol=1e-12)
        assert_allclose(traj.outputs[0], [0.4617], atol=1e-15)

    def test_zero_dynamics(self):
        sys = TrueSystem(
            real=LtiParams(A=np.zeros((2, 2)), B=np.zeros((2, 1)), C=np.eye(2)),
            delta_A=np.zeros((2, 2)),
            delta_B=np.zeros((2, 1)),
            delta_C=np.zeros((2, 2)),
            x0_real=[3.0, -4.0],
        )
        traj = simulate_true(sys, np.ones((10, 1)), NoiseRealization.zero(10, 2, 2), 10)
        assert_allclose(traj.states[1:], 0.0)

    def test_matches_independent_recursion(self):
        gen = RngStream(11).generator()
        sys = random_system(3, 2, 1, gen)
        T = 20
        inputs = gen.normal(0, 1, (T, 2))
        noise = NoiseRealization(w=gen.normal(0, 0.1, (T, 3)), v=gen.normal(0, 0.1, (T + 1, 1)))
        traj = simulate_true(sys, inputs, noise, T)
        # straight-line reference recursion, written independently
        x = sys.x0_real.copy()
        for k in range(T):
            assert_allclose(traj.outputs[k], sys.real.C @ x + noise.v[k], atol=1e-12)
            x = sys.real.A @ x + sys.real.B @ inputs[k] + noise.w[k]
            assert_allclose(traj.states[k + 1], x, atol=1e-12)

    def test_nominal_matches_clean_model(self):
        # zero perturbations + zero noise: real simulation equals the ideal recursion
        sys = demo_true_system()
        T = 30
        gen = RngStream(1).generator()
        inputs = gen.normal(0, 1, (T, 1))
        traj = simulate_true(sys, inputs, NoiseRealization.zero(T, 2, 1), T)
        nom = sys.nominal()
        x = sys.x0_real.copy()
        for k in range(T):
            x = nom.A @ x + nom.B @ inputs[k]
            assert_allclose(traj.states[k + 1], x, atol=1e-12)

    def test_dimension_mismatch(self):
        sys = demo_true_system()
        with pytest.raises(ShapeError):
            simulate_true(sys, np.ones((5, 3)), NoiseRealization.zero(5, 2, 1), 5)
        with pytest.raises(ShapeError):
            simulate_true(sys, np.ones((5, 1)), NoiseRealization.zero(3, 2, 1), 5)

    def test_negative_horizon_rejected(self):
        sys = demo_true_system()
        noise = NoiseRealization.zero(5, 2, 1)
        with pytest.raises(ShapeError):
            simulate_true(sys, np.ones((5, 1)), noise, -1)
        assert simulate_true(sys, np.ones((5, 1)), noise, 0).states.shape == (1, 2)

    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 1, 1), (3, 3, 2), (4, 2, 3), (4, 4, 3), (5, 3, 2)])
    def test_stack_is_bitwise_each_system_alone(self, dims):
        # the Monte Carlo batch simulates its trials' true systems as one
        # stack; each must be bitwise simulate_true's trajectory and the
        # one-system step loop's, whose operation order it keeps
        n, p, q = dims
        gen = RngStream(17).generator()
        systems = [random_system(n, p, q, gen) for _ in range(5)]
        T = 60
        inputs = gen.normal(0, 1, (5, T, p))
        w, v = gen.normal(0, 0.1, (5, T, n)), gen.normal(0, 0.1, (5, T + 1, q))
        inputs[0, :3], w[0, :3] = 0.0, -0.0
        states, outputs = _simulate_stack(
            *(np.stack(a) for a in zip(*((s.real.A, s.real.B, s.real.C, s.x0_real) for s in systems))),
            inputs, w, v,
        )
        for i, sys in enumerate(systems):
            traj = simulate_true(sys, inputs[i], NoiseRealization(w=w[i], v=v[i]), T)
            A, B, C = sys.real.A, sys.real.B, sys.real.C
            ref_states, ref_outputs = np.empty((T + 1, n)), np.empty((T + 1, q))
            ref_states[0] = sys.x0_real
            for k in range(T):
                ref_outputs[k] = C @ ref_states[k] + v[i, k]
                ref_states[k + 1] = A @ ref_states[k] + B @ inputs[i, k] + w[i, k]
            ref_outputs[T] = C @ ref_states[T] + v[i, T]
            for got in (states[i], traj.states):
                assert got.tobytes() == ref_states.tobytes()
            for got in (outputs[i], traj.outputs):
                assert got.tobytes() == ref_outputs.tobytes()

    @pytest.mark.parametrize("horizon", [3.9, 2.0, "3", float("nan")])
    def test_non_integer_horizon_rejected(self, horizon):
        sys = demo_true_system()
        noise = NoiseRealization.zero(5, 2, 1)
        with pytest.raises(ShapeError, match=f"horizon must be an integer, got {horizon!r}"):
            simulate_true(sys, np.ones((5, 1)), noise, horizon)
        traj = simulate_true(sys, np.ones((5, 1)), noise, np.int64(3))
        assert traj.states.shape == (4, 2)


class TestObservabilityMatrix:
    def test_identity_powers(self):
        O = observability_matrix(np.eye(2), [[1.0, 0.0]], 2)
        assert_allclose(O, [[1, 0], [1, 0]])

    def test_demo_pair(self):
        O = observability_matrix(A_DEMO, C_DEMO, 2)
        assert_allclose(O, [[1.0, 0.0], [1.02, 0.68]], atol=1e-15)

    def test_single_block_is_c(self):
        C = np.array([[0.3, -0.7], [1.0, 2.0]])
        assert_allclose(observability_matrix(np.eye(2), C, 1), C)

    @pytest.mark.parametrize("N", [0, -1, 1.5, np.nan, "2", None])
    def test_bad_horizon_names_n(self, N):
        # ShapeError is a ValueError, so callers catching N < 1 as one still do
        with pytest.raises(ShapeError, match="N must be an integer >= 1"):
            observability_matrix(np.eye(2), [[1.0, 0.0]], N)

    def test_blocks_equal_repeated_multiplication(self):
        gen = RngStream(5).generator()
        for _ in range(20):
            n = int(gen.integers(1, 5))
            q = int(gen.integers(1, 4))
            N = int(gen.integers(1, 6))
            A = gen.standard_normal((n, n))
            C = gen.standard_normal((q, n))
            O = observability_matrix(A, C, N)
            for j in range(N):
                expected = C @ np.linalg.matrix_power(A, j)
                assert_allclose(O[j * q : (j + 1) * q], expected, atol=1e-10)


class TestIsObservable:
    def test_identity_pair_unobservable(self):
        assert not is_observable(np.eye(2), [[1.0, 0.0]])

    def test_demo_pair_observable(self):
        assert is_observable(A_DEMO, C_DEMO)

    def test_distinct_diagonal_observable(self):
        assert is_observable(np.diag([0.5, 0.3]), [[1.0, 1.0]])

    def test_decision_is_the_stack_rank_test(self):
        # one SVD of the stack decides, with the RANK_RTOL cutoff
        gen = RngStream(6).generator()
        for n, q in ((2, 1), (3, 2), (4, 1), (4, 3)):
            for _ in range(5):
                A, C = gen.standard_normal((n, n)), gen.standard_normal((q, n))
                s = np.linalg.svd(observability_matrix(A, C, n), compute_uv=False)
                assert _observable(A[None], C[None]).tolist() == [s[-1] > RANK_RTOL * s[0]]
        assert _observable(np.eye(2)[None], np.array([[[1.0, 0.0]]])).tolist() == [False]
        assert _observable(np.eye(2)[None], np.array([[[0.0, 0.0]]])).tolist() == [False]


def observable_reference(A, C):
    """The one-pair body that the stacked decision replaced; kept as the
    reference it must equal."""
    blocks = [C]
    for _ in range(A.shape[0] - 1):
        blocks.append(blocks[-1] @ A)
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    return not s[-1] <= RANK_RTOL * s[0]


class TestStackedObservable:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 10),
        n=st.integers(1, 4),
        data=st.data(),
    )
    def test_rows_equal_one_pair_calls(self, seed, batch, n, data):
        q = data.draw(st.integers(1, n))
        gen = np.random.default_rng(seed)
        A = gen.standard_normal((batch, n, n)) * data.draw(st.sampled_from([1e-3, 1.0, 30.0]))
        C = gen.standard_normal((batch, q, n))
        # an unobservable pair (for n = 1 only C = 0 is) and a zero C
        unobservable = data.draw(st.lists(st.integers(0, batch - 1), max_size=2, unique=True))
        for k, b in enumerate(unobservable):
            if k == 0 and n > 1:
                A[b], C[b] = np.eye(n), 0.0
                C[b, :, 0] = 1.0  # every output sees only the first state
            else:
                C[b] = 0.0
        got = _observable(A, C)
        assert got.dtype == bool and got.shape == (batch,)
        for b in range(batch):
            assert got[b] == _observable(A[b : b + 1], C[b : b + 1])[0]
            assert got[b] == observable_reference(A[b], C[b])
        for b in unobservable:
            assert not got[b]

    def test_stack_of_one_pair_is_a_one_element_mask(self):
        value = _observable(A_DEMO[None], C_DEMO[None])
        assert value.tolist() == [observable_reference(A_DEMO, C_DEMO)] == [True]


class TestSpectralRadius:
    def test_diagonal(self):
        assert spectral_radius(0.5 * np.eye(3)) == pytest.approx(0.5)
        assert is_schur(0.5 * np.eye(3))

    def test_demo_complex_pair(self):
        # the characteristic polynomial has a complex pair; |eig| = sqrt(det)
        assert spectral_radius(A_DEMO) == pytest.approx(np.sqrt(0.8092), abs=1e-12)
        assert is_schur(A_DEMO)

    def test_unstable_diagonal(self):
        A = np.array([[1.1, 0.0], [0.0, 0.2]])
        assert spectral_radius(A) == pytest.approx(1.1)
        assert not is_schur(A)

    def test_matches_characteristic_roots(self):
        # analytic characteristic-polynomial coefficients (trace/determinant
        # identities), roots via the polynomial companion matrix: a route
        # independent of eigvals(A)
        gen = RngStream(3).generator()
        for _ in range(30):
            n = int(gen.integers(1, 4))
            A = gen.standard_normal((n, n))
            if n == 1:
                coeffs = [1.0, -A[0, 0]]
            elif n == 2:
                coeffs = [1.0, -np.trace(A), np.linalg.det(A)]
            else:
                t1, t2 = np.trace(A), np.trace(A @ A)
                coeffs = [1.0, -t1, 0.5 * (t1**2 - t2), -np.linalg.det(A)]
            roots = np.roots(coeffs)
            assert spectral_radius(A) == pytest.approx(
                float(np.max(np.abs(roots))), abs=1e-8
            )


class TestPinv:
    def test_identity(self):
        assert_allclose(pinv(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal_rank_deficient(self):
        assert_allclose(pinv([[2.0, 0.0], [0.0, 0.0]]), [[0.5, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_left_inverse_of_tall_matrix(self):
        gen = RngStream(8).generator()
        M = gen.standard_normal((4, 2))
        assert_allclose(pinv(M) @ M, np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 2), (4, 4), (6, 5), (5, 6)])
    def test_penrose_conditions(self, shape):
        gen = RngStream(shape[0] * 10 + shape[1]).generator()
        for deficient in (False, True):
            M = gen.standard_normal(shape)
            if deficient and min(shape) > 1:
                M[:, -1] = M[:, 0]  # duplicate a column
            P = pinv(M)
            assert_allclose(M @ P @ M, M, atol=1e-10)
            assert_allclose(P @ M @ P, P, atol=1e-10)
            assert_allclose((M @ P).T, M @ P, atol=1e-10)
            assert_allclose((P @ M).T, P @ M, atol=1e-10)


class TestRandomSystem:
    def test_same_seed_bitwise_identical(self):
        a = random_system(3, 2, 1, RngStream(123))
        b = random_system(3, 2, 1, RngStream(123))
        assert np.array_equal(a.real.A, b.real.A)
        assert np.array_equal(a.delta_A, b.delta_A)
        assert np.array_equal(a.x0_real, b.x0_real)

    def test_all_draws_stable_and_observable(self):
        for i in range(1000):
            sys = random_system(3, 2, 1, RngStream(77, (i,)))
            assert is_schur(sys.real.A)
            assert is_observable(sys.real.A, sys.real.C)
            assert spectral_radius(sys.real.A) == pytest.approx(0.9, abs=1e-9)

    def test_perturbation_statistics(self):
        samples = []
        for i in range(2500):
            sys = random_system(2, 1, 1, RngStream(31, (i,)))
            samples.append(sys.delta_A.ravel())
        std = float(np.std(np.concatenate(samples)))
        assert abs(std - 0.05) < 0.005

    def test_perturbation_std_override(self):
        sys = random_system(2, 1, 1, RngStream(4), SystemGenConfig(perturbation_std=0.0))
        assert_allclose(sys.delta_A, 0.0)
        assert_allclose(sys.nominal().A, sys.real.A)


class TestRngStream:
    def test_repeatable(self):
        s = RngStream(42, (1, 2))
        assert_allclose(s.generator().normal(size=5), s.generator().normal(size=5))

    def test_substreams_differ(self):
        base = RngStream(42)
        a = base.substream(0).generator().normal(size=5)
        b = base.substream(1).generator().normal(size=5)
        assert not np.allclose(a, b)


class TestTypesAndSerialization:
    def test_trajectory_length_invariants(self):
        with pytest.raises(ShapeError):
            Trajectory(inputs=np.ones((5, 1)), states=np.ones((5, 2)), outputs=np.ones((6, 1)))
        with pytest.raises(ShapeError):
            Trajectory(inputs=np.ones((5, 1)), states=np.ones((6, 2)), outputs=np.ones((5, 1)))

    def test_lti_params_validation(self):
        with pytest.raises(ShapeError):
            LtiParams(A=np.ones((2, 3)), B=np.ones((2, 1)), C=np.ones((1, 2)))
        with pytest.raises(ShapeError):
            LtiParams(A=np.eye(2), B=np.ones((2, 3)), C=np.ones((1, 2)))  # p > n
        with pytest.raises(ShapeError):
            LtiParams(A=np.eye(2), B=np.full((2, 1), np.nan), C=np.ones((1, 2)))

    def test_matrix_to_json_layout(self):
        M = np.array([[1.5, -2.25], [0.0, 1e-17]])
        obj = matrix_to_json(M)
        assert obj["rows"] == 2 and obj["cols"] == 2
        assert obj["data"] == [1.5, -2.25, 0.0, 1e-17]  # row-major

    @pytest.mark.parametrize("A", [np.ones((2, 3)), 1.0], ids=["non-square", "0-d"])
    @pytest.mark.parametrize("call", [
        lambda A, C: observability_matrix(A, C, 2),
        is_observable,
        lambda A, C: place_observer_poles(A, C, [0.1, 0.2]),
    ], ids=["observability_matrix", "is_observable", "place_observer_poles"])
    def test_a_that_is_not_a_square_matrix_is_a_shape_error(self, call, A):
        with pytest.raises(ShapeError, match="A must be"):
            call(A, np.ones((1, 2)))

    def test_one_norm_conventions(self):
        assert one_norm([1.0, -2.0, 3.0]) == 6.0
        assert one_norm([[1.0, -4.0], [2.0, 0.0]]) == 4.0  # max column sum
