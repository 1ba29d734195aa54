import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import leo.observer
from leo.exceptions import PolePlacementInfeasible, ShapeError, SynthesisFailureError
from leo.lti_core import (
    LtiParams,
    RngStream,
    condition_number,
    observability_matrix,
    random_system,
    spectral_radius,
)
from leo.observer import (
    CoordinateTransform,
    ObserverGain,
    apply_transform,
    conditioning_transform,
    default_observer_poles,
    invert_transform,
    max_spectrum_deviation,
    place_observer_poles,
    run_luenberger,
    run_open_loop,
    _MAX_G_ATTEMPTS,
    _checked_poles,
    _place_poles,
    _placement_constants,
    _spectrum_block_diag,
)

A_DEMO = np.array([[1.02, 0.68], [-0.68, 0.34]])
C_DEMO = np.array([[1.0, 0.0]])

BENCH_DIMS = [
    (2, 1, 1), (2, 2, 1),
    (3, 1, 1), (3, 2, 1), (3, 2, 2), (3, 3, 1), (3, 3, 2),
    (4, 2, 1), (4, 2, 2), (4, 3, 1), (4, 3, 2), (4, 3, 3),
    (4, 4, 1), (4, 4, 2), (4, 4, 3),
]


def attained(A, C, L):
    return np.linalg.eigvals(np.asarray(A) - L @ np.asarray(C))


class TestPlaceObserverPoles:
    def test_scalar_placement_is_forced(self):
        gain = place_observer_poles([[0.5]], [[1.0]], [0.2])
        assert_allclose(gain.L, [[0.3]], atol=1e-12)

    def test_demo_pair(self):
        gain = place_observer_poles(A_DEMO, C_DEMO, [0.2, 0.3])
        dev = max_spectrum_deviation(
            attained(A_DEMO, C_DEMO, gain.L), np.array([0.2, 0.3], dtype=complex)
        )
        assert dev < 1e-6

    def test_desired_equal_to_open_loop_spectrum(self):
        desired = np.linalg.eigvals(A_DEMO)
        gain = place_observer_poles(A_DEMO, C_DEMO, desired)
        dev = max_spectrum_deviation(attained(A_DEMO, C_DEMO, gain.L), desired)
        assert dev < 1e-6

    def test_complex_pair_request(self):
        desired = np.array([0.3 + 0.25j, 0.3 - 0.25j])
        gain = place_observer_poles(A_DEMO, C_DEMO, desired)
        assert max_spectrum_deviation(attained(A_DEMO, C_DEMO, gain.L), desired) < 1e-6

    def test_unobservable_raises(self):
        with pytest.raises(PolePlacementInfeasible):
            place_observer_poles(np.eye(2), [[1.0, 0.0]], [0.2, 0.3])

    def test_unstable_request_rejected(self):
        with pytest.raises(ValueError):
            place_observer_poles(A_DEMO, C_DEMO, [0.2, 1.1])

    def test_non_conjugate_request_rejected(self):
        with pytest.raises(ValueError):
            place_observer_poles(A_DEMO, C_DEMO, [0.2 + 0.1j, 0.3])

    @pytest.mark.parametrize("dims", BENCH_DIMS)
    def test_random_systems_across_benchmark_dims(self, dims):
        n, p, q = dims
        poles = np.asarray(default_observer_poles(n), dtype=complex)
        for t in range(100):
            sys = random_system(n, p, q, RngStream(99, (n, p, q, t)))
            gain = place_observer_poles(sys.real.A, sys.real.C, poles)
            dev = max_spectrum_deviation(attained(sys.real.A, sys.real.C, gain.L), poles)
            assert dev < 1e-6


class TestObserverRollouts:
    def setup_method(self):
        gen = RngStream(17).generator()
        self.sys = random_system(3, 2, 1, gen)
        self.params = self.sys.real
        self.T = 60
        self.inputs = gen.normal(0, 1, (self.T, 2))
        # noiseless truth
        x = self.sys.x0_real.copy()
        states = [x]
        for k in range(self.T):
            x = self.params.A @ x + self.params.B @ self.inputs[k]
            states.append(x)
        self.truth = np.array(states)
        self.measured = self.truth @ self.params.C.T

    def test_zero_gain_equals_open_loop(self):
        x0 = np.array([1.0, -2.0, 0.5])
        closed = run_luenberger(
            self.params, np.zeros((3, 1)), self.inputs, self.measured, x0, self.T
        )
        open_ = run_open_loop(self.params, self.inputs, x0, self.T)
        assert_allclose(closed.states, open_.states, atol=0)

    def test_open_loop_negative_horizon_rejected(self):
        x0 = np.zeros(3)
        with pytest.raises(ShapeError):
            run_open_loop(self.params, self.inputs[:10], x0, horizon=-1)
        assert run_open_loop(self.params, self.inputs[:10], x0, horizon=0).states.shape == (1, 3)

    def test_luenberger_negative_horizon_rejected(self):
        x0, L = np.zeros(3), np.zeros((3, 1))
        with pytest.raises(ShapeError):
            run_luenberger(self.params, L, self.inputs, self.measured, x0, horizon=-3)
        roll = run_luenberger(self.params, L, self.inputs, self.measured, x0, horizon=0)
        assert roll.states.shape == (1, 3)

    def test_exact_start_tracks_exactly(self):
        gain = place_observer_poles(self.params.A, self.params.C, default_observer_poles(3))
        roll = run_luenberger(
            self.params, gain, self.inputs, self.measured, self.sys.x0_real, self.T
        )
        assert_allclose(roll.states, self.truth, atol=1e-12)
        open_roll = run_open_loop(self.params, self.inputs, self.sys.x0_real, self.T)
        assert_allclose(open_roll.states, self.truth, atol=1e-12)

    def test_open_loop_matches_reference_recursion(self):
        gen = RngStream(23).generator()
        params = LtiParams(
            A=0.8 * np.eye(2) + 0.1 * gen.standard_normal((2, 2)),
            B=gen.standard_normal((2, 1)),
            C=np.eye(2),
        )
        inputs = gen.normal(0, 1, (25, 1))
        x0 = gen.normal(0, 1, 2)
        roll = run_open_loop(params, inputs, x0, 25)
        x = x0.copy()
        for k in range(25):
            x = params.A @ x + params.B @ inputs[k]
            assert_allclose(roll.states[k + 1], x, atol=1e-12)

    def test_geometric_error_envelope(self):
        gain = place_observer_poles(self.params.A, self.params.C, default_observer_poles(3))
        T = 200
        gen = RngStream(29).generator()
        inputs = gen.normal(0, 1, (T, 2))
        x = self.sys.x0_real.copy()
        states = [x]
        for k in range(T):
            x = self.params.A @ x + self.params.B @ inputs[k]
            states.append(x)
        truth = np.array(states)
        measured = truth @ self.params.C.T
        roll = run_luenberger(
            self.params, gain, inputs, measured, self.sys.x0_real + [5.0, -3.0, 2.0], T
        )
        err = np.abs(roll.states - truth).sum(axis=1)
        rho = spectral_radius(self.params.A - gain.L @ self.params.C) + 0.05
        # fit the envelope constant on the first 20 steps, check the tail
        c = max(err[k] / rho**k for k in range(21))
        for k in range(21, T + 1):
            assert err[k] <= c * rho**k * (1 + 1e-9) + 1e-12

    def test_error_below_tolerance_by_200(self):
        # exact params, zero noise, Schur error dynamics: error dies out
        gain = place_observer_poles(self.params.A, self.params.C, default_observer_poles(3))
        T = 200
        gen = RngStream(31).generator()
        inputs = gen.normal(0, 1, (T, 2))
        x = self.sys.x0_real.copy()
        states = [x]
        for k in range(T):
            x = self.params.A @ x + self.params.B @ inputs[k]
            states.append(x)
        truth = np.array(states)
        measured = truth @ self.params.C.T
        x0_hat = self.sys.x0_real + np.array([40.0, -30.0, 29.0])  # ||e0||_1 = 99
        roll = run_luenberger(self.params, gain, inputs, measured, x0_hat, T)
        assert np.abs(roll.states[T] - truth[T]).sum() < 1e-6


class TestTransforms:
    def test_identity_passthrough(self):
        params = LtiParams(A=A_DEMO, B=[[1.5], [0.7]], C=C_DEMO)
        tf, out = conditioning_transform(params, threshold=1e8)
        assert tf.is_identity()
        assert_allclose(out.A, params.A)

    def test_strictly_reduces_condition(self):
        # diag(0.9, 0.001) with C = [1, 1] has observability condition ~2.76,
        # so a threshold of 2 forces the transform to fire
        params = LtiParams(A=np.diag([0.9, 0.001]), B=np.ones((2, 1)), C=[[1.0, 1.0]])
        before = condition_number(observability_matrix(params.A, params.C, 2))
        tf, out = conditioning_transform(params, threshold=2.0)
        after = condition_number(observability_matrix(out.A, out.C, 2))
        assert before > 2.0
        assert after < before
        assert not tf.is_identity()

    def test_strictly_reduces_condition_when_nearly_unobservable(self):
        params = LtiParams(
            A=np.diag([0.9, 0.89]), B=np.ones((2, 1)), C=[[1.0, 1e-6]]
        )
        before = condition_number(observability_matrix(params.A, params.C, 2))
        assert before > 10.0
        _, out = conditioning_transform(params, threshold=10.0)
        after = condition_number(observability_matrix(out.A, out.C, 2))
        assert after < before

    def test_round_trip(self):
        gen = RngStream(41).generator()
        params = LtiParams(
            A=gen.standard_normal((3, 3)),
            B=gen.standard_normal((3, 2)),
            C=gen.standard_normal((2, 3)),
        )
        tf = CoordinateTransform.from_matrix(np.eye(3) + 0.4 * gen.standard_normal((3, 3)))
        back = invert_transform(tf, apply_transform(tf, params))
        assert_allclose(back.A, params.A, atol=1e-9)
        assert_allclose(back.B, params.B, atol=1e-9)
        assert_allclose(back.C, params.C, atol=1e-9)

    def test_never_increases_condition(self):
        for t in range(30):
            sys = random_system(3, 2, 1, RngStream(55, (t,)))
            before = condition_number(
                observability_matrix(sys.real.A, sys.real.C, 3)
            )
            tf, out = conditioning_transform(sys.real, threshold=1.0)
            after = condition_number(observability_matrix(out.A, out.C, 3))
            assert after <= before * (1 + 1e-9)

    def test_similarity_invariance_of_outputs(self):
        gen = RngStream(61).generator()
        sys = random_system(3, 2, 2, gen)
        params = sys.real
        T = 100
        inputs = gen.normal(0, 1, (T, 2))
        x0 = gen.normal(0, 1, 3)
        tf = CoordinateTransform.from_matrix(np.eye(3) + 0.5 * gen.standard_normal((3, 3)))
        transformed = apply_transform(tf, params)
        base = run_open_loop(params, inputs, x0, T)
        moved = run_open_loop(transformed, inputs, tf.T @ x0, T)
        assert_allclose(moved.outputs, base.outputs, atol=1e-9)
        assert_allclose(moved.states, base.states @ tf.T.T, atol=1e-9)

    def test_eigenvalues_invariant(self):
        gen = RngStream(67).generator()
        params = LtiParams(
            A=gen.standard_normal((4, 4)),
            B=gen.standard_normal((4, 2)),
            C=gen.standard_normal((2, 4)),
        )
        tf = CoordinateTransform.from_matrix(np.eye(4) + 0.3 * gen.standard_normal((4, 4)))
        out = apply_transform(tf, params)
        assert max_spectrum_deviation(
            np.linalg.eigvals(out.A), np.linalg.eigvals(params.A)
        ) < 1e-9

    def test_transform_inverse_invariant(self):
        with pytest.raises(Exception):
            CoordinateTransform(T=np.eye(2), T_inv=2 * np.eye(2))


class TestObserverGainSerialization:
    def test_json_round_trip(self):
        gain = place_observer_poles(A_DEMO, C_DEMO, [0.2, 0.3])
        back = ObserverGain.from_json(json.loads(json.dumps(gain.to_json())))
        assert_allclose(back.L, gain.L)
        assert back.desired_poles == gain.desired_poles

    def test_placement_tolerance_invariant(self):
        gain = place_observer_poles(A_DEMO, C_DEMO, [0.2, 0.3])
        dev = max_spectrum_deviation(
            attained(A_DEMO, C_DEMO, gain.L),
            np.asarray(gain.desired_poles, dtype=complex),
        )
        assert dev < 1e-6

    def test_transform_maps_gain_consistently(self):
        # observer built after a transform behaves like the original one
        gen = RngStream(71).generator()
        sys = random_system(3, 1, 1, gen)
        params = sys.real
        gain = place_observer_poles(params.A, params.C, default_observer_poles(3))
        tf = CoordinateTransform.from_matrix(np.eye(3) + 0.4 * gen.standard_normal((3, 3)))
        moved = apply_transform(tf, params)
        L2 = tf.T @ gain.L
        inputs = gen.normal(0, 1, (50, 1))
        measured = gen.normal(0, 1, (50, 1))
        x0 = gen.normal(0, 1, 3)
        base = run_luenberger(params, gain, inputs, measured, x0, 50)
        mapped = run_luenberger(moved, L2, inputs, measured, tf.T @ x0, 50)
        assert_allclose(mapped.states, base.states @ tf.T.T, atol=1e-8)


def place_poles_reference(A, C, desired, draws=None):
    """The per-trial placement the stacked ``_place_poles`` replaced.

    ``draws``, when given, replaces the seeded sequence of G matrices.
    """
    n = A.shape[0]
    eig_A = np.linalg.eigvals(A)
    if max_spectrum_deviation(eig_A, desired) < 1e-9:
        return ObserverGain(L=np.zeros((n, C.shape[0])), desired_poles=tuple(desired))

    F, targets = _spectrum_block_diag(desired)
    K = np.kron(np.eye(n), A.T) - np.kron(F.T, np.eye(n))
    rhs_left = C.T
    singular_operator = bool(np.linalg.matrix_rank(K) < n * n)

    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(889231)))
    best = None
    for attempt in range(_MAX_G_ATTEMPTS):
        G = gen.standard_normal((C.shape[0], n))
        if draws is not None:
            G = draws[attempt]
        rhs = (rhs_left @ G).reshape(-1, order="F")
        if singular_operator:
            vecX = np.linalg.lstsq(K, rhs, rcond=None)[0]
        else:
            vecX = np.linalg.solve(K, rhs)
        X = vecX.reshape(n, n, order="F")
        sv = np.linalg.svd(X, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] < 1e-10 * sv[0]:
            continue
        L = np.linalg.solve(X.T, G.T)
        deviation = max_spectrum_deviation(np.linalg.eigvals(A - L @ C), targets)
        if deviation < leo.observer._PLACEMENT_TOL:
            return ObserverGain(L=L, desired_poles=tuple(desired))
        if best is None or deviation < best[0]:
            best = (deviation, L)
    raise SynthesisFailureError(
        f"pole placement did not converge in {_MAX_G_ATTEMPTS} attempts"
        + (f" (best deviation {best[0]:.3e})" if best else "")
    )


def assert_rows_match_reference(A, C, desired, draws=None):
    """Each row of one stacked call equals its own reference call bitwise,
    or fails with the same message; no two rows' gains share memory."""
    got = _place_poles(A, C, desired)
    assert len(got) == A.shape[0]
    for b, row in enumerate(got):
        try:
            want = place_poles_reference(A[b], C[b], desired, draws)
        except SynthesisFailureError as exc:
            assert isinstance(row, SynthesisFailureError)
            assert str(row) == str(exc)
            continue
        assert isinstance(row, ObserverGain)
        assert row.L.flags.owndata  # never a view into another trial's memory
        assert np.array_equal(row.L, want.L)
        assert row.desired_poles == want.desired_poles
    gains = [row.L for row in got if isinstance(row, ObserverGain)]
    for i, L in enumerate(gains):
        assert not any(np.shares_memory(L, other) for other in gains[i + 1:])
    return got


def rare_rows_batch(n=3, q=1, ordinary=3):
    """Ordinary rows plus one of each rare kind: a spectrum already in place,
    a singular Kronecker operator (the lstsq path) and C = 0, which no G
    can place."""
    poles = _checked_poles(default_observer_poles(n), n)
    gen = np.random.default_rng(7)
    A = [gen.standard_normal((n, n)) for _ in range(ordinary)]
    C = [gen.standard_normal((q, n)) for _ in range(ordinary)]
    A.append(np.diag(poles.real))
    C.append(gen.standard_normal((q, n)))
    # A triangular A sharing the eigenvalue poles[1] with F exactly.
    A.append(np.triu(gen.standard_normal((n, n)), 1) + np.diag([0.8, poles[1].real, -0.2]))
    C.append(gen.standard_normal((q, n)))
    A.append(gen.standard_normal((n, n)))
    C.append(np.zeros((q, n)))
    return np.stack(A), np.stack(C), poles


class TestStackedPlacement:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 10),
        n=st.integers(1, 4),
        data=st.data(),
    )
    def test_rows_equal_reference_calls(self, seed, batch, n, data):
        q = data.draw(st.integers(1, n))
        gen = np.random.default_rng(seed)
        A = gen.standard_normal((batch, n, n)) * data.draw(st.sampled_from([0.3, 1.0, 3.0]))
        C = gen.standard_normal((batch, q, n))
        poles = np.sort(gen.uniform(-0.9, 0.9, n)).astype(complex)
        if n >= 2 and data.draw(st.booleans()):
            radius, angle = gen.uniform(0.1, 0.9), gen.uniform(0.1, 3.0)
            poles[:2] = radius * np.exp(1j * angle), radius * np.exp(-1j * angle)
        assert_rows_match_reference(A, C, _checked_poles(poles, n))

    def test_rare_rows_leave_the_others_unchanged(self):
        A, C, poles = rare_rows_batch()
        got = assert_rows_match_reference(A, C, poles)
        in_place, _, unplaceable = got[-3:]
        assert np.array_equal(in_place.L, np.zeros((3, 1)))
        n = A.shape[1]
        F, _ = _spectrum_block_diag(poles)
        K = np.kron(np.eye(n), A[-2].T) - np.kron(F.T, np.eye(n))
        assert np.linalg.matrix_rank(K) < n * n
        assert isinstance(unplaceable, SynthesisFailureError)
        assert "best deviation" not in str(unplaceable)
        alone = _place_poles(A[:-3], C[:-3], poles)
        for mixed, own in zip(got, alone):
            assert np.array_equal(mixed.L, own.L)

    # Column j of X scales with column j of G, as F is diagonal here: a zero
    # first draw gives X = 0, a tiny last column a nearly singular X.
    @pytest.mark.parametrize("first_draw_scale", [[0.0, 0.0, 0.0], [1.0, 1.0, 5e-7]])
    def test_row_needing_a_second_draw(self, monkeypatch, first_draw_scale):
        A, C, poles = rare_rows_batch()
        neg_kron, targets, draws = _placement_constants(tuple(poles), C.shape[1])
        patched = draws.copy()
        patched[0] *= first_draw_scale  # so the first attempt is skipped
        monkeypatch.setattr(
            leo.observer, "_placement_constants", lambda *_: (neg_kron, targets, patched)
        )
        got = assert_rows_match_reference(A, C, poles, patched)
        assert isinstance(got[0], ObserverGain)
        with pytest.raises(AssertionError):
            assert_rows_match_reference(A, C, poles)  # the unpatched draws differ

    def test_inaccurate_rows_report_their_best_deviation(self, monkeypatch):
        monkeypatch.setattr(leo.observer, "_PLACEMENT_TOL", 0.0)
        A, C, poles = rare_rows_batch()
        got = assert_rows_match_reference(A, C, poles)
        assert "best deviation" in str(got[0])
        assert "best deviation" not in str(got[-1])

    def test_two_dimensional_call_is_a_batch_of_one(self):
        A, C, poles = rare_rows_batch()
        assert np.array_equal(_place_poles(A[0], C[0], poles).L, _place_poles(A, C, poles)[0].L)
        with pytest.raises(SynthesisFailureError, match="did not converge"):
            _place_poles(A[-1], C[-1], poles)

    def test_shared_constants_are_read_only(self):
        for constant in _placement_constants((0.1 + 0j, 0.3 + 0j, 0.5 + 0j), 2):
            assert not constant.flags.writeable
            with pytest.raises(ValueError):
                constant[0] = 1.0
        identity = CoordinateTransform.identity(3)
        assert CoordinateTransform.identity(3) is identity
        assert not identity.T.flags.writeable and not identity.T_inv.flags.writeable
        assert identity.is_identity()
        assert CoordinateTransform.from_matrix(np.eye(3)).is_identity()


class TestIsIdentity:
    def test_shared_identity_answers_without_building_eye(self, monkeypatch):
        identity = CoordinateTransform.identity(3)

        def no_eye(*args, **kwargs):
            raise AssertionError("np.eye was built")

        monkeypatch.setattr(np, "eye", no_eye)
        assert identity.is_identity()

    def test_other_instances_compare_with_the_identity(self):
        T = np.eye(3)
        assert CoordinateTransform(T=T, T_inv=T.copy()) is not CoordinateTransform.identity(3)
        assert CoordinateTransform(T=T, T_inv=T.copy()).is_identity()
        assert not CoordinateTransform.from_matrix(np.diag([1.0, 2.0, 1.0])).is_identity()
