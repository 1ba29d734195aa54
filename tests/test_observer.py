import math
import operator
from dataclasses import replace
from itertools import permutations

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
    is_observable,
    random_system,
    spectral_radius,
    _observability_stack,
    _observable,
)
from leo.observer import (
    NOT_PLACED,
    PLACED,
    SHARED_EIGENVALUE,
    UNOBSERVABLE,
    default_observer_poles,
    max_spectrum_deviation,
    place_observer_poles,
    run_luenberger,
    run_open_loop,
    _MAX_G_ATTEMPTS,
    _checked_poles,
    _failure,
    _place_poles,
    _placement_constants,
    _spectrum_block_diag,
    _spectrum_deviation,
)

A_DEMO = np.array([[1.02, 0.68], [-0.68, 0.34]])
C_DEMO = np.array([[1.0, 0.0]])

BENCH_DIMS = [
    (2, 1, 1), (2, 2, 1),
    (3, 1, 1), (3, 2, 1), (3, 2, 2), (3, 3, 1), (3, 3, 2),
    (4, 2, 1), (4, 2, 2), (4, 3, 1), (4, 3, 2), (4, 3, 3),
    (4, 4, 1), (4, 4, 2), (4, 4, 3),
]


@pytest.fixture(autouse=True)
def kernel_loaded():
    """The C kernel loaded before a test patches the placement's constants
    or tolerance: the placement pass's probe runs unpatched."""
    leo.lti_core._load_kernel()


def attained(A, C, L):
    return np.linalg.eigvals(np.asarray(A) - L @ np.asarray(C))


class TestPlaceObserverPoles:
    def test_scalar_placement_is_forced(self):
        gain = place_observer_poles([[0.5]], [[1.0]], [0.2])
        assert_allclose(gain, [[0.3]], atol=1e-12)

    def test_demo_pair(self):
        gain = place_observer_poles(A_DEMO, C_DEMO, [0.2, 0.3])
        dev = max_spectrum_deviation(
            attained(A_DEMO, C_DEMO, gain), np.array([0.2, 0.3], dtype=complex)
        )
        assert dev < 1e-6

    def test_desired_equal_to_open_loop_spectrum(self):
        desired = np.linalg.eigvals(A_DEMO)
        gain = place_observer_poles(A_DEMO, C_DEMO, desired)
        dev = max_spectrum_deviation(attained(A_DEMO, C_DEMO, gain), desired)
        assert dev < 1e-6

    def test_complex_pair_request(self):
        desired = np.array([0.3 + 0.25j, 0.3 - 0.25j])
        gain = place_observer_poles(A_DEMO, C_DEMO, desired)
        assert max_spectrum_deviation(attained(A_DEMO, C_DEMO, gain), desired) < 1e-6

    def test_unobservable_raises(self):
        with pytest.raises(PolePlacementInfeasible):
            place_observer_poles(np.eye(2), [[1.0, 0.0]], [0.2, 0.3])

    @pytest.mark.parametrize("A, C, message", [
        ([[np.nan, 0.0], [0.0, 0.5]], [[1.0, 0.0]], "A contains non-finite entries"),
        (A_DEMO, [[1.0, 0.0, 0.0]], "C must have 2 columns, got 3"),
        (A_DEMO, [[np.inf, 0.0]], "C contains non-finite entries"),
    ])
    def test_invalid_matrices_raise_shape_error(self, A, C, message):
        with pytest.raises(ShapeError, match=message):
            place_observer_poles(A, C, [0.2, 0.3])

    def test_unstable_request_rejected(self):
        with pytest.raises(ValueError):
            place_observer_poles(A_DEMO, C_DEMO, [0.2, 1.1])
        # nor is there a default request for a pole count below 1 or not an integer
        for n in (0, -1, 2.5):
            with pytest.raises(ShapeError, match="n must be an integer >= 1"):
                default_observer_poles(n)

    @pytest.mark.parametrize("pole", [np.nan, complex(0.2, np.nan)])
    def test_nan_request_rejected(self, pole):
        with pytest.raises(ValueError, match="strictly inside the unit disk"):
            place_observer_poles(A_DEMO, C_DEMO, [pole, 0.3])

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
            dev = max_spectrum_deviation(attained(sys.real.A, sys.real.C, gain), poles)
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

    @pytest.mark.parametrize("horizon", [2.7, 3.0, "3"])
    def test_non_integer_horizon_rejected(self, horizon):
        x0, L = np.zeros(3), np.zeros((3, 1))
        message = f"horizon must be an integer, got {horizon!r}"
        with pytest.raises(ShapeError, match=message):
            run_open_loop(self.params, self.inputs, x0, horizon=horizon)
        with pytest.raises(ShapeError, match=message):
            run_luenberger(self.params, L, self.inputs, self.measured, x0, horizon=horizon)
        # numpy integers are integers, and None still means every input
        assert run_open_loop(self.params, self.inputs, x0, np.int32(3)).states.shape == (4, 3)
        assert run_open_loop(self.params, self.inputs, x0).states.shape == (self.T + 1, 3)

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
        rho = spectral_radius(self.params.A - gain @ self.params.C) + 0.05
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


def similar(T, params):
    """The realization of ``params`` in the state coordinates x' = T x."""
    T_inv = np.linalg.inv(T)
    return LtiParams(A=T @ params.A @ T_inv, B=T @ params.B, C=params.C @ T_inv)


class TestTransforms:
    def test_similarity_invariance_of_outputs(self):
        gen = RngStream(61).generator()
        sys = random_system(3, 2, 2, gen)
        params = sys.real
        T_steps = 100
        inputs = gen.normal(0, 1, (T_steps, 2))
        x0 = gen.normal(0, 1, 3)
        T = np.eye(3) + 0.5 * gen.standard_normal((3, 3))
        transformed = similar(T, params)
        base = run_open_loop(params, inputs, x0, T_steps)
        moved = run_open_loop(transformed, inputs, T @ x0, T_steps)
        assert_allclose(moved.outputs, base.outputs, atol=1e-9)
        assert_allclose(moved.states, base.states @ T.T, atol=1e-9)

    def test_transform_maps_gain_consistently(self):
        # observer built after a transform behaves like the original one
        gen = RngStream(71).generator()
        sys = random_system(3, 1, 1, gen)
        params = sys.real
        gain = place_observer_poles(params.A, params.C, default_observer_poles(3))
        T = np.eye(3) + 0.4 * gen.standard_normal((3, 3))
        moved = similar(T, params)
        L2 = T @ gain
        inputs = gen.normal(0, 1, (50, 1))
        measured = gen.normal(0, 1, (50, 1))
        x0 = gen.normal(0, 1, 3)
        base = run_luenberger(params, gain, inputs, measured, x0, 50)
        mapped = run_luenberger(moved, L2, inputs, measured, T @ x0, 50)
        assert_allclose(mapped.states, base.states @ T.T, atol=1e-8)


def lsa_deviation(attained, requested):
    """The matching ``max_spectrum_deviation`` had: scipy's assignment solver."""
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(attained[:, None] - requested[None, :])
    return float(cost[linear_sum_assignment(cost)].max())


class TestSpectrumMatcher:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 8),
        n=st.integers(1, 4),
        kind=st.sampled_from(["complex", "real", "conjugate"]),
    )
    def test_agrees_with_linear_sum_assignment(self, seed, batch, n, kind):
        gen = np.random.default_rng(seed)
        attained = gen.standard_normal((batch, n)) + 0j
        requested = gen.standard_normal(n) + 0j
        if kind == "complex":
            attained += 1j * gen.standard_normal((batch, n))
            requested += 1j * gen.standard_normal(n)
        elif kind == "conjugate" and n >= 2:
            # eigenvalues of a real matrix against real poles: tied sums
            attained[:, 1] = attained[:, 0].real - 1j * abs(gen.standard_normal(batch))
            attained[:, 0] = attained[:, 1].conj()
        got = _spectrum_deviation(attained, requested)
        assert got.shape == (batch,)
        for row, value in zip(attained, got.tolist()):
            cost = np.abs(row[:, None] - requested[None, :])
            sums = {p: sum(cost[i, j] for i, j in enumerate(p)) for p in permutations(range(n))}
            best = min(sums.values())
            optimal = [p for p, total in sums.items() if total <= best * (1 + 1e-12)]
            # the value of a least-sum matching, and scipy's where that is unique
            assert value in [max(cost[i, j] for i, j in enumerate(p)) for p in optimal]
            if all(total > best * (1 + 1e-9) for p, total in sums.items() if p != optimal[0]):
                assert value == lsa_deviation(row, requested)
            assert value == max_spectrum_deviation(row, requested)

    def test_larger_spectra_use_scipy(self):
        gen = np.random.default_rng(3)
        attained = gen.standard_normal((2, 6)) + 1j * gen.standard_normal((2, 6))
        requested = gen.standard_normal(6) + 0j
        got = _spectrum_deviation(attained, requested)
        assert got.tolist() == [lsa_deviation(row, requested) for row in attained]


def place_poles_reference(A, C, desired, draws=None):
    """The per-trial placement the stacked ``_place_poles`` replaced, with
    the scipy matching it had and its observability check first.

    ``draws``, when given, replaces the seeded sequence of G matrices.
    """
    n = A.shape[0]
    if not is_observable(A, C):
        raise PolePlacementInfeasible("pair (A, C) is not observable")
    eig_A = np.linalg.eigvals(A)
    if lsa_deviation(eig_A, desired) < 1e-9:
        return np.zeros((n, C.shape[0]))

    F, targets = _spectrum_block_diag(desired)
    # K is singular exactly when A shares an eigenvalue with F.
    if np.abs(eig_A[:, None] - targets[None, :]).min() < 1e-9:
        raise SynthesisFailureError("A shares an eigenvalue with the requested poles")
    K = np.kron(np.eye(n), A.T) - np.kron(F.T, np.eye(n))
    rhs_left = C.T

    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(889231)))
    best = None
    for attempt in range(_MAX_G_ATTEMPTS):
        G = gen.standard_normal((C.shape[0], n))
        if draws is not None:
            G = draws[attempt]
        rhs = (rhs_left @ G).reshape(-1, order="F")
        vecX = np.linalg.solve(K, rhs)
        X = vecX.reshape(n, n, order="F")
        sv = np.linalg.svd(X, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] < 1e-10 * sv[0]:
            continue
        L = np.linalg.solve(X.T, G.T)
        deviation = lsa_deviation(np.linalg.eigvals(A - L @ C), targets)
        if deviation < leo.observer._PLACEMENT_TOL:
            return L
        if best is None or deviation < best[0]:
            best = (deviation, L)
    raise SynthesisFailureError(
        f"pole placement did not converge in {_MAX_G_ATTEMPTS} attempts"
        + (f" (best deviation {best[0]:.3e})" if best else "")
    )


def placement_rows(A, C, desired):
    """One stacked ``_place_poles`` call, per row: the gain, or
    the exception of a row without a gain, whose gain must be zero."""
    gains, reason, best = _place_poles(A, C, desired)
    rows = []
    for b in range(len(gains)):
        if reason[b] == PLACED:
            rows.append(gains[b])
        else:
            assert not gains[b].any()
            rows.append(_failure(reason[b], best[b]))
    return rows


def assert_rows_match_reference(A, C, desired, draws=None):
    """The pairs placed by one stacked call, as training places them: each
    row equals its own reference call bitwise, or fails with the same
    exception."""
    got = placement_rows(A, C, desired)
    assert len(got) == A.shape[0]
    for b, row in enumerate(got):
        try:
            want = place_poles_reference(A[b], C[b], desired, draws)
        except (PolePlacementInfeasible, SynthesisFailureError) as exc:
            assert type(row) is type(exc)
            assert row.args == exc.args and str(row) == str(exc)
            continue
        assert isinstance(row, np.ndarray)
        assert np.array_equal(row, want)
    return got


def rare_rows_batch(n=3, q=1, ordinary=3):
    """Ordinary rows plus one of each rare kind: a spectrum already in place,
    a singular Kronecker operator (A shares an eigenvalue with the requested
    poles) and C = 0, an unobservable pair."""
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


def placeable_batch():
    """The rows of ``rare_rows_batch`` that place: the ordinary ones and,
    last, the spectrum already in place. No singular-operator row places:
    its Sylvester system is consistent only if C is blind to the shared
    mode, and then the pair is unobservable."""
    A, C, poles = rare_rows_batch()
    return A[:-2], C[:-2], poles


def blind_to_shared_mode(A, C, pole):
    """C with the eigenvector of A at ``pole`` projected out of its rows."""
    eig, vecs = np.linalg.eig(A)
    v = vecs[:, np.argmin(np.abs(eig - pole))].real
    return C - np.outer(C @ v, v) / (v @ v)


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
        in_place, _, unobservable = got[-3:]
        assert np.array_equal(in_place, np.zeros((3, 1)))
        n = A.shape[1]
        F, _ = _spectrum_block_diag(poles)
        K = np.kron(np.eye(n), A[-2].T) - np.kron(F.T, np.eye(n))
        assert np.linalg.matrix_rank(K) < n * n
        assert isinstance(unobservable, PolePlacementInfeasible)
        assert str(unobservable) == "pair (A, C) is not observable"
        alone = placement_rows(A[:-3], C[:-3], poles)
        for mixed, own in zip(got, alone):
            assert np.array_equal(mixed, own)

    def test_shared_eigenvalue_rows_fail_before_any_solve(self, monkeypatch):
        # The Kronecker operator of the shared-eigenvalue row is exactly
        # singular, which fails a stacked solve as a whole; the row fails
        # alone instead, with no rank decision, and the others place as in
        # their own calls.
        A, C, poles = rare_rows_batch()
        F, _ = _spectrum_block_diag(poles)
        K = np.kron(np.eye(3), A[4].T) - np.kron(F.T, np.eye(3))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(np.stack([np.eye(9), K]), np.ones((2, 9, 1)))

        def refuse(*args, **kwargs):
            raise AssertionError("placement makes no rank decision")

        monkeypatch.setattr(np.linalg, "matrix_rank", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        order = [4, 0, 1, 4, 2, 3, 4]
        got = placement_rows(A[order], C[order], poles)
        for b, row in zip(order, got):
            if b == 4:
                assert isinstance(row, SynthesisFailureError)
                assert str(row) == "A shares an eigenvalue with the requested poles"
            else:
                assert np.array_equal(row, place_observer_poles(A[b], C[b], poles))
        with pytest.raises(SynthesisFailureError, match="shares an eigenvalue"):
            place_observer_poles(A[4], C[4], poles)

    def test_unobservable_rows_skip_synthesis(self, monkeypatch):
        # Unobservable rows first, in between and last: each fails alone
        # with a zero gain, and every other row is bitwise its own call.
        A, C, poles = rare_rows_batch()
        C[0] = 0.0
        order = [0, 1, 5, 2, 3, 0]
        got = assert_rows_match_reference(A[order], C[order], poles)
        infeasible = [isinstance(row, PolePlacementInfeasible) for row in got]
        assert infeasible == [True, False, True, False, False, True]
        # the singular-operator row with a C that makes its system
        # consistent is unobservable
        C[4] = blind_to_shared_mode(A[4], C[4], poles[1])
        F, _ = _spectrum_block_diag(poles)
        assert np.linalg.matrix_rank(np.kron(np.eye(3), A[4].T) - np.kron(F.T, np.eye(3))) < 9
        # unobservable rows and a spectrum already in place never reach
        # the Sylvester solve: the numpy placement builds no constants for
        # them, and the C pass, which takes them whole, reads none of them
        constants = _placement_constants(tuple(poles), C.shape[1])
        kernel = leo.lti_core._load_kernel()
        for place, patched in ((False, None), (kernel.place, lambda *_: [np.nan * c for c in constants])):
            monkeypatch.setattr(leo.lti_core, "_kernel", replace(kernel, place=place))
            monkeypatch.setattr(leo.observer, "_placement_constants", patched)
            rows = placement_rows(A[[0, 3, 4, 5]], C[[0, 3, 4, 5]], poles)
            assert [type(row) for row in rows] == [
                PolePlacementInfeasible, np.ndarray, PolePlacementInfeasible,
                PolePlacementInfeasible,
            ]

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
        assert isinstance(got[0], np.ndarray)
        with pytest.raises(AssertionError):
            assert_rows_match_reference(A, C, poles)  # the unpatched draws differ
        # One direct stacked call on rows that all place: the early exit
        # and row 0 get their own gains.
        A, C, _ = placeable_batch()
        direct = placement_rows(A, C, poles)
        for b, row in enumerate(direct):
            assert np.array_equal(row, place_poles_reference(A[b], C[b], poles, patched))
        assert np.array_equal(direct[-1], np.zeros((3, 1)))

    def test_inaccurate_rows_report_their_best_deviation(self, monkeypatch):
        monkeypatch.setattr(leo.observer, "_PLACEMENT_TOL", 0.0)
        A, C, poles = rare_rows_batch()
        got = assert_rows_match_reference(A, C, poles)
        assert "best deviation" in str(got[0])
        assert isinstance(got[-1], PolePlacementInfeasible)

    def test_rows_no_draw_solves_report_no_deviation(self, monkeypatch):
        # With every G zero, X = 0 on each attempt: no observable row whose
        # spectrum is not already in place gets a gain, and none has a
        # deviation to quote.
        A, C, poles = rare_rows_batch()
        neg_kron, targets, draws = _placement_constants(tuple(poles), C.shape[1])
        zero = np.zeros_like(draws)
        monkeypatch.setattr(
            leo.observer, "_placement_constants", lambda *_: (neg_kron, targets, zero)
        )
        got = assert_rows_match_reference(A, C, poles, zero)
        in_place = len(got) - 3
        for b, row in enumerate(got[:-1]):
            if b == in_place:
                assert isinstance(row, np.ndarray)
            else:
                assert isinstance(row, SynthesisFailureError)
                assert "best deviation" not in str(row)
        assert isinstance(got[-1], PolePlacementInfeasible)

    def test_two_dimensional_call_is_a_batch_of_one(self, monkeypatch):
        A, C, poles = rare_rows_batch()
        stacked = placement_rows(A[:-2], C[:-2], poles)
        for b in range(len(stacked)):
            assert np.array_equal(place_observer_poles(A[b], C[b], poles), stacked[b])
        monkeypatch.setattr(leo.observer, "_PLACEMENT_TOL", 0.0)
        with pytest.raises(SynthesisFailureError, match="did not converge"):
            place_observer_poles(A[0], C[0], poles)

    def test_rare_rows_reasons_and_best_are_own_calls(self, monkeypatch):
        A, C, poles = rare_rows_batch()
        stacked = _place_poles(A, C, poles)
        assert_reasons_are_own_calls(A, C, poles, stacked)
        _, reason, best = stacked
        assert reason.tolist() == [PLACED] * 4 + [SHARED_EIGENVALUE, UNOBSERVABLE]
        # a placed row's best is its accepted draw's; a row given no draw has none
        assert (best[:3] < leo.observer._PLACEMENT_TOL).all() and np.isnan(best[3:]).all()
        # with no draw accepted, each solved row keeps its least deviation
        monkeypatch.setattr(leo.observer, "_PLACEMENT_TOL", 0.0)
        stacked = _place_poles(A, C, poles)
        assert_reasons_are_own_calls(A, C, poles, stacked)
        _, reason, best = stacked
        assert reason.tolist() == [NOT_PLACED] * 3 + [PLACED, SHARED_EIGENVALUE, UNOBSERVABLE]
        assert (best[:3] >= 0.0).all() and np.isnan(best[3:]).all()

    def test_shared_constants_are_read_only(self):
        for constant in _placement_constants((0.1 + 0j, 0.3 + 0j, 0.5 + 0j), 2):
            assert not constant.flags.writeable
            with pytest.raises(ValueError):
                constant[0] = 1.0


def scaled_draws(scale):
    """A patch for ``place_observer_poles``' G draws, scaled by ``scale``."""
    def patch(monkeypatch, C, poles):
        neg_kron, targets, draws = _placement_constants(tuple(poles), C.shape[0])
        monkeypatch.setattr(
            leo.observer, "_placement_constants", lambda *_: (neg_kron, targets, scale * draws)
        )
    return patch


def no_accepted_draw(monkeypatch, C, poles):
    monkeypatch.setattr(leo.observer, "_PLACEMENT_TOL", 0.0)


def rare_row(b):
    A, C, poles = rare_rows_batch()
    return A[b], C[b], poles


# Per reason code, a pair, a patch that gives it that reason (or None), and
# the exception type and message that ``place_observer_poles`` raised for
# it when ``_place_poles`` still built an exception for each failing row.
# Each message is exact on any host: with zero draws no X is solved, the
# n = 1 pair's deviation is an exact 0 (0.75 - 0.5 and 4 G are exact), and
# G scaled by 1e10 makes the gain of A = 1e300, C = 1e-10 overflow.
PUBLIC_FAILURES = {
    "unobservable": (
        lambda: (np.eye(2), np.array([[1.0, 0.0]]), [0.2, 0.3]), None, UNOBSERVABLE,
        PolePlacementInfeasible, "pair (A, C) is not observable",
    ),
    "shared_eigenvalue": (
        lambda: rare_row(4), None, SHARED_EIGENVALUE,
        SynthesisFailureError, "A shares an eigenvalue with the requested poles",
    ),
    "no_draw_solved": (
        lambda: rare_row(0), scaled_draws(0.0), NOT_PLACED,
        SynthesisFailureError, "pole placement did not converge in 10 attempts",
    ),
    "least_deviation": (
        lambda: (np.array([[0.75]]), np.array([[1.0]]), [0.5]), no_accepted_draw, NOT_PLACED,
        SynthesisFailureError,
        "pole placement did not converge in 10 attempts (best deviation 0.000e+00)",
    ),
    "every_solved_draw_overflowed": (
        lambda: (np.array([[1e300]]), np.array([[1e-10]]), [0.1]), scaled_draws(1e10),
        NOT_PLACED, SynthesisFailureError,
        "pole placement did not converge in 10 attempts (best deviation inf)",
    ),
}


@pytest.mark.parametrize("case", sorted(PUBLIC_FAILURES))
def test_public_function_raises_each_reason_as_before(monkeypatch, case):
    pair, patch, code, kind, message = PUBLIC_FAILURES[case]
    A, C, poles = pair()
    poles = _checked_poles(poles, A.shape[0])
    if patch is not None:
        patch(monkeypatch, C, poles)
    assert _place_poles(A[None], C[None], poles)[1].tolist() == [code]
    with pytest.raises(kind) as info:
        place_observer_poles(A, C, poles)
    assert type(info.value) is kind and str(info.value) == message


# Entry magnitudes of extreme but finite pairs: ones whose products
# overflow, subnormal ones and ordinary ones.
EXTREME_MAGNITUDES = (0.0, 5e-324, 1e-310, 1e-300, 1e-3, 0.5, 1.0, 1e150, 1e160, 1e200, 1e300, 1.7e308)


@st.composite
def extreme_batches(draw):
    """A (B, n, n) and C (B, q, n): Gaussian rows, and rows whose matrices
    have extreme entries or are a Gaussian matrix scaled to an extreme."""
    batch, n = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    q = draw(st.integers(1, n))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A, C = gen.standard_normal((batch, n, n)), gen.standard_normal((batch, q, n))
    signed = st.builds(operator.mul, st.sampled_from((-1.0, 1.0)), st.sampled_from(EXTREME_MAGNITUDES))
    for M in (*A, *C):
        kind = draw(st.sampled_from(("gaussian", "entries", "scaled")))
        if kind == "entries":
            M[...] = np.reshape(draw(st.lists(signed, min_size=M.size, max_size=M.size)), M.shape)
        elif kind == "scaled":
            M *= draw(st.sampled_from(EXTREME_MAGNITUDES[:-1]))
    return A, C


def assert_rows_fail_alone(A, C, poles):
    """One stacked placement and observability call on finite pairs, which
    raise nothing and warn nothing (pytest turns numpy warnings into
    errors): each row is bitwise its own call, a row without a gain has a
    zero gain, and an overflowing stack is unobservable. Returns the rows."""
    gains, reason, best = _place_poles(A, C, poles)
    decisions = _observable(A, C)
    with np.errstate(over="ignore", invalid="ignore"):
        overflowed = ~np.isfinite(_observability_stack(A, C, A.shape[1])).all(axis=(1, 2))
    assert_reasons_are_own_calls(A, C, poles, (gains, reason, best))
    for b in range(len(A)):
        observable = decisions[b]
        assert observable == _observable(A[b : b + 1], C[b : b + 1])[0]
        assert is_observable(A[b], C[b]) == observable
        assert not (overflowed[b] and observable)
        assert (reason[b] == UNOBSERVABLE) == (not observable)
        if reason[b] != PLACED:
            assert not gains[b].any()
    return [gains[b] if reason[b] == PLACED else _failure(reason[b], best[b])
            for b in range(len(A))]


def assert_reasons_are_own_calls(A, C, poles, stacked):
    """Each row of one stacked ``_place_poles`` call has bitwise the gain,
    the reason code and the best deviation of its own call."""
    gains, reason, best = stacked
    assert reason.shape == best.shape == (len(A),)
    for b in range(len(A)):
        own_gains, own_reason, own_best = _place_poles(A[b : b + 1], C[b : b + 1], poles)
        assert gains[b].tobytes() == own_gains[0].tobytes()
        assert reason[b] == own_reason[0]
        assert best[b].tobytes() == own_best[0].tobytes()


class TestTotality:
    """Gain synthesis and the observability check give every finite pair a
    result, however large or small its entries: a row that overflows or
    underflows fails alone."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pairs=extreme_batches())
    def test_extreme_finite_rows_fail_alone(self, pairs):
        A, C = pairs
        n = A.shape[1]
        assert_rows_fail_alone(A, C, _checked_poles(default_observer_poles(n), n))

    # Each of these raised from one of the stacked LAPACK calls: an
    # observability stack that overflows ("SVD did not converge", after
    # LAPACK printed a DLASCL error), a subnormal X whose gain overflows
    # ("Array must not contain infs or NaNs"), and a Kronecker operator
    # that is exactly singular although no eigenvalue of A is within 1e-9
    # of a pole ("Singular matrix").
    @pytest.mark.parametrize("case, failure", [
        ("overflowing_stack", PolePlacementInfeasible),
        ("subnormal_pair", SynthesisFailureError),
        ("singular_operator", SynthesisFailureError),
    ])
    def test_rows_that_raised(self, capfd, case, failure):
        gen = np.random.default_rng(0)
        A, C = {
            "overflowing_stack": (1e160 * gen.standard_normal((4, 4)), gen.standard_normal((2, 4))),
            "subnormal_pair": (np.array([[5e-324]]), np.array([[5e-324]])),
            "singular_operator": (
                np.array([[1e-310, -0.5], [1e160, 1e160]]), np.array([[1e250, -1e-300]])
            ),
        }[case]
        n, q = A.shape[0], C.shape[0]
        poles = _checked_poles(default_observer_poles(n), n)
        # the row among ordinary ones, first, in between and last
        ordinary_A, ordinary_C = gen.standard_normal((2, n, n)), gen.standard_normal((2, q, n))
        rows = assert_rows_fail_alone(
            np.stack([A, ordinary_A[0], A, ordinary_A[1], A]),
            np.stack([C, ordinary_C[0], C, ordinary_C[1], C]),
            poles,
        )
        assert [type(row) for row in rows[::2]] == [failure] * 3
        with pytest.raises(failure):
            place_observer_poles(A, C, poles)
        assert is_observable(A, C) == (failure is SynthesisFailureError)
        assert capfd.readouterr() == ("", "")

    def test_overflowing_gain_gets_an_infinite_deviation(self, monkeypatch):
        # For n = 1 the gain is (A - f) / C whatever G is, and X is C G /
        # (A - f): G scaled by 1e10 makes X normal while L overflows, so
        # A - LC is not finite and no eigenvalue is computed from it.
        A, C = np.array([[[1e300]]]), np.array([[[1e-10]]])
        poles = _checked_poles(default_observer_poles(1), 1)
        neg_kron, targets, draws = _placement_constants(tuple(poles), 1)
        monkeypatch.setattr(
            leo.observer, "_placement_constants", lambda *_: (neg_kron, targets, 1e10 * draws)
        )
        (row,) = assert_rows_fail_alone(A, C, poles)
        assert isinstance(row, SynthesisFailureError)
        assert "best deviation inf" in str(row)
