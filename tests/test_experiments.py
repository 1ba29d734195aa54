import numpy as np
import pytest
from scipy import stats

from leo import experiments
from leo.exceptions import DegenerateReferenceError, DivergedRollout, GenerationError
from leo.experiments import (
    DEFAULT_DIMENSION_GRID,
    _midranks,
    _wilcoxon_exact_tail,
    TrialSpec,
    execute_trial,
    normalized_error,
    run_monte_carlo,
    run_trial,
    success_rate,
    trimmed_mean_reduction,
    wilcoxon_signed_rank,
)
from leo.learning import TrainConfig


class TestNormalizedError:
    def test_identical_is_zero(self):
        x = np.arange(1.0, 21.0).reshape(10, 2)
        assert normalized_error(x, x, 2, 5) == 0.0

    def test_doubling_gives_one(self):
        x = np.arange(1.0, 21.0).reshape(10, 2)
        assert normalized_error(2 * x, x, 0, 9) == pytest.approx(1.0)

    def test_hand_computed_window(self):
        x = np.array([[1.0], [2.0]])
        x_hat = np.array([[1.1], [1.8]])
        assert normalized_error(x_hat, x, 0, 1) == pytest.approx(0.1)

    def test_scale_invariance(self):
        gen = np.random.default_rng(1)
        x = gen.normal(1.0, 0.2, (20, 3))
        x_hat = x + gen.normal(0, 0.1, (20, 3))
        a = normalized_error(x_hat, x, 3, 10)
        b = normalized_error(2 * x_hat, 2 * x, 3, 10)
        assert a == pytest.approx(b, rel=1e-12)

    def test_near_zero_components_excluded(self):
        x = np.array([[1.0, 1e-12], [1.0, 1e-12]])
        x_hat = np.array([[1.5, 100.0], [1.5, 100.0]])
        assert normalized_error(x_hat, x, 0, 1) == pytest.approx(0.5)

    def test_degenerate_reference(self):
        x = np.full((5, 2), 1e-12)
        with pytest.raises(DegenerateReferenceError):
            normalized_error(x, x, 0, 4)


class TestTrimmedMean:
    def test_one_to_ten(self):
        assert trimmed_mean_reduction(list(range(1, 11)), 0.10) == pytest.approx(5.5)

    def test_constant(self):
        assert trimmed_mean_reduction([7.0] * 9) == pytest.approx(7.0)

    def test_outlier_robustness(self):
        gen = np.random.default_rng(2)
        inner = gen.uniform(10, 20, 100).tolist()
        data = inner + [1e6, -1e6]
        out = trimmed_mean_reduction(data, 0.10)
        assert min(inner) <= out <= max(inner)

    def test_permutation_invariant_and_bounded(self):
        gen = np.random.default_rng(3)
        data = gen.normal(0, 5, 37)
        a = trimmed_mean_reduction(data)
        b = trimmed_mean_reduction(gen.permutation(data))
        assert a == pytest.approx(b, rel=1e-12)
        assert data.min() <= a <= data.max()

    def test_short_list_rejected(self):
        with pytest.raises(ValueError):
            trimmed_mean_reduction([1.0, 2.0])

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            trimmed_mean_reduction([1.0, 2.0, 3.0], 0.5)


class TestSuccessRate:
    def test_all_better(self):
        assert success_rate([2.0, 3.0], [1.0, 1.0]) == 1.0

    def test_ties_do_not_count(self):
        assert success_rate([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_mixed(self):
        assert success_rate([3.0, 1.0, 2.0], [1.0, 2.0, 1.0]) == pytest.approx(2 / 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            success_rate([1.0], [1.0, 2.0])


def enumerated_tail(ranks, w_obs):
    """Reference (P[W+ >= w_obs], P[W+ <= w_obs]) over all 2^m sign patterns."""
    sums = np.zeros(1)
    for r in ranks:
        sums = np.concatenate([sums, sums + r])
    return float((sums >= w_obs - 1e-9).mean()), float((sums <= w_obs + 1e-9).mean())


class TestWilcoxon:
    def test_exact_tail_matches_enumeration(self):
        gen = np.random.default_rng(8)
        for case in range(200):
            m = int(gen.integers(1, 13))
            if case % 2:
                # heavy ties: magnitudes drawn from a few values
                mags = gen.integers(1, 4, m).astype(float)
            else:
                mags = gen.uniform(0.1, 2.0, m)
            ranks = _midranks(mags)
            positive = gen.random(m) < 0.5
            w_plus = float(ranks[positive].sum())
            assert _wilcoxon_exact_tail(ranks, w_plus) == enumerated_tail(ranks, w_plus)

    def test_exact_method_is_bounded_at_m40(self):
        # enumeration would need 2^40 sign patterns
        gen = np.random.default_rng(9)
        a = gen.normal(1.0, 0.5, 40)
        b = a - gen.normal(0.2, 0.5, 40)
        p = wilcoxon_signed_rank(a, b, method="exact")
        ref = stats.wilcoxon(a, b, alternative="greater", method="exact").pvalue
        assert p == pytest.approx(ref, rel=1e-9)

    def test_all_positive_n10_exact(self):
        nominal = np.arange(1.0, 11.0) + 1.0
        enhanced = np.arange(1.0, 11.0)
        assert wilcoxon_signed_rank(nominal, enhanced) == pytest.approx(
            1.0 / 1024.0, abs=1e-12
        )

    def test_symmetric_differences(self):
        d = np.array([0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.0])
        p = wilcoxon_signed_rank(d, np.zeros_like(d))
        assert p == pytest.approx(0.5, abs=0.1)

    def test_all_zero_differences(self):
        assert wilcoxon_signed_rank(np.ones(8), np.ones(8)) == 1.0

    def test_matches_reference_exact(self):
        gen = np.random.default_rng(4)
        for _ in range(10):
            n = int(gen.integers(10, 13))
            a = gen.normal(1.0, 0.5, n)
            b = a - gen.normal(0.2, 0.5, n)
            mine = wilcoxon_signed_rank(a, b, method="exact")
            ref = stats.wilcoxon(a, b, alternative="greater", method="exact").pvalue
            assert mine == pytest.approx(ref, abs=1e-12)

    def test_matches_reference_approx(self):
        gen = np.random.default_rng(5)
        for _ in range(10):
            n = int(gen.integers(20, 60))
            a = gen.normal(1.0, 0.5, n)
            b = a - gen.normal(0.1, 0.5, n)
            mine = wilcoxon_signed_rank(a, b, method="approx")
            ref = stats.wilcoxon(
                a, b, alternative="greater", method="approx", correction=True
            ).pvalue
            assert mine == pytest.approx(ref, abs=1e-3)

    def test_matches_reference_with_ties(self):
        a = np.array([3.0, 3.0, 4.0, 5.0, 5.0, 6.0, 7.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0] * 2)
        b = np.array([1.0, 2.0, 2.0, 4.0, 4.0, 5.0, 8.0, 6.0, 7.0, 7.0, 8.0, 12.0, 10.0, 12.0] * 2)
        mine = wilcoxon_signed_rank(a, b, method="approx")
        ref = stats.wilcoxon(a, b, alternative="greater", method="approx", correction=True).pvalue
        assert mine == pytest.approx(ref, abs=1e-3)

    def test_exact_approx_agreement(self):
        gen = np.random.default_rng(6)
        for n in (10, 11, 12):
            for _ in range(5):
                signs = gen.choice([-1.0, 1.0], n)
                d = signs * gen.uniform(0.1, 2.0, n)
                a = np.ones(n) + d
                b = np.ones(n)
                p_exact = wilcoxon_signed_rank(a, b, method="exact")
                p_approx = wilcoxon_signed_rank(a, b, method="approx")
                assert abs(p_exact - p_approx) < 0.02

    def test_two_sided(self):
        gen = np.random.default_rng(7)
        a = gen.normal(1.0, 0.5, 30)
        b = a - gen.normal(0.3, 0.3, 30)
        one = wilcoxon_signed_rank(a, b)
        two = wilcoxon_signed_rank(a, b, two_sided=True)
        assert two == pytest.approx(min(1.0, 2 * one), abs=1e-9)


FAST_CFG = TrainConfig(epochs=8)


class TestRunTrial:
    def test_deterministic(self):
        spec = TrialSpec(dims=(2, 1, 1), seed=7)
        a = run_trial(spec, FAST_CFG)
        b = run_trial(spec, FAST_CFG)
        assert a.to_json() == b.to_json()

    def test_degenerate_uncertainty_gives_zero_reductions(self):
        # nothing to perturb and nothing to measure: with no training steps
        # the enhanced observer IS the nominal one and both errors underflow
        spec = TrialSpec(
            dims=(2, 1, 1), seed=3,
            perturbation_std=0.0, process_noise_std=0.0, measurement_noise_std=0.0,
        )
        r = run_trial(spec, TrainConfig(epochs=0))
        assert r.reduction_open_pct == 0.0
        assert r.reduction_closed_pct == 0.0

    def test_degenerate_uncertainty_small_absolute_gap(self):
        # with training on: the kinked loss makes Adam wander at the lr scale,
        # so compare absolute errors (the % reduction divides by ~0)
        spec = TrialSpec(
            dims=(2, 1, 1), seed=3,
            perturbation_std=0.0, process_noise_std=0.0, measurement_noise_std=0.0,
        )
        r = run_trial(spec, TrainConfig(epochs=25, weight_decay=0.0))
        assert abs(r.e_enhanced_open - r.e_nominal_open) < 1e-2
        assert abs(r.e_enhanced_closed - r.e_nominal_closed) < 1e-2

    def test_showcase_fixture_improves(self):
        from leo.cli import DEMO_X0_GUESS, demo_system

        spec = TrialSpec(dims=(2, 1, 1), seed=0)
        r = run_trial(
            spec, TrainConfig(), system_override=demo_system(),
            x0_hat_override=DEMO_X0_GUESS,
        )
        assert r.reduction_closed_pct > 0.0

    def test_horizon_shorter_than_window_rejected(self):
        # a configuration error, reported before any simulation or training
        with pytest.raises(ValueError, match=r"horizon 100 .* step 251"):
            run_trial(TrialSpec(dims=(2, 1, 1), horizon=100))

    def test_errors_are_finite_and_nonnegative(self):
        r = run_trial(TrialSpec(dims=(3, 2, 2), seed=11), FAST_CFG)
        for value in (
            r.e_nominal_open, r.e_enhanced_open, r.e_nominal_closed, r.e_enhanced_closed
        ):
            assert np.isfinite(value) and value >= 0

    def test_dimension_grid_is_complete(self):
        assert len(DEFAULT_DIMENSION_GRID) == 15
        for n, p, q in DEFAULT_DIMENSION_GRID:
            assert q < n and q <= p and p >= n // 2


class TestRunMonteCarlo:
    def test_minimum_trials_enforced(self):
        with pytest.raises(ValueError):
            run_monte_carlo([(2, 1, 1)], trials=5, master_seed=0, train_cfg=FAST_CFG)

    def test_zero_perturbation_err_near_zero(self):
        # noise stays on, so the reduction denominators are healthy; with
        # exact starting parameters there is nothing for training to gain
        spec = TrialSpec(dims=(2, 1, 1), perturbation_std=0.0)
        summaries, _ = run_monte_carlo(
            [(2, 1, 1)], trials=10, master_seed=5,
            train_cfg=TrainConfig(epochs=50), trial_spec=spec,
        )
        assert abs(summaries[0].err_open_pct) <= 3.0
        assert abs(summaries[0].err_closed_pct) <= 3.0

    def test_deterministic_summary(self):
        a, _ = run_monte_carlo([(2, 1, 1)], trials=10, master_seed=9, train_cfg=FAST_CFG)
        b, _ = run_monte_carlo([(2, 1, 1)], trials=10, master_seed=9, train_cfg=FAST_CFG)
        assert a[0].to_json() == b[0].to_json()

    @pytest.mark.parametrize("parallel", [0, -3])
    def test_parallel_below_one_rejected(self, parallel):
        with pytest.raises(ValueError, match="parallel"):
            run_monte_carlo(
                [(2, 1, 1)], trials=10, master_seed=0, train_cfg=FAST_CFG, parallel=parallel
            )

    def test_parallel_matches_serial(self):
        # 11 trials per triple: two workers train unequal lockstep batches
        dims = [(2, 1, 1), (3, 2, 1)]
        serial, r1 = run_monte_carlo(
            dims, trials=11, master_seed=13, train_cfg=FAST_CFG, parallel=1
        )
        parallel, r2 = run_monte_carlo(
            dims, trials=11, master_seed=13, train_cfg=FAST_CFG, parallel=2
        )
        assert [s.to_json() for s in serial] == [s.to_json() for s in parallel]
        assert len(r1) == len(r2) == 22
        assert [r.to_json() for r in r1] == [r.to_json() for r in r2]

    def test_batch_matches_single_trials(self):
        _, results = run_monte_carlo(
            [(3, 2, 1)], trials=10, master_seed=17, train_cfg=FAST_CFG
        )
        for r in results:
            assert r.to_json() == run_trial(r.spec, FAST_CFG).to_json()

    def test_execution_carries_noise_and_rollouts(self):
        ex = execute_trial(TrialSpec(dims=(2, 1, 1), seed=2), FAST_CFG)
        assert ex.noise.w.shape == (260, 2)
        assert ex.noise.v.shape == (261, 1)
        assert set(ex.rollouts) == {"nom_open", "enh_open", "nom_closed", "enh_closed"}
        assert ex.truth.states.shape == (261, 2)


class TestFailingTrialInBatch:
    """One trial of a Monte Carlo batch fails; its result is what it gets on
    its own, and the other trials' results do not move."""

    DIMS = (2, 1, 1)
    SEED = 21
    BAD = 4

    def batch(self):
        return run_monte_carlo([self.DIMS], trials=10, master_seed=self.SEED, train_cfg=FAST_CFG)[1]

    def bad_spec(self):
        return TrialSpec(dims=self.DIMS, seed=self.SEED, trial_index=self.BAD)

    def check(self, clean, failing):
        for i, (a, b) in enumerate(zip(clean, failing)):
            if i != self.BAD:
                assert a.to_json() == b.to_json()
        alone = experiments._run_trials_guarded([self.bad_spec()], FAST_CFG)[0]
        assert failing[self.BAD].to_json() == alone.to_json()
        return failing[self.BAD]

    def test_draw_failure(self, monkeypatch):
        clean = self.batch()
        original = experiments._trial_steps

        def failing_draw(spec, *args):
            if spec.trial_index == self.BAD:
                raise GenerationError("injected")
            return (yield from original(spec, *args))

        monkeypatch.setattr(experiments, "_trial_steps", failing_draw)
        bad = self.check(clean, self.batch())
        assert bad.flags == {"divergence": True, "error": "GenerationError: injected"}
        assert bad.e_nominal_open == bad.e_enhanced_closed == 0.0

    @pytest.mark.parametrize("exc", [DivergedRollout(3), np.linalg.LinAlgError("injected")])
    def test_failure_inside_lockstep_training(self, monkeypatch, exc):
        clean = self.batch()
        bad_inputs = execute_trial(self.bad_spec(), FAST_CFG).truth.inputs
        original = experiments._train_steps

        def failing_training(init, inputs, *args):
            steps = original(init, inputs, *args)
            if not np.array_equal(inputs, bad_inputs):
                return (yield from steps)
            request = next(steps)
            for _ in range(5):  # a few kernel rounds in step with the others
                request = steps.send((yield request))
            raise exc

        monkeypatch.setattr(experiments, "_train_steps", failing_training)
        bad = self.check(clean, self.batch())
        if isinstance(exc, DivergedRollout):
            # a training failure: the enhanced observer falls back to nominal
            assert bad.flags["divergence"] and "error" not in bad.flags
            assert bad.e_enhanced_open == bad.e_nominal_open
            assert bad.to_json() == run_trial(self.bad_spec(), FAST_CFG).to_json()
        else:
            assert bad.flags == {"divergence": True, "error": "LinAlgError: injected"}
