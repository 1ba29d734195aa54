import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import leo.learning
import leo.lti_core
import leo.observer
from leo import experiments
from leo.exceptions import (
    DegenerateReferenceError,
    GenerationError,
    LeoError,
    PolePlacementInfeasible,
)
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

    @pytest.mark.parametrize("start, length", [(-5, 3), (-1, 0), (0, -1), (2, -3)])
    def test_negative_window_is_a_configuration_error(self, start, length):
        # not a window counted from the end, and not a degenerate reference
        x = np.arange(1.0, 21.0).reshape(10, 2)
        with pytest.raises(ValueError, match="non-negative"):
            normalized_error(2 * x, x, start, length)

    def test_zero_length_window_scores_one_state(self):
        x = np.arange(1.0, 21.0).reshape(10, 2)
        x_hat = x.copy()
        x_hat[4] *= 1.5
        assert normalized_error(x_hat, x, 4, 0) == pytest.approx(0.5)
        assert normalized_error(x_hat, x, 3, 0) == 0.0


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

    @pytest.mark.parametrize("ties", [1, 3])
    def test_equal_infinite_errors_are_a_tie(self, ties):
        # two unscorable rollouts (inf, inf) are a zero difference, as in
        # the reduction and the success rate: dropped, not ranked
        nominal = np.arange(1.0, 11.0) + 1.0
        enhanced = np.arange(1.0, 11.0)
        with_ties = wilcoxon_signed_rank(
            np.append(nominal, [np.inf] * ties), np.append(enhanced, [np.inf] * ties)
        )
        assert with_ties == wilcoxon_signed_rank(nominal, enhanced) == 1.0 / 1024.0

    def test_one_infinite_error_is_the_largest_difference(self):
        nominal = np.append(np.arange(1.0, 11.0) + 1.0, np.inf)
        enhanced = np.append(np.arange(1.0, 11.0), 2.0)
        assert wilcoxon_signed_rank(nominal, enhanced) == 1.0 / 2048.0

    @pytest.mark.parametrize("side", ["nominal", "enhanced"])
    def test_nan_is_rejected(self, side):
        a, b = np.arange(1.0, 11.0) + 1.0, np.arange(1.0, 11.0)
        (a if side == "nominal" else b)[4] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            wilcoxon_signed_rank(a, b)
        # the summary's other statistics reject the same samples
        with pytest.raises(ValueError, match="NaN"):
            success_rate(a, b)
        with pytest.raises(ValueError, match="NaN"):
            trimmed_mean_reduction(a if side == "nominal" else b)

    @pytest.mark.parametrize("zero_differences", [False, True])
    def test_unknown_method_is_rejected(self, zero_differences):
        a = np.arange(1.0, 9.0)
        b = a if zero_differences else a - 0.5
        with pytest.raises(ValueError, match="method"):
            wilcoxon_signed_rank(a, b, method="bogus")

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


class TestTrialSpec:
    @pytest.mark.parametrize(
        "field", ["process_noise_std", "measurement_noise_std", "perturbation_std",
                  "x0_offset_std", "input_std"],
    )
    @pytest.mark.parametrize("value", [-0.1, np.nan, np.inf])
    def test_std_must_be_non_negative_and_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrialSpec(dims=(2, 1, 1), **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("seed", -1), ("trial_index", -2), ("seed", 1.5), ("horizon", 300.5),
         ("horizon", 0), ("max_regenerations", 0), ("max_regenerations", 2.0)],
    )
    def test_counts_and_seeds_are_checked(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrialSpec(dims=(2, 1, 1), **{field: value})

    @pytest.mark.parametrize("dims", [(2.5, 1, 1), (2, 1.0, 1), (2, 1), (2, 1, 1, 1), 3, "211"])
    def test_dims_must_be_three_integers(self, dims):
        message = r"dims must be three integers \(n, p, q\), got " + re.escape(repr(dims))
        with pytest.raises(ValueError, match=message):
            TrialSpec(dims=dims)

    def test_integer_dims_are_stored_as_ints(self):
        spec = TrialSpec(dims=np.array([3, 2, 1]))
        assert spec.dims == (3, 2, 1) and all(type(d) is int for d in spec.dims)

    def test_zero_stds_and_seed_are_valid(self):
        zero = dict(process_noise_std=0.0, measurement_noise_std=0.0, perturbation_std=0.0,
                    x0_offset_std=0.0, input_std=0.0)
        spec = TrialSpec(dims=(2, 1, 1), seed=np.int64(0), trial_index=0, horizon=260, **zero)
        assert spec.seed == 0 and spec.max_regenerations == 20

    def test_nan_std_is_no_longer_a_divergence(self):
        # a configuration error, not ten trials flagged as diverged
        with pytest.raises(ValueError, match="perturbation_std"):
            run_monte_carlo(
                [(2, 1, 1)], trials=10,
                trial_spec=TrialSpec(dims=(2, 1, 1), perturbation_std=np.nan),
            )


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

    def test_float_dims_are_rejected_not_truncated(self):
        with pytest.raises(ValueError, match=r"got \(2\.7, 1, 1\)"):
            run_monte_carlo([(2, 1, 1), (2.7, 1, 1)], trials=10, train_cfg=FAST_CFG)

    @pytest.mark.parametrize("field, value", [("trials", 10.5), ("parallel", 1.5)])
    def test_counts_must_be_integers(self, field, value):
        kwargs = {"trials": 10, "parallel": 1, field: value}
        with pytest.raises(ValueError, match=f"{field} must be an integer, got {value}"):
            run_monte_carlo([(2, 1, 1)], train_cfg=FAST_CFG, **kwargs)

    @pytest.mark.parametrize("parallel", [0, -3])
    def test_parallel_below_one_rejected(self, parallel):
        with pytest.raises(ValueError, match="parallel"):
            run_monte_carlo(
                [(2, 1, 1)], trials=10, master_seed=0, train_cfg=FAST_CFG, parallel=parallel
            )

    def test_parallel_matches_serial(self):
        # 11 trials per triple: two workers train unequal batches
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

    def test_workers_capped_by_usable_cpus(self, monkeypatch):
        # one CPU in the affinity mask: no pool, whatever the host counts
        monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", None)
        assert experiments._usable_cpus() == 1
        run_monte_carlo([(2, 1, 1)], trials=10, master_seed=0, train_cfg=FAST_CFG, parallel=2)
        monkeypatch.delattr(experiments.os, "sched_getaffinity", raising=False)
        assert experiments._usable_cpus() == 64

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


def blind_nominal(system):
    """The system with its nominal C zeroed, so the nominal pair is unobservable."""
    return replace(system, delta_C=system.real.C)


class TestNominalRegeneration:
    """The nominal placement is a trial's observability gate: an unobservable
    nominal pair is redrawn on the next sub-seed, an override never is."""

    SPEC = TrialSpec(dims=(3, 2, 1), seed=5)

    def test_unobservable_first_draw_is_regenerated(self, monkeypatch):
        draw = experiments.random_system
        draws = []

        def blind_first(*args):
            draws.append(draw(*args))
            return blind_nominal(draws[-1]) if len(draws) == 1 else draws[-1]

        monkeypatch.setattr(experiments, "random_system", blind_first)
        trial = experiments._prepare_trial(self.SPEC, TrainConfig(epochs=0))
        assert trial.flags["regenerations"] == 1
        assert len(draws) == 2
        assert np.array_equal(trial.nominal.A, draws[1].nominal().A)
        assert np.array_equal(trial.nominal.C, draws[1].nominal().C)
        assert trial.gain_nominal.any()

    def test_every_draw_unobservable(self, monkeypatch):
        draw = experiments.random_system
        monkeypatch.setattr(experiments, "random_system", lambda *a: blind_nominal(draw(*a)))
        with pytest.raises(LeoError, match="observable nominal pair in 2 attempts"):
            experiments._prepare_trial(
                replace(self.SPEC, max_regenerations=2), TrainConfig(epochs=0)
            )

    def test_unobservable_override_raises(self):
        from leo.cli import demo_system

        with pytest.raises(PolePlacementInfeasible, match="not observable"):
            execute_trial(
                TrialSpec(dims=(2, 1, 1)), TrainConfig(epochs=0),
                system_override=blind_nominal(demo_system()),
            )

    def test_one_observability_decision_per_pair(self, monkeypatch):
        # the draw's own check, the nominal placement and the enhanced one;
        # the C placement pass, where it loads, decides inside its call
        original = leo.lti_core._observable
        kernel = leo.lti_core._load_kernel()  # loaded first: its probes decide too
        place = kernel.place
        calls = []

        def counted(A, C):
            calls.append(len(A))
            return original(A, C)

        def counted_place(A, C, desired):
            calls.append(len(A))
            return place(A, C, desired)

        for module in (leo.lti_core, leo.observer):
            monkeypatch.setattr(module, "_observable", counted)
        if place:
            monkeypatch.setattr(leo.lti_core, "_kernel", replace(kernel, place=counted_place))
        execute_trial(self.SPEC, TrainConfig(epochs=0))
        assert calls == [1, 1, 1]


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
        original = experiments._draw_trial

        def failing_draw(spec, *args):
            if spec.trial_index == self.BAD:
                raise GenerationError("injected")
            return original(spec, *args)

        monkeypatch.setattr(experiments, "_draw_trial", failing_draw)
        bad = self.check(clean, self.batch())
        assert bad.flags == {"divergence": True, "error": "GenerationError: injected"}
        assert bad.e_nominal_open == bad.e_enhanced_closed == 0.0

    def test_failure_inside_batch_training(self, monkeypatch, round_loop):
        # The trial's gradient turns non-finite for good: its first failed
        # epoch rolls back, the next one, with no step left to undo, aborts.
        clean = self.batch()
        bad_inputs = execute_trial(self.bad_spec(), FAST_CFG).truth.inputs
        original = leo.learning._stacked_loss
        calls = []

        def failing_loss(dims, cfg, theta, anchor, inputs, measured, *rest):
            at = [i for i, u in enumerate(inputs) if np.array_equal(u, bad_inputs[: len(u)])]
            if at:
                calls.append(len(inputs))
            out = original(dims, cfg, theta, anchor, inputs, measured, *rest)
            # a few rounds in step with the others, then the trial's row fails
            if at and len(calls) > 5:
                out[1][at[0], 0] = np.nan
            return out

        monkeypatch.setattr(leo.learning, "_stacked_loss", failing_loss)
        bad = self.check(clean, self.batch())
        assert max(calls) == 10
        # an aborted run: the enhanced observer falls back to nominal
        assert bad.flags["divergence"] and "error" not in bad.flags
        assert bad.e_enhanced_open == bad.e_nominal_open
        assert bad.to_json() == run_trial(self.bad_spec(), FAST_CFG).to_json()
