"""Simulate a noisy linear system and watch a Luenberger observer lock on.

This walks through the basic building blocks: drawing a random stable,
observable system, simulating it under Gaussian inputs and noise, placing
observer poles, and checking that the estimation error contracts at the
rate the placed poles promise.
"""

import numpy as np

from leo import (
    NoiseRealization,
    RngStream,
    default_observer_poles,
    is_observable,
    is_schur,
    place_observer_poles,
    random_system,
    run_luenberger,
    simulate_true,
    spectral_radius,
)

rng = RngStream(seed=2024)
system = random_system(n=3, p=2, q=1, rng=rng)

print("drew a random 3-state system with 2 inputs and 1 output")
print(f"  spectral radius of A: {spectral_radius(system.real.A):.4f}"
      f" (Schur stable: {is_schur(system.real.A)})")
print(f"  (A, C) observable: {is_observable(system.real.A, system.real.C)}")
print(f"  hidden true initial state: {system.x0_real.round(4)}")

# Simulate 300 steps with unit-variance inputs and mild noise.
T = 300
gen = rng.substream(1).generator()
inputs = gen.normal(0.0, 1.0, (T, 2))
noise = NoiseRealization(
    w=gen.normal(0.0, 0.1, (T, 3)),
    v=gen.normal(0.0, 0.1, (T + 1, 1)),
)
truth = simulate_true(system, inputs, noise, T)
print(f"\nsimulated {T} steps; state magnitudes settle around "
      f"{np.abs(truth.states[100:]).mean():.2f}")

# Design an observer from the REAL matrices (the idealized case) and start
# it far from the truth.
poles = default_observer_poles(3)
gain = place_observer_poles(system.real.A, system.real.C, poles)
print(f"\nplaced observer poles at {poles.round(3)}")
print(f"  achieved eig(A - LC): "
      f"{np.sort_complex(np.linalg.eigvals(system.real.A - gain @ system.real.C)).round(4)}")

x0_guess = system.x0_real + np.array([5.0, -8.0, 3.0])
estimate = run_luenberger(system.real, gain, inputs, truth.outputs, x0_guess, T)

err = np.abs(estimate.states - truth.states).sum(axis=1)
print("\nestimation error ||x_hat - x||_1 over time:")
for k in (0, 5, 10, 20, 40, 80):
    print(f"  k={k:3d}: {err[k]:.6f}")
print("the transient dies at roughly the placed-pole rate; what remains")
print(f"is the noise floor, about {err[150:].mean():.4f} on average here.")
