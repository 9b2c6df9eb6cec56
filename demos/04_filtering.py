"""Driving the exponential filter with a random step signal.

The filter solves x' = -lambda*x + pi(t) where pi holds each symbol for a
fixed step mu. Between breakpoints the solution has a closed form, so the
trajectory is exact at every sample no matter how coarse the grid is. Two
runs from different initial values forget their start at rate e^-t, and
an independent tail quadrature cross-checks the recurrence.
"""

import numpy as np

from unpredictable import (BINARY, BernoulliSpec, FilterConfig, StepSignal,
                           chi_exact, chi_quadrature, realize)

drive = StepSignal(realize(BernoulliSpec(BINARY, (0.5, 0.5), 42, 1000)),
                   step=0.1)
config = FilterConfig(decay=1.0, step=0.1, sample_dt=0.01)

# chi_exact from t = 0 with start value phi0 solves the ODE with x(0) = phi0
low = chi_exact(drive, config, 0.0, 100.0, 0.0)
high = chi_exact(drive, config, 0.0, 100.0, 1.0)
print(f"samples: {len(low)}, range [{low.values.min():.4f}, "
      f"{high.values.max():.4f}]")

gap = high.values - low.values
worst = np.max(np.abs(gap - np.exp(-low.times)))
print(f"max |gap - e^-t| over [0, 100]: {worst:.2e}")

# the recurrence and a 40-unit tail integral agree to rounding error
t = 55.0
tail = chi_quadrature(drive, config, t, 40.0)
direct = chi_exact(drive, config, t - 40.0, t, 0.0).values[-1]
print(f"chi({t}): recurrence {direct:.15f}, quadrature {tail.value:.15f}")
print(f"difference {abs(direct - tail.value):.2e}, "
      f"truncation bound {tail.truncation_bound:.2e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed, skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(9, 3))
    ax.plot(low.times, low.values, lw=0.7, label="phi0 = 0")
    ax.plot(high.times, high.values, lw=0.7, label="phi0 = 1")
    ax.set_xlabel("t")
    ax.set_ylabel("chi(t)")
    ax.legend(loc="upper right")
    fig.tight_layout()
    fig.savefig("filtered_trajectories.png", dpi=120)
    print("wrote filtered_trajectories.png")
