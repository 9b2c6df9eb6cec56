"""Witness searches on sequences and on filtered trajectories.

A sequence is "unpredictable-consistent" when shifted copies of it keep
returning close to itself (small zeta-window error) while other shifts
stay separated (an eta with symbol distance >= epsilon0). The same idea
applies after filtering: a shift that matches on a compact interval must
still separate by a fixed margin somewhere nearby. Both searches return
verdict records whose ``dataclasses.asdict`` is their JSON report, so a
verdict can be archived next to its evidence.
"""

import json
import math
from dataclasses import asdict

import numpy as np

from unpredictable import (BINARY, FilterConfig, SequenceWindow, StepSignal,
                           chi_exact, find_function_witnesses,
                           find_sequence_witnesses, point_window,
                           separation_constants)

# the i* window passes: three shifts that match on [-4, 4] yet separate
seq = point_window(-(1 << 15), 1 << 16)
result = find_sequence_witnesses(seq, 4, 0.0, 1.0, 3)
print("i* verdict:", result.verdict)
for w in result.witnesses:
    print(f"  zeta {w.zeta:>5}  eta {w.eta:>5}  separation {w.separation}")

# a periodic control fails: its period matches perfectly but can never
# separate, and the data itself proves the periodicity
periodic = SequenceWindow(BINARY, -32, np.tile([0.0, 1.0], 64))
print("periodic control:", find_sequence_witnesses(periodic, 4, 0.0,
                                                   1.0, 3).verdict)

# function level: filter i* at mu = 1 and test the shift 3018, which
# matches the sequence on a half-width-6 window around the origin; the
# samples sit on a lattice that holds every breakpoint, mu / ceil(8 mu /
# sigma) apart, so the search reads them exactly, without interpolation
constants = separation_constants(1.0)
sigma = constants.kappa_ii / 2.0
dt = 1.0 / math.ceil(8.0 / sigma)
trajectory = chi_exact(StepSignal(seq, 1.0),
                       FilterConfig(decay=1.0, step=1.0, sample_dt=dt),
                       -8.0, 3030.0, 0.5)
verdict = find_function_witnesses(trajectory, [3018.0], (0.0, 4.0), sigma,
                                  tolerance=5e-3,
                                  epsilon0=constants.lower_bound)
print("function-level verdict:", verdict.verdict)
# a bare search cannot know the predicted bound, so the report holds null
print(json.dumps(asdict(verdict), indent=2))
