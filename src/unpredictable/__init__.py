"""Shift-recurrent symbol sequences and their exponentially filtered signals.

The package builds bi-infinite 0/1 sequences that keep returning near
themselves under the shift map while never collapsing into periodicity,
turns them (or seeded random draws) into piecewise-constant signals, pushes
those through an exponential filter with closed-form accuracy, and verifies
the recurrence-with-separation behaviour empirically on both the symbolic
and the filtered level.
"""

from .bernoulli import BernoulliSpec, realize
from .errors import (CoverageError, DomainError, ResolutionError,
                     ResourceError, UnpredictableError)
from .filtering import (MAX_SAMPLES, FilterConfig, QuadratureResult,
                        SeparationConstants, StepSignal, Trajectory, chi_exact,
                        chi_quadrature, separation_constants)
from .point import (MAX_LEVEL, MAX_WINDOW, StringFamily, family,
                    point_symbol, point_window)
from .seqio import (format_json_report, format_sequence,
                    format_trajectory_csv, parse_sequence,
                    parse_trajectory_csv, read_sequence, read_trajectory_csv,
                    write_json_report, write_sequence, write_trajectory_csv)
from .symbolspace import (BINARY, Alphabet, MetricResult, SequenceWindow,
                          metric_distance, shift)
from .verify import (FunctionVerdict, FunctionWitness, SequenceVerdict,
                     SequenceWitness, find_function_witnesses,
                     find_sequence_witnesses, orbit_return_distances,
                     qualifying_shifts, verify_filtered)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "BINARY", "BernoulliSpec", "CoverageError", "DomainError",
    "FilterConfig", "FunctionVerdict", "FunctionWitness", "MAX_LEVEL",
    "MAX_SAMPLES", "MAX_WINDOW", "MetricResult", "QuadratureResult",
    "ResolutionError", "ResourceError", "SeparationConstants",
    "SequenceVerdict", "SequenceWindow", "SequenceWitness", "StepSignal",
    "StringFamily", "Trajectory", "UnpredictableError", "chi_exact",
    "chi_quadrature", "family", "find_function_witnesses",
    "find_sequence_witnesses", "format_json_report", "format_sequence",
    "format_trajectory_csv", "metric_distance", "orbit_return_distances",
    "parse_sequence", "parse_trajectory_csv", "point_symbol",
    "point_window", "qualifying_shifts", "read_sequence",
    "read_trajectory_csv", "realize", "separation_constants", "shift",
    "verify_filtered", "write_json_report", "write_sequence",
    "write_trajectory_csv",
]
