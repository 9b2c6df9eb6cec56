"""Per-layer spans and counters, recorded from outside the package.

A :class:`Tracer` replaces, for the length of a ``with`` block, the public
names that callers resolve at call time: every module attribute of the
package that is one of the traced functions (so ``cli.chi_exact`` and
``filtering.chi_exact`` both count), and the traced methods of
``SequenceWindow`` and ``Trajectory``.  Each call records a span (name,
start, end, parent span, run id) in memory.  A layer's self time is its
span's duration minus the time its child spans cover; ``cli.main``'s self
time is therefore the CLI glue.  A traced name that the package no longer
defines is reported with zero calls, not as an error.

Counters are computed after a traced pipeline from the arguments and
results the spans captured, never while a span is open.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

import numpy as np

#: Traced names, ``<module>.<function>`` or ``<module>.<Class>.<method>``.
SPANS = (
    "point.point_window",
    "bernoulli.realize",
    "filtering.chi_exact",
    "filtering.Trajectory.at",
    "verify.qualifying_shifts",
    "verify.find_sequence_witnesses",
    "verify.find_function_witnesses",
    "seqio.format_sequence",
    "seqio.parse_sequence",
    "seqio.format_trajectory_csv",
    "seqio.write_sequence",
    "seqio.read_sequence",
    "seqio.write_trajectory_csv",
    "symbolspace.SequenceWindow.to_indices",
    "symbolspace.SequenceWindow.from_indices",
    "symbolspace.shift",
    "symbolspace.metric_distance",
    "cli.main",
)

SPAN_STATS = (("calls", "count"), ("self_s", "s"), ("incl_s", "s"))

#: Spans whose arguments and result the counters need.
_CAPTURED = frozenset({"point.point_window", "bernoulli.realize",
                       "filtering.chi_exact",
                       "verify.find_sequence_witnesses",
                       "verify.find_function_witnesses"})

#: Counters and ratios: name -> (unit, better).
COUNTERS = {
    "filtering.pieces": ("count", "lower"),
    "filtering.samples": ("count", "lower"),
    "filtering.samples_per_piece": ("ratio", "lower"),
    "filtering.computed_bytes_out": ("bytes", "lower"),
    "filtering.quad_residual_max": ("abs", "lower"),
    "filtering.quad_bound": ("abs", "lower"),
    "verify.seq.shifts_qualified": ("count", "higher"),
    "verify.seq.shifts_examined": ("count", "lower"),
    "verify.seq.witnesses": ("count", "higher"),
    "verify.seq.yield": ("ratio", "higher"),
    "verify.seq.symbols_rescanned": ("count", "lower"),
    "verify.fn.shifts_tested": ("count", "lower"),
    "verify.fn.shifts_qualified": ("count", "higher"),
    "verify.fn.witnesses": ("count", "higher"),
    "verify.fn.yield": ("ratio", "higher"),
    "verify.fn.grid_points": ("count", "lower"),
    "bernoulli.draws": ("count", "lower"),
    "point.symbols": ("count", "lower"),
    "seqio.bytes_written": ("bytes", "lower"),
    "seqio.bytes_read": ("bytes", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}

#: Relative slack the package uses when placing times on a sample grid.
_EDGE_TOL = 1e-9


def per_layer_metrics() -> list[dict]:
    """Every per-layer metric the traced run prints, in order."""
    out = [{"name": f"{span}.{stat}", "unit": unit, "better": "lower"}
           for span in SPANS for stat, unit in SPAN_STATS]
    out += [{"name": name, "unit": unit, "better": better}
            for name, (unit, better) in COUNTERS.items()]
    return out


class Tracer:
    """Context manager that wraps the traced names of one package."""

    def __init__(self, package) -> None:
        self._package = package
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.captured: list[tuple[str, inspect.BoundArguments, object]] = []
        self.capture = False
        self.run_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        prefix = self._package.__name__
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == prefix or name.startswith(prefix + ".")]
        for span in SPANS:
            module_name, *path = span.split(".")
            owner = sys.modules.get(f"{prefix}.{module_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            raw = None if owner is None else vars(owner).get(path[-1])
            if raw is None:
                continue
            if len(path) == 2:
                self._wrap_method(owner, path[-1], raw, span)
            else:
                wrapper = self._wrap(span, raw)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is raw:
                            self._replace(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, cls, attr: str, raw, span: str) -> None:
        if isinstance(raw, classmethod):
            self._replace(cls, attr, classmethod(self._wrap(span,
                                                            raw.__func__)))
        else:
            self._replace(cls, attr, self._wrap(span, raw))

    def _wrap(self, span: str, fn):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if span in _CAPTURED else None
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            stack.append(index)
            spans.append(None)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (span, start, end, parent, self.run_id)
            if signature is not None and self.capture:
                self.captured.append(
                    (span, signature.bind(*args, **kwargs), result))
            return result

        return wrapper


def layer_times(spans, run_id: int) -> dict[str, tuple[int, float, float]]:
    """span name -> (calls, self seconds, inclusive seconds) for one run."""
    child = [0.0] * len(spans)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {span: (0, 0.0, 0.0) for span in SPANS}
    for i, (name, start, end, parent, run) in enumerate(spans):
        if run == run_id:
            calls, self_s, incl_s = out[name]
            out[name] = (calls + 1, self_s + (end - start - child[i]),
                         incl_s + (end - start))
    return out


def root_time(spans, run_id: int) -> float:
    """Time covered by the outermost spans of one run."""
    return sum(end - start for _, start, end, parent, run in spans
               if run == run_id and parent < 0)


def count_work(captured) -> dict[str, float]:
    """Counters computed from the captured calls of one traced pipeline."""
    c = dict.fromkeys(("filtering.pieces", "filtering.samples",
                       "verify.seq.shifts_qualified",
                       "verify.seq.shifts_examined", "verify.seq.witnesses",
                       "verify.seq.symbols_rescanned",
                       "verify.fn.shifts_tested", "verify.fn.shifts_qualified",
                       "verify.fn.witnesses", "verify.fn.grid_points",
                       "bernoulli.draws", "point.symbols"), 0)
    for span, bound, result in captured:
        a = bound.arguments
        if span == "point.point_window":
            c["point.symbols"] += len(result)
        elif span == "bernoulli.realize":
            c["bernoulli.draws"] += len(result)
        elif span == "filtering.chi_exact":
            signal = a["signal"]
            piece = lambda t: math.floor((t - signal.origin) / signal.step)
            c["filtering.pieces"] += piece(result.t_end) - piece(
                result.t_start) + 1
            c["filtering.samples"] += len(result)
        elif span == "verify.find_sequence_witnesses":
            _count_sequence_search(c, a, result)
        elif span == "verify.find_function_witnesses":
            _count_function_search(c, a, result)
    c["filtering.samples_per_piece"] = _ratio(c["filtering.samples"],
                                              c["filtering.pieces"])
    c["filtering.computed_bytes_out"] = 16 * c["filtering.samples"]
    c["verify.seq.yield"] = _ratio(c["verify.seq.witnesses"],
                                   c["verify.seq.shifts_examined"])
    c["verify.fn.yield"] = _ratio(c["verify.fn.witnesses"],
                                  c["verify.fn.shifts_tested"])
    return c


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _count_sequence_search(c: dict, a: dict, result) -> None:
    """Shifts the dense scan examines and the symbols it compares while
    looking for separating indices: every qualifying shift up to the one
    that gave the last witness (all of them when the search ends short of
    the requested count), each over the whole overlap of the window with
    its shift (the eta rescan)."""
    seq, L = a["seq"], int(a["window_half_width"])
    v, first, last = seq.symbols, seq.first_index, seq.last_index
    base = v[-L - first:L + 1 - first]
    shifts = []
    windows = np.lib.stride_tricks.sliding_window_view(v, 2 * L + 1)
    lo = 1 - L - first          # array offset of the window for shift 1
    for start in range(lo, windows.shape[0], 1 << 16):
        block = windows[start:start + (1 << 16)]
        err = np.max(np.abs(block - base), axis=1)
        shifts.append(np.flatnonzero(err <= a["tolerance"]) + start - lo + 1)
    qualifying = np.concatenate(shifts) if shifts else np.empty(0, np.int64)
    examined = qualifying
    if result.verdict == "consistent":
        stop = int(np.searchsorted(qualifying, result.witnesses[-1].zeta))
        examined = qualifying[:stop + 1]
    overlap = last - examined - max(1, first) + 1
    c["verify.seq.shifts_qualified"] += int(qualifying.size)
    c["verify.seq.shifts_examined"] += int(examined.size)
    c["verify.seq.witnesses"] += len(result.witnesses)
    c["verify.seq.symbols_rescanned"] += int(np.sum(np.maximum(overlap, 0)))


def _count_function_search(c: dict, a: dict, result) -> None:
    """Shifts tested and qualified, and the grid points evaluated through
    the trajectory: the master grid plus each usable shifted grid."""
    traj = a["h"]
    alpha, beta = (float(x) for x in a["compact"])
    sigma = float(a["sigma"])
    dt = sigma / 8.0 if a.get("sample_dt") is None else float(a["sample_dt"])
    d_hi = traj.t_end
    n_compact = int(math.floor((beta - alpha) / dt + _EDGE_TOL)) + 1
    win = int(round(2.0 * sigma / dt)) + 1
    grid = alpha + dt * np.arange(n_compact)
    base = np.interp(grid, traj.times, traj.values)
    shifts = [float(s) for s in a["t_shift_candidates"]]
    points = int(math.floor((d_hi - alpha) / dt + _EDGE_TOL)) + 1
    qualified = 0
    for s in shifts:
        usable = int(math.floor((d_hi - s - alpha) / dt + _EDGE_TOL)) + 1
        if usable < max(n_compact, win):
            continue
        points += usable
        err = np.max(np.abs(np.interp(grid + s, traj.times, traj.values)
                            - base))
        qualified += bool(err <= a["tolerance"])
    c["verify.fn.shifts_tested"] += len(shifts)
    c["verify.fn.shifts_qualified"] += qualified
    c["verify.fn.witnesses"] += len(result.witnesses)
    c["verify.fn.grid_points"] += points
