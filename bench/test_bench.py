"""Tests of the benchmark itself.

Tiny runs of all four workloads with their output checks, traced runs that
must reproduce the untraced outputs, injected faults that must be counted
as failures, and the contract between ``BENCHMARK.json`` and the code.

    python -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

PACKAGE = run.load_package()
import tracing  # noqa: E402
import workloads  # noqa: E402
from unpredictable import cli  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)
SEED = 5


def test_benchmark_json_matches_the_code():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == NAMES
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        run.END_TO_END)
    assert BENCHMARK["per_layer"] == tracing.per_layer_metrics()
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", NAMES)
def test_small_run_is_correct(name):
    line, report = run.measure(name, SEED, 0, trace=False, small=True)
    assert line["correct"] and line["failed"] == 0, report["problems"]
    assert line["attempted"] >= 2
    assert list(line["metrics"]) == [m["name"]
                                     for m in BENCHMARK["end_to_end"]]
    assert line["metrics"]["wall_s"]["value"] > 0
    assert line["metrics"]["setup_s"]["value"] > 0
    assert line["metrics"]["ok_frac"]["value"] == 1.0
    assert report["outputs_identical"] is None      # pinned at full size only
    assert report["provenance"]["seed"] == SEED


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reproduces_outputs_and_accounts_for_wall(name):
    line, report = run.measure(name, SEED, 0, trace=True, small=True)
    assert line["correct"] and report["traced_outputs_identical"]
    values = {k: v["value"] for k, v in line["metrics"].items()}
    assert list(values) == [m["name"] for m in BENCHMARK["per_layer"]]
    steps = workloads.WORKLOADS[name](SEED, Path("."), small=True).steps
    assert values["cli.main.calls"] == len(steps)
    # one traced pipeline: self times plus the remainder give its wall time
    self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
    assert self_total + values["trace.unattributed_s"] == pytest.approx(
        values["trace.wall_s"], rel=1e-9)
    assert values["cli.main.incl_s"] == pytest.approx(self_total, rel=1e-9)


def test_traced_counters():
    seq = dict((k, v["value"]) for k, v in run.measure(
        "point-verify-seq", SEED, 0, trace=True, small=True)[0]
        ["metrics"].items())
    assert seq["verify.seq.witnesses"] == 10
    first = -(1 << 13) - workloads._window_offset(SEED)
    window = PACKAGE.point_window(first, 1 << 14)
    assert seq["verify.seq.shifts_qualified"] == len(
        PACKAGE.qualifying_shifts(window, 4, 0.0))
    assert seq["verify.seq.shifts_examined"] <= seq[
        "verify.seq.shifts_qualified"]
    assert seq["verify.seq.symbols_rescanned"] > 0
    assert seq["point.symbols"] == 1 << 14
    assert seq["filtering.pieces"] == 0
    drive = dict((k, v["value"]) for k, v in run.measure(
        "drive-filter", SEED, 0, trace=True, small=True)[0]
        ["metrics"].items())
    assert drive["filtering.samples"] == 20_001
    assert drive["filtering.pieces"] == 2_001
    assert drive["bernoulli.draws"] == 2_000
    assert 0 < drive["filtering.quad_residual_max"] <= drive[
        "filtering.quad_bound"]


def test_missing_span_reports_zero_calls_and_wrappers_come_off(monkeypatch,
                                                                tmp_path):
    monkeypatch.setattr(tracing, "SPANS",
                        tracing.SPANS + ("verify.no_such_function",))
    main, at = cli.main, PACKAGE.Trajectory.at
    tracer = tracing.Tracer(PACKAGE)
    with tracer:
        assert cli.main is not main
        cli.main(["point", "--first", "0", "--length", "8",
                  "--out", str(tmp_path / "p.seq")])
    times = tracing.layer_times(tracer.spans, 0)
    assert times["verify.no_such_function"] == (0, 0.0, 0.0)
    assert times["cli.main"][0] == times["point.point_window"][0] == 1
    assert cli.main is main and PACKAGE.Trajectory.at is at


def _with_fault(monkeypatch, filename, corrupt):
    """Corrupt one output file of the checked pass after it ran."""
    real = run.memory_pass

    def faulty(name, seed, workdir, small):
        ok, peak = real(name, seed, workdir, small)
        path = workdir / filename
        path.write_text(corrupt(path.read_text()))
        return ok, peak

    monkeypatch.setattr(run, "memory_pass", faulty)


def test_perturbed_csv_value_counts_as_failure(monkeypatch):
    def corrupt(text):
        lines = text.split("\n")
        t, v = lines[5001].split(",")      # row 5000, not a quadrature anchor
        lines[5001] = f"{t},{float(v) + 1e-9!r}"
        return "\n".join(lines)

    _with_fault(monkeypatch, "chi.csv", corrupt)
    line, report = run.measure("drive-filter", SEED, 0, trace=False,
                               small=True)
    assert not line["correct"] and line["failed"] >= 1
    assert any("recurrence" in p for p in report["problems"])


def test_altered_witness_eta_counts_as_failure(monkeypatch):
    def corrupt(text):
        report = json.loads(text)
        report["witnesses"][3]["eta"] += 1
        return json.dumps(report)

    _with_fault(monkeypatch, "witnesses.json", corrupt)
    line, report = run.measure("point-verify-seq", SEED, 0, trace=False,
                               small=True)
    assert not line["correct"] and line["failed"] >= 1
    assert any("witness 3" in p for p in report["problems"])


def test_benchmark_without_package_source_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "drive-filter",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
