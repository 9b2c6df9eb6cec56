"""Benchmark of the ``unpredictable`` CLI pipelines.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload from ``workloads.py`` in this process, closed loop, one
pipeline at a time, through ``unpredictable.cli.main`` on the package
source in ``src/`` next to this directory.  Every run first makes one
untimed pass in a fresh interpreter, which gives the peak memory, and
checks its outputs; later passes must reproduce that pass's output digests.

With ``--trace 0`` it then times whole pipelines for ``--seconds`` and
prints the end-to-end metrics: ``wall_s`` (median pipeline wall time),
``setup_s`` (median cold ``import unpredictable`` over fresh
interpreters), ``peak_mem_mb`` (growth of the peak resident set during the
checked pass) and ``ok_frac`` (pipelines that exited 0 with correct
outputs, over those attempted).  With ``--trace 1`` it alternates untraced
and traced pipelines for ``--seconds`` and prints the per-layer metrics of
``tracing.py``.

The last line of standard output is the result as one JSON object; the line
before it holds the full report (provenance, samples, digests, problems).
Spans of a traced run go to ``.bench_work/spans/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Fresh interpreters whose import time gives setup_s.
SETUP_INTERPRETERS = 7

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_mem_mb", "MB"),
              ("ok_frac", "frac"))

_MEMORY_PASS = ("import sys\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "import run\n"
                "run._memory_pass_child(sys.argv[2], int(sys.argv[3]),\n"
                "                       sys.argv[4], sys.argv[5] == '1')\n")

_IMPORT_TIMER = ("import sys, time\n"
                 "sys.path.insert(0, sys.argv[1])\n"
                 "start = time.perf_counter()\n"
                 "import unpredictable\n"
                 "print(time.perf_counter() - start)\n")


def load_package():
    """Import ``unpredictable`` from ``src/`` of this checkout, or exit."""
    init = SRC / "unpredictable" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: package source {init} not found")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import unpredictable
    if Path(unpredictable.__file__).resolve() != init:
        raise SystemExit(f"error: imported {unpredictable.__file__}, "
                         f"not {init}")
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    return unpredictable


def setup_times() -> list[float]:
    times = []
    for _ in range(SETUP_INTERPRETERS):
        done = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
                              capture_output=True, text=True, check=True,
                              timeout=60, cwd=ROOT)
        times.append(float(done.stdout))
    return times


def memory_pass(name: str, seed: int, workdir: Path,
                small: bool) -> tuple[bool, int]:
    """Run the pipeline once in a fresh interpreter; (all steps exited 0,
    growth of its peak resident set in bytes).  The outputs stay in
    ``workdir`` for the checks."""
    done = subprocess.run(
        [sys.executable, "-c", _MEMORY_PASS, str(HERE), name, str(seed),
         str(workdir), str(int(small))],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    sys.stderr.write(done.stderr)
    if done.returncode:
        return False, 0
    result = json.loads(done.stdout)
    return result["ok"], result["peak_bytes"]


def _memory_pass_child(name: str, seed: int, workdir: str,
                       small: bool) -> None:
    load_package()
    import workloads
    from unpredictable import cli
    pipe = workloads.WORKLOADS[name](seed, Path(workdir), small)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok, _ = run_once(cli, pipe)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"ok": ok, "peak_bytes": 1024 * (after - before)}))


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop: how fast this machine runs
    interpreted code right now, for reading timings against each other."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_once(cli, pipe) -> tuple[bool, float]:
    """Run every step of a pipeline; (all exited 0, wall seconds)."""
    for name in pipe.outputs:
        (pipe.workdir / name).unlink(missing_ok=True)
    gc.collect()
    start = time.perf_counter()
    try:
        ok = all(cli.main(list(step.argv)) == 0 for step in pipe.steps)
    except Exception:
        traceback.print_exc()
        ok = False
    return ok, time.perf_counter() - start


def digests(pipe) -> dict[str, str | None]:
    out = {}
    for name in pipe.outputs:
        path = pipe.workdir / name
        out[name] = (hashlib.sha256(path.read_bytes()).hexdigest()
                     if path.is_file() else None)
    return out


def pinned_digests(name: str, seed: int, small: bool):
    """Digests pinned in ``digests.json`` for this workload and seed."""
    pinned = json.loads((HERE / "digests.json").read_text())
    if small or seed != pinned["seed"]:
        return None
    return pinned["workloads"].get(name)


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[len("ref: "):]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(package, seed: int, samples: dict) -> dict:
    import numpy
    return {"commit": git_commit(), "package_version": package.__version__,
            "numpy": numpy.__version__,
            "python": platform.python_version(), "cpu": cpu_model(),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "seed": seed, "samples": samples}


def measure(name: str, seed: int, seconds: float, trace: bool,
            small: bool = False) -> tuple[dict, dict]:
    """Run one workload; return (result line, full report)."""
    package = load_package()
    import tracing
    import workloads
    from unpredictable import cli

    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        pipe = workloads.WORKLOADS[name](seed, workdir, small)
        setup = [] if trace else setup_times()

        ok, peak = memory_pass(name, seed, workdir, small)
        check = workloads.CheckResult()
        if not ok:
            check.problems.append("a pipeline step exited non-zero")
        else:
            try:
                check = pipe.check()
            except Exception as exc:
                check.problems.append(f"output check raised {exc!r}")
        reference = digests(pipe)
        attempted, failed = 1, int(bool(check.problems))
        traced_differ = 0

        def timed(tracer=None) -> float:
            nonlocal attempted, failed, traced_differ
            if tracer is None:
                ok, wall = run_once(cli, pipe)
            else:
                with tracer:
                    ok, wall = run_once(cli, pipe)
            same = digests(pipe) == reference
            attempted += 1
            failed += not (ok and same)
            traced_differ += tracer is not None and not same
            return wall

        report = {"workload": name, "small": small,
                  "reference_loop_s": [reference_loop_s()]}
        deadline = time.perf_counter() + seconds
        if trace:
            tracer = tracing.Tracer(package)
            plain, traced, layers, unattributed = [], [], [], []
            counters = None
            while not traced or (time.perf_counter() + statistics.median(
                    plain) + statistics.median(traced) <= deadline):
                plain.append(timed())
                tracer.run_id = len(traced)
                tracer.capture = counters is None
                traced.append(timed(tracer))
                if counters is None:
                    counters = tracing.count_work(tracer.captured)
                    tracer.captured.clear()
                layers.append(tracing.layer_times(tracer.spans,
                                                  tracer.run_id))
                unattributed.append(traced[-1] - tracing.root_time(
                    tracer.spans, tracer.run_id))
            metrics = _layer_metrics(tracing, pipe, check, counters, layers,
                                     plain, traced, unattributed)
            report["traced_outputs_identical"] = traced_differ == 0
            report["spans_file"] = str(_write_spans(tracer.spans, name,
                                                   seed).relative_to(ROOT))
            samples = {"untraced": len(plain), "traced": len(traced)}
            report["wall_s_samples"] = {"untraced": plain, "traced": traced}
        else:
            walls = []
            while not walls or (time.perf_counter()
                                + statistics.median(walls) <= deadline):
                walls.append(timed())
            values = {"wall_s": statistics.median(walls),
                      "setup_s": statistics.median(setup),
                      "peak_mem_mb": peak / 1e6,
                      "ok_frac": (attempted - failed) / attempted}
            metrics = {m: {"value": values[m], "unit": unit}
                       for m, unit in END_TO_END}
            samples = {"timed": len(walls), "setup": len(setup)}
            report["wall_s_samples"] = walls
            report["setup_s_samples"] = setup
    finally:
        for path in sorted(workdir.glob("*")):
            path.unlink()
        workdir.rmdir()

    report["reference_loop_s"].append(reference_loop_s())
    pinned = pinned_digests(name, seed, small)
    report.update({
        "provenance": provenance(package, seed, samples),
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "problems": check.problems[:20],
        "digests": reference,
        "outputs_identical": None if pinned is None else reference == pinned,
    })
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return line, report


def _layer_metrics(tracing, pipe, check, counters, layers, plain, traced,
                   unattributed) -> dict:
    values = {}
    for span in tracing.SPANS:
        for i, (stat, _) in enumerate(tracing.SPAN_STATS):
            values[f"{span}.{stat}"] = statistics.median(
                run[span][i] for run in layers)
    values.update(counters)
    sizes = {f: (pipe.workdir / f).stat().st_size for f in pipe.outputs}
    values["seqio.bytes_written"] = sum(sizes[f] for s in pipe.steps
                                        for f in s.writes)
    values["seqio.bytes_read"] = sum(sizes[f] for s in pipe.steps
                                     for f in s.reads)
    values["filtering.quad_residual_max"] = check.quad_residual_max
    values["filtering.quad_bound"] = check.quad_bound
    values["trace.wall_s"] = statistics.median(traced)
    values["trace.unattributed_s"] = statistics.median(unattributed)
    values["trace.overhead_frac"] = (statistics.median(traced)
                                     / statistics.median(plain) - 1.0)
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in tracing.per_layer_metrics()}


def _write_spans(spans, name: str, seed: int) -> Path:
    path = WORK / "spans" / f"{name}-seed{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for i, (span, start, end, parent, run) in enumerate(spans):
            out.write(json.dumps({"id": i, "name": span, "start": start,
                                  "end": end, "parent": parent,
                                  "run": run}) + "\n")
    return path


def main(argv=None) -> int:
    load_package()
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    line, report = measure(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print(json.dumps({"report": report}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
