"""martctrl benchmark: time and memory to a verdict, per scenario workload.

Usage, from the root of a martctrl checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each scenario run happens in a fresh interpreter (``child.py``) that imports
martctrl from the checkout's ``src/`` and calls the public entry points
``martctrl.cli.parse_config`` and ``martctrl.cli.run``.  With ``--trace 0``
set-up-only interpreters and scenario runs alternate, with tracing off,
until ``--seconds`` of measuring have passed (at least two runs, so that
every run has a twin with the same config and seed to compare bytes
against).  They all run on one CPU beside the host-speed probe
(``probe.py``), whose samples scale each time to the host's typical speed,
and the end-to-end metrics are the medians over the invocation.  With ``--trace 1``
one untraced run is followed by a traced run that gives the per-layer
metrics; on ``variation-tanh`` a second traced run at two threads gives
the thread speed-up.  Every run's verdict and artifacts are checked.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The workloads and metrics are described in
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe
from spans import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# name -> (config file under perfbench/workloads, base seed, CSV artifacts,
# thread count of a second traced run or None).  The program seed is the
# README default seed of the scenario plus --seed.
WORKLOADS = {
    "spike-scan": ("spike-scan.ini", 12022,
                   ("margins", "margins_summary", "probes", "spike_gaps"),
                   None),
    "lsmc-sweeps": ("lsmc-sweeps.ini", 30303, ("sweeps",), None),
    "variation-tanh": ("variation-tanh.ini", 31415, ("gateaux",), 2),
}

END_TO_END_UNITS = {"norm_wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
MIN_RUNS = 2            # every untraced run needs a same-seed twin
# Every child is killed by this point, so an invocation ends within 180 s.
LIMIT_S = 170.0
# Stop starting scenario runs once another one could end past this point.
DEADLINE_S = 165.0

# Entry points whose self time is scenario glue rather than a layer.
ENTRY_POINTS = ("cli.run", "pmp.run_example1", "pmp.run_example2")


class Bench:
    """Child-process runner and bookkeeping for one benchmark invocation."""

    def __init__(self, workload, seed):
        config_name, base_seed, self.csv_stems, self.trace_threads = \
            WORKLOADS[workload]
        self.config = HERE / "workloads" / config_name
        self.seed = base_seed + seed
        self.started = time.perf_counter()
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None     # CSV hashes of the first scenario run
        self.reports = []         # report.txt hashes, in run order

    def elapsed(self):
        return time.perf_counter() - self.started

    def child(self, mode, threads=None, cpu=None):
        """Run child.py once; return its JSON result, or None if it failed."""
        self.count += 1
        result_path = self.work / f"result-{self.count}.json"
        out_dir = self.work / f"out-{self.count}"
        cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
               "--src", str(SRC), "--config", str(self.config),
               "--seed", str(self.seed), "--result", str(result_path),
               "--out", str(out_dir)]
        if threads is not None:
            cmd += ["--threads", str(threads)]
        if cpu is not None:
            cmd += ["--cpu", str(cpu)]
        try:
            proc = subprocess.run(cmd, cwd=str(self.work),
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=max(1.0, LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            return self._lost(mode, "timed out")
        if proc.returncode != 0 or not result_path.exists():
            tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
            return self._lost(mode, f"exited {proc.returncode}: {tail}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
        package = Path(result["package_file"])
        if SRC.resolve() not in package.parents:
            return self._lost(mode, f"imported martctrl from {package}, "
                                    f"not from the checkout")
        if mode != "setup":
            result["artifacts"] = self._check(out_dir, result)
            shutil.rmtree(out_dir, ignore_errors=True)
        return result

    def _lost(self, mode, why):
        """Record a child that produced no usable result."""
        self.problems.append(f"{mode} run {why}")
        if mode != "setup":
            self.attempted += 1
            self.failed += 1
        return None

    def _check(self, out_dir, result):
        """Verdict, artifact and byte-determinism checks for one run."""
        problems = []
        if result["exit_code"] != 0:
            problems.append(f"exit code {result['exit_code']}")
        report_path = out_dir / "report.txt"
        report = report_path.read_text(encoding="utf-8") \
            if report_path.exists() else ""
        verdicts = _assertion_lines(report)
        if not verdicts:
            problems.append("report has no [assertions] lines")
        problems += [f"assertion {name} = {value}"
                     for name, value in verdicts if value != "pass"]
        manifest = out_dir / "manifest.txt"
        if not manifest.exists() or "status = ok" not in \
                manifest.read_text(encoding="utf-8"):
            problems.append("manifest missing or status not ok")
        hashes = {}
        for stem in self.csv_stems:
            path = out_dir / f"{stem}.csv"
            if path.exists():
                hashes[stem] = hashlib.sha256(path.read_bytes()).hexdigest()
            else:
                problems.append(f"{stem}.csv missing")
        if self.reference is None:
            self.reference = hashes
        elif hashes != self.reference:
            problems.append("CSV bytes differ from an earlier run with the "
                            "same config and seed")
        self.reports.append(hashlib.sha256(report.encode()).hexdigest())
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        artifact_bytes = sum(p.stat().st_size for p in out_dir.iterdir()) \
            if out_dir.exists() else 0
        return {"bytes": artifact_bytes,
                "n_residual_ratio": _report_value(report, "adjoint",
                                                  "n_residual_ratio")}

    def report_identical(self):
        first_two = self.reports[:2]
        return int(len(first_two) == 2 and first_two[0] == first_two[1])


def _assertion_lines(report):
    lines, inside = [], False
    for line in report.splitlines():
        if line.startswith("["):
            inside = line.strip() == "[assertions]"
        elif inside and "=" in line:
            name, value = (part.strip() for part in line.split("=", 1))
            lines.append((name, value))
    return lines


def _report_value(report, section, key):
    current = None
    for line in report.splitlines():
        if line.startswith("["):
            current = line.strip()[1:-1]
        elif current == section and line.split("=", 1)[0].strip() == key:
            return float(line.split("=", 1)[1])
    return None


def measure_untraced(bench, seconds):
    """End-to-end metrics: medians over pinned, speed-scaled runs."""
    cpu = max(os.sched_getaffinity(0))
    samples_path = bench.work / "probe.txt"
    prober = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), "--cpu", str(cpu),
         "--out", str(samples_path)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        return _measure_pinned(bench, seconds, cpu, samples_path)
    finally:
        prober.terminate()
        try:
            prober.wait(timeout=10)
        except subprocess.TimeoutExpired:
            prober.kill()
            prober.wait()


def _measure_pinned(bench, seconds, cpu, samples_path):
    bench.child("setup", cpu=cpu)   # warm-up: bytecode caches, page cache
    scaled = {name: [] for name in END_TO_END_UNITS}
    raw = {"wall_s": [], "cpu_s": [], "setup_s": [], "scale": []}
    runs = 0
    measured = 0.0
    while True:
        setup = bench.child("setup", cpu=cpu)
        result = bench.child("run", cpu=cpu)
        if result is None:
            break
        runs += 1
        samples = probe.load(samples_path)
        for one in (setup, result):
            factor = None if one is None else \
                probe.scale(samples, *one["setup_window"])
            if factor is not None:
                raw["setup_s"].append(one["setup_s"])
                scaled["setup_s"].append(one["setup_s"] * factor)
        factor = probe.scale(samples, *result["run_window"])
        if factor is None:
            bench.problems.append("the host-speed probe took no sample "
                                  "during a run")
            break
        raw["wall_s"].append(result["wall_s"])
        raw["cpu_s"].append(result["cpu_s"])
        raw["scale"].append(factor)
        scaled["norm_wall_s"].append(result["wall_s"] * factor)
        scaled["peak_rss_mb"].append(result["peak_rss_mb"])
        last = result["wall_s"] + result["setup_s"]
        measured += last
        if runs >= MIN_RUNS and measured >= seconds:
            break
        if bench.elapsed() + 1.5 * last > DEADLINE_S:
            break
    if not scaled["norm_wall_s"] or not scaled["setup_s"]:
        return None
    for name, values in raw.items():
        listed = ", ".join(f"{v:.4g}" for v in values)
        print(f"raw {name}: median {statistics.median(values):.6g} "
              f"of {len(values)}: {listed}")
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        values = scaled[name]
        metrics[name] = (statistics.median(values), unit)
        listed = ", ".join(f"{v:.4g}" for v in values)
        print(f"{name} = {metrics[name][0]:.6g} {unit} "
              f"(median of {len(values)}: {listed})")
    print(f"cli.report_identical = {bench.report_identical()}")
    return metrics


def _layer_metrics(trace, untraced, traced, threaded):
    stats = trace["stats"]
    counters = trace["counters"]

    def self_s(name):
        return stats.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    speedup = 0.0       # measured on variation-tanh only
    if threaded is not None:
        several = threaded["trace"]["stats"].get("parallel.map_blocks", {})
        if several.get("self_s", 0.0) > 0.0:
            speedup = self_s("parallel.map_blocks") / several["self_s"]
    nested_policy = sum(count for parent, name, count in trace["edges"]
                        if parent == name == "dynamics.controls_at")
    policy_calls = calls("dynamics.controls_at") - nested_policy
    grid_steps = counters["dynamics.grid_steps"]
    wall = traced["wall_s"]
    metrics = {
        "martingale.sample_s": (self_s("martingale.sample_increments"), "s"),
        "martingale.noise_mb": (counters["martingale.noise_bytes"] / 1e6,
                                "MB"),
        "parallel.map_blocks_s": (self_s("parallel.map_blocks"), "s"),
        "parallel.thread_speedup": (speedup, "ratio"),
        "dynamics.integrate_forward_s": (
            self_s("dynamics.integrate_forward"), "s"),
        "dynamics.integrate_spiked_s": (
            self_s("dynamics.integrate_spiked"), "s"),
        "dynamics.evaluate_cost_s": (self_s("dynamics.evaluate_cost"), "s"),
        "dynamics.integrate_variational_s": (
            self_s("dynamics.integrate_variational"), "s"),
        "dynamics.integrate_zeta_s": (self_s("dynamics.integrate_zeta"), "s"),
        "dynamics.controls_at_s": (self_s("dynamics.controls_at"), "s"),
        "dynamics.controls_at_calls": (policy_calls, "count"),
        "dynamics.grid_steps": (grid_steps, "count"),
        "dynamics.path_steps": (counters["dynamics.path_steps"], "count"),
        "dynamics.policy_evals_per_step": (
            policy_calls / grid_steps if grid_steps else 0.0, "ratio"),
        "dynamics.trajectory_mb": (
            counters["dynamics.trajectory_bytes"] / 1e6, "MB"),
        "hilbert.apply_operator_s": (self_s("hilbert.apply_operator"), "s"),
        "hilbert.psd_sqrt_calls": (calls("hilbert.psd_sqrt"), "count"),
        "adjoint.solve_lsmc_s": (self_s("adjoint.solve_adjoint_lsmc"), "s"),
        "adjoint.grad_x_hamiltonian_s": (
            self_s("adjoint.grad_x_hamiltonian"), "s"),
        "adjoint.grad_x_hamiltonian_calls": (
            calls("adjoint.grad_x_hamiltonian"), "count"),
        "adjoint.y_eval_s": (self_s("adjoint.y_eval"), "s"),
        "adjoint.y_eval_calls": (calls("adjoint.y_eval"), "count"),
        "adjoint.duality_check_s": (self_s("adjoint.duality_check"), "s"),
        "adjoint.n_residual_ratio": (
            traced["artifacts"]["n_residual_ratio"] or 0.0, "ratio"),
        "pmp.necessary_check_s": (self_s("pmp.necessary_check"), "s"),
        "pmp.sufficient_check_s": (self_s("pmp.sufficient_check"), "s"),
        "pmp.gateaux_check_s": (self_s("pmp.gateaux_check"), "s"),
        "pmp.stationarity_residual_s": (
            self_s("pmp.stationarity_residual"), "s"),
        "cli.run_self_s": (self_s("cli.run"), "s"),
        "cli.artifact_mb": (traced["artifacts"]["bytes"] / 1e6, "MB"),
        "trace.wall_s": (wall, "s"),
        "trace_overhead_s": (wall - untraced["wall_s"], "s"),
        "trace.entry_self_ratio": (
            sum(self_s(name) for name in ENTRY_POINTS) / wall, "ratio"),
    }
    for label in MODULES.values():
        metrics[f"{label}.self_s"] = (
            sum(entry["self_s"] for name, entry in stats.items()
                if name.split(".", 1)[0] == label), "s")
    return metrics


def measure_traced(bench):
    """Per-layer metrics from a traced run next to an untraced twin."""
    untraced = bench.child("run")
    traced = bench.child("trace")
    threaded = None
    if bench.trace_threads is not None:
        threaded = bench.child("trace", threads=bench.trace_threads)
    if untraced is None or traced is None:
        return None
    print(f"rebound {traced['rebound']} martctrl bindings for tracing")
    _print_spans(traced["trace"])
    metrics = _layer_metrics(traced["trace"], untraced, traced, threaded)
    metrics["cli.report_identical"] = (bench.report_identical(), "count")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    return metrics


def _print_spans(trace, limit=15):
    stats = trace["stats"]
    print(f"{'span':40s} {'calls':>9s} {'self_s':>9s} {'total_s':>9s}")
    ranked = sorted(stats.items(), key=lambda item: -item[1]["self_s"])
    for name, entry in ranked[:limit]:
        print(f"{name:40s} {entry['calls']:9d} {entry['self_s']:9.3f} "
              f"{entry['total_s']:9.3f}")


def _terminate(signum, frame):
    # Unwinding through subprocess.run kills and reaps the running child.
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "martctrl" / "__init__.py").is_file():
        print(f"error: no martctrl sources under {SRC}; run from the root "
              f"of a martctrl checkout", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics = measure_traced(bench)
        else:
            metrics = measure_untraced(bench, args.seconds)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if metrics is None:
        for problem in bench.problems:
            print(f"problem: {problem}", file=sys.stderr)
        return 1

    for problem in bench.problems:
        print(f"problem: {problem}")
    ratio = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"failed_runs_ratio = {ratio:.6g} ({bench.failed} of "
          f"{bench.attempted} runs)")
    values = {name: {"value": value, "unit": unit}
              for name, (value, unit) in metrics.items()}
    print(json.dumps({"correct": not bench.problems,
                      "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
