"""fourfree benchmark: drive the CLI as a user would and report its metrics.

    python3 bench/run.py --workload main-sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

With ``--trace 0`` each iteration runs the workload's CLI calls one at a
time as child processes (``python3 -m fourfree ...``), timed end to end, and
the run reports the end-to-end metrics named in BENCHMARK.json.  With
``--trace 1`` untraced iterations alternate with traced ones, whose calls run
through ``bench/traced.py`` with spans around every call into a layer; the
run reports the per-layer metrics and the tracing overhead.  ``--workload all``
runs every workload both ways and prints every metric.

Iterations repeat (at least one) while the next one is expected to end
within half an iteration of ``--seconds``; a traced run does the same with
untraced/traced pairs.  Reference checks run outside the timed region; a call
whose exit code or report differs from its reference counts as failed.  The
last line of standard output is one JSON object: correct, attempted, failed,
metrics.  The exit code is 0 only when every check passed.

Outputs go to ``.bench_out/`` at the checkout root: the full result of each
run, with the host record, in ``results/``; the reports and spans of the
latest run of each workload in ``<workload>-trace<t>/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("main-sweep", "drop-halvable", "structure", "search")
SETUP_REPS = 7
CALIBRATION_REPS = 3
RUN_DEADLINE_S = 150.0  # stop starting work after this; every run must end within 180 s
TAIL_BEYOND = 10


# -- statistics ------------------------------------------------------------------


def tail(values: list) -> dict:
    """Highest percentile (nearest rank) with at least ten samples beyond it.

    With fewer than eleven samples no percentile qualifies; the maximum is
    reported, as percentile 100 with no samples beyond.
    """
    xs = sorted(values)
    n = len(xs)
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(n * pct / 100)
        if n - rank >= TAIL_BEYOND:
            return {"value": xs[rank - 1], "percentile": pct, "beyond": n - rank, "samples": n}
    return {"value": xs[-1], "percentile": 100, "beyond": 0, "samples": n}


def median(values: list) -> float:
    return statistics.median(values) if values else 0


# -- host ------------------------------------------------------------------------


def calibration_loop() -> float:
    """Fixed pure-Python Fraction/dict work; its time tracks host speed."""
    start = time.perf_counter()
    x = Fraction(0)
    seen: dict = {}
    for i in range(1, 12_000):
        x = (x + Fraction(i % 31, i % 29 + 1)) % 7
        seen[x] = seen.get(x, 0) + 1
    return time.perf_counter() - start


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def host_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "loadavg_before": list(os.getloadavg()),
    }


def calibration_summary(before: list, after: list) -> dict:
    both = before + after
    return {
        "before_s": before,
        "after_s": after,
        "spread": (max(both) - min(both)) / min(both),
        "drift": median(after) / median(before) - 1,
    }


# -- child processes --------------------------------------------------------------


def child_env() -> dict:
    # a fixed hash seed removes one source of run-to-run variation in set order
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


# One probe chunk's CPU time on the reference CPU, about that of the 2-core
# Xeon KVM guest this was tuned on in its fast state; see ``Child.ref_s``.
PROBE_REF_S = 0.0013
# The CPU that every child and its probe share.
PROBE_CPU = min(os.sched_getaffinity(0))


@dataclass
class Child:
    wall_s: float
    exit_code: int
    max_rss_mb: float
    probe_chunks: int
    probe_cpu_s: float

    @property
    def ref_s(self) -> float:
        """Wall time at the reference CPU speed.

        The host's CPU speed swings by up to 1.7x within seconds.  The probe
        measures that speed on the child's own CPU all through its run, so the
        child's wall time, less the probe's share, is scaled to the speed at
        which a probe chunk takes ``PROBE_REF_S``.
        """
        chunk_s = self.probe_cpu_s / self.probe_chunks
        return (self.wall_s - self.probe_cpu_s) * PROBE_REF_S / chunk_s


# Children start from this small launcher, not from the benchmark process:
# Linux carries the RSS high-water mark of the forking process across exec, so
# a child spawned from here would report this process's peak (it grows while it
# checks reports) as its own.  The launcher pins itself and the child to one
# CPU, times the child from spawn to reaped exit and kills it at the timeout.
# While the child runs, a probe thread on the same CPU runs a fixed
# pure-Python chunk every 50 ms and records the chunk's thread CPU time.  The
# launcher prints wall time, exit code, max-RSS in KiB, the number of chunks
# and their summed CPU time.
LAUNCHER = """
import os, signal, sys, threading, time
from fractions import Fraction
cpu, timeout, err_path, *argv = sys.argv[1:]
os.sched_setaffinity(0, {int(cpu)})
err = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
null = os.open(os.devnull, os.O_WRONLY)
actions = [(os.POSIX_SPAWN_DUP2, null, 1), (os.POSIX_SPAWN_DUP2, err, 2)]
chunks, done = [], threading.Event()
def probe():
    while True:
        t = time.thread_time()
        x = Fraction(0)
        for i in range(1, 300):
            x = (x + Fraction(i % 31, i % 29 + 1)) % 7
        chunks.append(time.thread_time() - t)
        if done.wait(0.05):
            return
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
prober = threading.Thread(target=probe)
prober.start()
signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
signal.setitimer(signal.ITIMER_REAL, float(timeout))
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
signal.setitimer(signal.ITIMER_REAL, 0)
done.set()
prober.join()
print(wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss, len(chunks), sum(chunks))
"""


def spawn(argv: list, stderr_path: Path, timeout: float) -> Child:
    """Run one child to completion through the launcher."""
    launcher = [sys.executable, "-S", "-c", LAUNCHER, str(PROBE_CPU), str(timeout), str(stderr_path), *argv]
    done = subprocess.run(launcher, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, check=True)
    wall, code, rss_kib, chunks, probe_cpu = done.stdout.split()
    return Child(float(wall), int(code), int(rss_kib) / 1024, int(chunks), float(probe_cpu))


def cli_command(call: wl.Call, iteration: str, index: int, out: Path) -> list:
    return [sys.executable, "-m", "fourfree", *call.argv()]


def traced_command(call: wl.Call, iteration: str, index: int, out: Path) -> list:
    spans = out / "spans" / f"{iteration}-{index:02d}.json"
    return [sys.executable, str(BENCH / "traced.py"), "--spans", str(spans),
            "--iteration", iteration, "--call", str(index), "--", *call.argv()]


# -- one run ---------------------------------------------------------------------


@dataclass
class Iteration:
    label: str
    wall_s: float = 0.0
    ref_s: float = 0.0
    max_rss_mb: float = 0.0
    calls: list = field(default_factory=list)  # (label, wall_s, ref_s, exit_code)


@dataclass
class Run:
    workload: wl.Workload
    out: Path
    deadline: float
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def iterate(self, label: str, command) -> Iteration:
        """All of the workload's calls once, then their reference checks."""
        it = Iteration(label)
        for index, call in enumerate(self.workload.calls):
            self.attempted += 1
            remaining = self.deadline - time.perf_counter()
            if remaining <= 0:
                self.fail(label, call, "run deadline passed before the call")
                continue
            stderr = self.out / "stderr" / f"{label}-{index:02d}.txt"
            child = spawn(command(call, label, index, self.out), stderr, remaining)
            it.wall_s += child.wall_s
            it.ref_s += child.ref_s
            it.max_rss_mb = max(it.max_rss_mb, child.max_rss_mb)
            it.calls.append((call.label, child.wall_s, child.ref_s, child.exit_code))
            if child.exit_code != call.expect_exit:
                self.fail(label, call, f"exit {child.exit_code}, want {call.expect_exit}")
                continue
            try:
                found = call.check(call.report)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                found = [f"unreadable report: {exc!r}"]
            if found:
                self.fail(label, call, "; ".join(found[:5]))
        return it

    def fail(self, iteration: str, call: wl.Call, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 50:
            self.problems.append(f"[{iteration}] {call.label}: {problem}")

    def setup_runs(self) -> list:
        """Fresh interpreter imports fourfree.cli and builds its parser, doing no work."""
        argv = [sys.executable, "-c", "import fourfree.cli as c; c.build_parser()"]
        stderr = self.out / "stderr" / "setup.txt"
        spawn(argv, stderr, 60)  # warm-up: bytecode caches, as a returning user has them
        runs = []
        for _ in range(SETUP_REPS):
            child = spawn(argv, stderr, 60)
            if child.exit_code != 0:  # counted as one failed call
                self.attempted += 1
                self.failed += 1
                self.problems.append(f"setup import exited {child.exit_code}")
            runs.append(child)
        return runs


def untraced(run: Run, seconds: float) -> tuple:
    setup = run.setup_runs()
    its = []
    measured = 0.0
    # another iteration only if it should end within half an iteration of ``seconds``
    while not its or (measured * (1 + 0.5 / len(its)) < seconds and time.perf_counter() < run.deadline):
        its.append(run.iterate(f"it{len(its)}", cli_command))
        measured += its[-1].wall_s
    walls = [i.wall_s for i in its]
    refs = [i.ref_s for i in its]
    ref_tail = tail(refs)
    metrics = {
        "wall_ref_s": median(refs),
        "wall_ref_s.tail": ref_tail["value"],
        "peak_rss_mb": median([i.max_rss_mb for i in its]),
        "setup_s": median([c.ref_s for c in setup]),
        "wall_s": median(walls),
        "wall_s.tail": tail(walls)["value"],
        "setup_wall_s": median([c.wall_s for c in setup]),
        "failed_frac": run.failed / run.attempted,
    }
    detail = {
        "iterations": [{"wall_s": i.wall_s, "wall_ref_s": i.ref_s, "max_rss_mb": i.max_rss_mb, "calls": i.calls}
                       for i in its],
        "wall_ref_s.tail": ref_tail,
        "setup": [{"wall_s": c.wall_s, "ref_s": c.ref_s, "probe_chunks": c.probe_chunks,
                   "probe_cpu_s": c.probe_cpu_s} for c in setup],
    }
    return metrics, detail


def traced(run: Run, seconds: float) -> tuple:
    (run.out / "spans").mkdir()
    plain, traced_its = [], []
    measured = 0.0
    # another pair only if it should end within half a pair of ``seconds``
    while not plain or (measured * (1 + 0.5 / len(plain)) < seconds and time.perf_counter() < run.deadline):
        plain.append(run.iterate(f"plain{len(plain)}", cli_command))
        traced_its.append(run.iterate(f"traced{len(traced_its)}", traced_command))
        measured += plain[-1].wall_s + traced_its[-1].wall_s
    window = run.workload.window
    if window is not None:
        args = window.args() + (["--drop-layer", run.workload.drop_layer] if run.workload.drop_layer else [])
        argv = [sys.executable, str(BENCH / "traced.py"), "--replay", "--iteration", "replay",
                "--spans", str(run.out / "spans" / "replay.json"), "--", *args]
        child = spawn(argv, run.out / "stderr" / "replay.txt", max(1, run.deadline - time.perf_counter()))
        run.attempted += 1
        if child.exit_code != 0:
            run.failed += 1
            run.problems.append(f"replay exited {child.exit_code}")
    spans = []
    for path in sorted((run.out / "spans").glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.load(fh))
    with open(run.out / "spans.json", "w", encoding="utf-8") as fh:
        json.dump(spans, fh)
    metrics, self_table = layer_metrics(spans, traced_its)
    metrics["trace.wall_s"] = median([i.wall_s for i in traced_its])
    metrics["trace.untraced_wall_s"] = median([i.wall_s for i in plain])
    # at the reference CPU speed, so that host speed swings between the two cancel
    metrics["trace.overhead_s"] = median([i.ref_s for i in traced_its]) - median([i.ref_s for i in plain])
    metrics["failed_frac"] = run.failed / run.attempted
    detail = {
        "untraced_iterations": [i.wall_s for i in plain],
        "traced_iterations": [i.wall_s for i in traced_its],
        "untraced_iterations_ref_s": [i.ref_s for i in plain],
        "traced_iterations_ref_s": [i.ref_s for i in traced_its],
        "self_time_s": self_table,
    }
    return metrics, detail


# -- per-layer metrics from spans -------------------------------------------------

LAYERS = ("cli", "verifier", "ambient", "colouring", "presentation", "arith", "embedding", "sumset")


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list, traced_its: list) -> tuple:
    """Per-layer metrics: medians over traced iterations of per-iteration sums."""
    by_iter: dict = {}
    for s in spans:
        by_iter.setdefault(s["iteration"], []).append(s)
    iters = [by_iter.get(it.label, []) for it in traced_its]

    def per_iter(fn):
        return median([fn(ss) for ss in iters])

    def total(ss, *names):
        return sum(_dur(s) for s in ss if s["name"] in names)

    def count(ss, name, key):
        return sum(s["counts"][key] for s in ss if s["name"] == name)

    sweeps = [s for ss in iters for s in ss if s["name"] == "verifier.sweep"]
    snf = [s for ss in iters for s in ss if s["name"] == "presentation.snf"]
    m = {
        "verifier.enumerate_s": per_iter(lambda ss: total(ss, "verifier.enumerate")),
        "verifier.sweep_s": per_iter(lambda ss: total(ss, "verifier.sweep")),
        "verifier.pairs_per_s": median([s["counts"]["candidate_pairs"] / _dur(s) for s in sweeps]),
        "verifier.coset_s": per_iter(lambda ss: total(ss, "verifier.coset")),
        "verifier.buckets": sweeps[0]["counts"]["buckets"] if sweeps else 0,
        "verifier.candidate_pairs": sweeps[0]["counts"]["candidate_pairs"] if sweeps else 0,
        "verifier.violations": sweeps[0]["counts"]["violations"] if sweeps else 0,
        "verifier.candidate_ratio": (sweeps[0]["counts"]["candidate_pairs"] / sweeps[0]["counts"]["pairs"]
                                     if sweeps else 0),
        "cli.report_bytes": per_iter(lambda ss: count(ss, "cli.emit", "bytes")),
        "cli.emit_s": per_iter(lambda ss: total(ss, "cli.emit", "verifier.describe")),
        "presentation.snf_s": per_iter(lambda ss: total(ss, "presentation.snf")),
        "presentation.snf_calls": per_iter(lambda ss: sum(1 for s in ss if s["name"] == "presentation.snf")),
        "presentation.snf_call_s.tail": tail([_dur(s) for s in snf])["value"] if snf else 0,
        "presentation.snf_entry_bits": max((s["counts"]["entry_bits"] for s in snf), default=0),
        "presentation.decompose_s": per_iter(lambda ss: total(ss, "presentation.decompose")),
        "arith.factorize_s": per_iter(lambda ss: total(ss, "arith.factorize")),
        "embedding.build_s": per_iter(lambda ss: total(ss, "embedding.build")),
        "sumset.search_s": per_iter(lambda ss: total(ss, "sumset.search")),
        "sumset.nodes": per_iter(lambda ss: count(ss, "sumset.search", "nodes")),
        "sumset.unknown": per_iter(lambda ss: count(ss, "sumset.search", "unknown")),
    }
    m["sumset.nodes_per_s"] = m["sumset.nodes"] / m["sumset.search_s"] if m["sumset.search_s"] else 0
    for name, metric in (("ambient.element", "ambient.element_ns"), ("ambient.double", "ambient.double_ns"),
                         ("ambient.add", "ambient.add_ns"),
                         ("ambient.canonical_text", "ambient.canonical_text_ns"),
                         ("colouring.colour", "colouring.colour_ns"),
                         ("colouring.drop_halvable", "colouring.drop_halvable_ns")):
        m[metric] = next((s["counts"]["ns_per_call"] for s in spans if s["name"] == name), 0)

    table = {layer: median([self_times(ss).get(layer, 0) for ss in iters]) for layer in LAYERS}
    table["(outside spans)"] = median([
        it.wall_s - sum(_dur(s) for s in ss if s["parent"] is None) for it, ss in zip(traced_its, iters)
    ])
    m["cli.self_s"] = table["cli"]
    m["trace.spans"] = per_iter(len)
    return m, table


def self_times(ss: list) -> dict:
    """Per layer: span durations minus the durations of their child spans."""
    child_time: dict = {}
    for s in ss:
        if s["parent"] is not None:
            key = (s["call"], s["parent"])
            child_time[key] = child_time.get(key, 0) + _dur(s)
    out: dict = {}
    for s in ss:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0) + _dur(s) - child_time.get((s["call"], s["id"]), 0)
    return out


# -- entry point -------------------------------------------------------------------


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: wl.Workload, seconds: float, trace: bool, out: Path) -> dict:
    """One run of one workload; returns the full result record."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    host = host_record()
    before = [calibration_loop() for _ in range(CALIBRATION_REPS)]
    run = Run(workload, out, deadline)
    (out / "stderr").mkdir(parents=True, exist_ok=True)
    metrics, detail = (traced if trace else untraced)(run, seconds)
    after = [calibration_loop() for _ in range(CALIBRATION_REPS)]
    host["loadavg_after"] = list(os.getloadavg())
    return {
        "workload": workload.name,
        "trace": int(trace),
        "seconds": seconds,
        "host": host,
        "calibration": calibration_summary(before, after),
        "metrics": metrics,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "detail": detail,
    }


def print_result(result: dict, spec: dict) -> dict:
    """Human-readable table; returns the BENCHMARK.json metrics with units."""
    names = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    shown = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in names}
    print(f"== {result['workload']} (trace {result['trace']}): "
          f"{result['attempted']} calls, {result['failed']} failed")
    for name, v in shown.items():
        print(f"  {name:32s} {v['value']:>16.6g} {v['unit']}")
    print(f"  {'failed_frac':32s} {result['metrics']['failed_frac']:>16.6g} ratio")
    if result["trace"]:
        print("  self time per layer (s, median per iteration):")
        for layer, value in result["detail"]["self_time_s"].items():
            print(f"    {layer:30s} {value:>16.6g}")
        print(f"  tracing overhead: {result['metrics']['trace.overhead_s']:.6g} s per iteration "
              "(traced minus untraced iteration time, at the reference CPU speed)")
    else:
        m = result["metrics"]
        print(f"  {'wall_s':32s} {m['wall_s']:>16.6g} s (measured; wall_ref_s scales it to the reference CPU)")
        print(f"  {'setup_wall_s':32s} {m['setup_wall_s']:>16.6g} s (measured; setup_s scales it likewise)")
        t = result["detail"]["wall_ref_s.tail"]
        print(f"  wall_ref_s.tail is p{t['percentile']} of {t['samples']} iterations, {t['beyond']} beyond")
    cal = result["calibration"]
    print(f"  host: {result['host']['cpu_model']}, {result['host']['nproc']} cpus, "
          f"python {result['host']['python']}, load {result['host']['loadavg_before'][0]:.2f}"
          f"->{result['host']['loadavg_after'][0]:.2f}, calibration spread {cal['spread']:.3f} "
          f"drift {cal['drift']:+.3f}")
    for problem in result["problems"][:10]:
        print(f"  FAILED {problem}")
    return shown


def main() -> int:
    parser = argparse.ArgumentParser(description="fourfree benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fourfree" / "cli.py").is_file():
        print(f"error: no fourfree sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    runs = [(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all" else [
        (args.workload, args.trace)]
    results, shown = [], {}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    for name, trace in runs:
        out = OUT / f"{name}-trace{trace}"  # reports and spans of the latest run only
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        workload = wl.build(name, out, args.seed, SRC)
        result = run_workload(workload, args.seconds, bool(trace), out)
        result["seed"] = args.seed
        with open(OUT / "results" / f"{name}-seed{args.seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=2)
        results.append(result)
        for metric, value in print_result(result, spec).items():
            shown[metric if len(runs) == 1 else f"{name}/trace{trace}/{metric}"] = value
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": shown}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
