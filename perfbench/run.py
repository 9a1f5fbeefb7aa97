"""hspsim benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload large_groups --seed 0 --seconds 50 --trace 0

Run from any directory of a checkout; the package is imported from the
checkout's src/, never from an installed copy.  With --trace 0 the run
reports the end-to-end metrics of BENCHMARK.json:

  setup_s      median wall time of fresh processes that import hspsim and
               run config_from_dict on the workload's configs
  run_s        median in-process time of one pass of run_experiment over
               the workload's configs, after one warm-up pass
  cli_s        median wall time of one pass of `hspsim ...` subcommands,
               each in a fresh process, artifacts written
  peak_rss_mb  largest resident set of those CLI processes (wait4)

With --trace 1 it alternates traced and untraced in-process passes and
reports the per-layer metrics: self time per span and per layer, counts,
computed byte sizes and the tracing overhead.  Every output is checked
(see checks.py); failures are counted in `failed` and make `correct`
false.  The last line of stdout is the result JSON; the lines before it
give sample counts, tail percentiles, the failed share and provenance.
Artifacts and the span file go to .perfbench_out/ at the checkout root.
"""

from __future__ import annotations

import os

NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = str(NPROC)
# Pin BLAS threads before numpy loads, here and in every child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# A run repeats rounds of (setup process, in-process pass, CLI pass) at
# least MIN_ROUNDS times and stops at the round boundary nearest to
# --seconds, so a 25 s large_groups round does not stretch the run by a
# whole round past it.  Interleaving spreads each metric's samples over
# the whole run, so the speed swings of a shared VM (up to 1.8x over
# 5-15 s on 2 vCPUs) reach every metric alike.
MIN_ROUNDS = 2
# Within a round, cheap setups and passes repeat until they fill these times.
# A sweep_and_rank pass takes about 2.7 s, so it gets two passes a round
# and 8-12 run_s samples a run; its pure-Python loops slow down most when
# the host is loaded, and the median of more samples damps that.
ROUND_SETUP_S = 1.0
ROUND_RUN_S = 5.0
CHILD_TIMEOUT_S = 60
# Time of a traced pass that may fall outside its root span: the clock pair
# around the span brackets only the span's own open and close.
ACCOUNTING_TOLERANCE_S = 0.01
SETUP_CODE = (
    "import json, sys\n"
    "import hspsim\n"
    "from hspsim.config import config_from_dict\n"
    "for raw in json.load(open(sys.argv[1])):\n"
    "    config_from_dict(raw)\n"
)
KNOWN_DEFECTS = {
    "simon_z2n": "peak_rss_mb near 3.6 GB: the Z2^12 op-table broadcast (ROADMAP aim 3); "
                 "observed, not asserted; as the largest family peak it sets the "
                 "workload's peak_rss_mb",
    "dihedral_simulate": "setup and run each build the D2048 op table: validation and "
                         "run resolve K separately (groups.op_tables = 2 per config); "
                         "observed, not asserted",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


# Reads [argv, cwd, log, timeout] lines; runs each process to completion and
# answers [wall seconds, exit code, peak RSS in MB].
LAUNCHER_CODE = r"""
import json, os, subprocess, sys, threading, time
for line in sys.stdin:
    argv, cwd, log, timeout = json.loads(line)
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=out)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    print(json.dumps([wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0]),
          flush=True)
"""


class Launcher:
    """A small process that starts the measured child processes.

    On Linux a child's ru_maxrss includes the memory high-water mark of the
    process that spawned it, so a CLI process spawned by the benchmark
    process would report the benchmark's own in-process peak.  The launcher
    is started before any in-process pass and stays small.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-c", LAUNCHER_CODE], env=child_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, cwd: Path, log: Path) -> tuple[float, int, float]:
        """Run one process to completion: (wall seconds, exit code, peak RSS in MB)."""
        self.proc.stdin.write(json.dumps([argv, str(cwd), str(log), CHILD_TIMEOUT_S]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        wall, code, peak = json.loads(reply)
        return wall, code, peak

    def close(self) -> None:
        """End the launcher; a child still running ends within CHILD_TIMEOUT_S."""
        self.proc.stdin.close()
        self.proc.wait()


def finished(rounds: int, elapsed: float, seconds: float) -> bool:
    """True at the round boundary nearest to the run length, after MIN_ROUNDS."""
    return rounds >= MIN_ROUNDS and elapsed + elapsed / rounds / 2 >= seconds


def fill(measure, seconds: float) -> list[float]:
    """Samples of measure(), repeated until they add up to the given time."""
    samples = [measure()]
    while sum(samples) < seconds:
        samples.append(measure())
    return samples


def tail(samples) -> str:
    """Highest percentile with at least ten samples beyond it, as text."""
    n = len(samples)
    if n < 20:
        return f"none (n={n} < 20)"
    p = math.floor(100 * (1 - 10 / n))
    return f"p{p}={statistics.quantiles(samples, n=100, method='inclusive')[p - 1]:.6g}"


class Bench:
    def __init__(self, workload: str, seed: int, work: Path, launcher: Launcher):
        self.workload = workload
        self.launcher = launcher
        self.seed = seed
        self.work = work
        self.inproc_root = work / "inproc"
        self.steps = workloads.steps(workload, seed, self.inproc_root)
        # per family: metric -> samples, for the lines printed before the result
        self.by_family = {f: {"run_s": [], "cli_s": [], "peak_rss_mb": []}
                          for f in workloads.WORKLOADS[workload]}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.errors: list[str] = []  # failed checks of the benchmark itself

    # ------------------------------------------------------------ checks

    def record(self, step, report, out_dir, error=None) -> None:
        self.attempted += 1
        try:
            problems = [error] if error else step.check(report, out_dir)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            problems = [f"output unreadable: {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.append(f"{step.name}: {'; '.join(problems)}")

    # ------------------------------------------------------------ in process

    def parse(self):
        from hspsim import config
        return [config.config_from_dict(step.config) for step in self.steps]

    def run_pass(self, configs) -> tuple[dict, list]:
        """run_experiment over every config; only those calls are timed, per family."""
        from hspsim import experiments
        elapsed, results = dict.fromkeys(self.by_family, 0.0), []
        for step, cfg in zip(self.steps, configs):
            out = self.inproc_root / step.name
            start = time.perf_counter()
            try:
                report, error = experiments.run_experiment(cfg, out), None
            except Exception as exc:  # counted as a failed experiment
                report, error = None, f"raised {type(exc).__name__}: {exc}"
            elapsed[step.family] += time.perf_counter() - start
            results.append((step, report, out, error))
        return elapsed, results

    def inproc_pass(self, configs) -> float:
        shutil.rmtree(self.inproc_root, ignore_errors=True)
        elapsed, results = self.run_pass(configs)
        for result in results:
            self.record(*result)
        for family, seconds in elapsed.items():
            self.by_family[family]["run_s"].append(seconds)
        return sum(elapsed.values())

    def traced_pass(self) -> tuple[float, float, tracing.Tracer]:
        """A pass that also parses the configs, under one root span.

        Returns the run_experiment time, the pass wall time taken by a clock
        pair outside the tracer, and the tracer.
        """
        shutil.rmtree(self.inproc_root, ignore_errors=True)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            outer_start = time.perf_counter()
            root = tracer.open("bench.pass", "bench")
            try:
                elapsed, results = self.run_pass(self.parse())
            finally:
                tracer.close(root)
            outer_wall = time.perf_counter() - outer_start
        finally:
            tracer.uninstall()
        for result in results:
            self.record(*result)
        return sum(elapsed.values()), outer_wall, tracer

    # ------------------------------------------------------------ fresh processes

    def setup_time(self) -> float:
        configs = self.work / "configs.json"
        if not configs.exists():
            configs.write_text(json.dumps([step.config for step in self.steps]))
        wall, code, _ = self.launcher.run([sys.executable, "-c", SETUP_CODE, str(configs)],
                                          self.work, self.work / "setup.log")
        if code != 0:
            self.errors.append(f"setup process exited {code}")
        return wall

    def cli_pass(self) -> tuple[float, float]:
        root = self.work / "cli"
        shutil.rmtree(root, ignore_errors=True)
        root.mkdir()
        walls, peaks = dict.fromkeys(self.by_family, 0.0), dict.fromkeys(self.by_family, 0.0)
        for step in workloads.steps(self.workload, self.seed, root):
            for name, payload in step.files.items():
                (root / name).write_text(json.dumps(payload))
            out = root / step.name
            argv = [sys.executable, "-m", "hspsim.cli", *step.argv, "--out-dir", str(out)]
            wall, code, peak = self.launcher.run(argv, root, root / f"{step.name}.log")
            walls[step.family] += wall
            peaks[step.family] = max(peaks[step.family], peak)
            if code != 0:
                log = (root / f"{step.name}.log").read_text(errors="replace")[-300:]
                self.record(step, None, out, f"CLI exited {code}: {log}")
                continue
            try:
                report = json.loads((out / "report.json").read_text())
            except (OSError, ValueError) as exc:
                self.record(step, None, out, f"report.json unreadable: {exc}")
                continue
            self.record(step, report, out)
        for family in self.by_family:
            self.by_family[family]["cli_s"].append(walls[family])
            self.by_family[family]["peak_rss_mb"].append(peaks[family])
        return sum(walls.values()), max(peaks.values())

    # ------------------------------------------------------------ runs

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        configs = self.parse()
        self.inproc_pass(configs)  # warm-up
        setup, runs, clis, rss = [], [], [], []
        start, rounds = time.perf_counter(), 0
        while True:
            setup += fill(self.setup_time, ROUND_SETUP_S)
            runs += fill(lambda: self.inproc_pass(configs), ROUND_RUN_S)
            wall, peak = self.cli_pass()
            clis.append(wall)
            rss.append(peak)
            rounds += 1
            if finished(rounds, time.perf_counter() - start, seconds):
                break
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(runs),
            "cli_s": statistics.median(clis),
            "peak_rss_mb": max(rss),
        }
        samples = {"setup_s": setup, "run_s": runs, "cli_s": clis, "peak_rss_mb": rss}
        return metrics, samples

    def per_layer(self, seconds: float) -> tuple[dict, dict]:
        self.inproc_pass(self.parse())  # warm-up, untraced
        traced, plain, tracers, per_pass = [], [], [], []
        start = time.perf_counter()
        while not finished(len(traced), time.perf_counter() - start, seconds):
            elapsed, outer_wall, tracer = self.traced_pass()
            traced.append(elapsed)
            tracers.append(tracer)
            per_pass.append({**layer_metrics(tracer), "trace.outer_wall_s": outer_wall})
            plain.append(self.inproc_pass(self.parse()))
        keys = set().union(*per_pass)
        metrics = {key: statistics.median(m.get(key, 0.0) for m in per_pass) for key in keys}
        metrics["trace.run_s"] = statistics.median(traced)
        metrics["trace.untraced_run_s"] = statistics.median(plain)
        metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
        # The self times telescope to the root span's duration by construction,
        # so they are checked against the clock pair taken outside the tracer.
        for m in per_pass:
            residual = m["trace.outer_wall_s"] - m["trace.self_sum_s"]
            if not 0.0 <= residual <= ACCOUNTING_TOLERANCE_S:
                self.errors.append(
                    f"layer self times ({m['trace.self_sum_s']:.6f} s) do not account for "
                    f"the pass wall time ({m['trace.outer_wall_s']:.6f} s)")
        self.write_spans(tracers)
        return metrics, {"trace.run_s": traced, "trace.untraced_run_s": plain}

    def write_spans(self, tracers) -> None:
        path = OUT / f"spans-{self.workload}-seed{self.seed}.json"
        payload = [
            {"pass": i, "spans": [dict(zip(("name", "layer", "start", "end", "parent"), s))
                                  for s in t.spans]}
            for i, t in enumerate(tracers)
        ]
        path.write_text(json.dumps(payload))


def layer_metrics(tracer: tracing.Tracer) -> dict:
    """Self times per span name and per layer for one traced pass, plus its counts."""
    own = tracing.self_times(tracer.spans, 0)
    _, _, start, end, _ = tracer.spans[0]
    metrics = {f"{span}_s": t for span, t in own["names"].items()}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = own["layers"].get(layer, 0.0)
    for span in {name for _, name, *_ in tracing.TARGETS}:
        metrics.setdefault(f"{span}_s", 0.0)
    for key in tracing.COUNT_METRICS + tuple(f"{layer}.calls" for layer in tracing.LAYERS):
        metrics[key] = float(tracer.counts[key])
    metrics["trace.wall_s"] = end - start
    metrics["trace.self_sum_s"] = math.fsum(own["layers"].values())
    metrics["trace.spans"] = float(len(tracer.spans))
    return metrics


def provenance(workload: str, seed: int) -> dict:
    import hspsim
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "hspsim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "why": {family: workloads.WHY[family] for family in workloads.WORKLOADS[workload]},
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "hspsim": hspsim.__version__,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str:
    """HEAD of the checkout; only asked when the checkout itself is a git tree."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=CHILD_TIMEOUT_S)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "unknown (not a git checkout)"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hspsim" / "__init__.py").is_file():
        print(f"perfbench: no hspsim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hspsim
    if Path(hspsim.__file__).resolve().parent != SRC / "hspsim":
        print(f"perfbench: imported hspsim from {hspsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    launcher = Launcher()
    bench = Bench(args.workload, args.seed, work, launcher)
    try:
        if args.trace:
            measured, samples = bench.per_layer(args.seconds)
        else:
            measured, samples = bench.end_to_end(args.seconds)
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    details = {
        "provenance": provenance(args.workload, args.seed),
        "samples": samples,
        "tails": {key: tail(values) for key, values in samples.items()},
        "failed_share": f"{bench.failed}/{bench.attempted} = {bench.failed / bench.attempted:.4g}",
        "problems": bench.problems + bench.errors,
        "known_defects": {f: KNOWN_DEFECTS[f] for f in bench.by_family if f in KNOWN_DEFECTS},
        "families": {f: {key: (max if key == "peak_rss_mb" else statistics.median)(v)
                         for key, v in m.items() if v}
                     for f, m in bench.by_family.items()},
    }
    if args.trace:
        outer = measured["trace.outer_wall_s"]
        details["accounting"] = (
            f"layer self times sum to {measured['trace.self_sum_s']:.6f} s of a "
            f"{outer:.6f} s traced pass (separate clock); time in no layer span "
            f"(bench.self_s) is {measured['bench.self_s'] / outer:.2%} of it")
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"metrics": measured, "details": details}, indent=1))
    for m in wanted:
        n = len(samples.get(m["name"], ()))
        extra = f"  n={n}  tail {details['tails'][m['name']]}" if n else ""
        print(f"{m['name']:32s} {measured[m['name']]:>14.6g} {m['unit']}{extra}")
    for family, values in details["families"].items():
        for key, value in values.items():
            unit, stat = ("MB", "max") if key == "peak_rss_mb" else ("s", "median")
            print(f"  {key}[{family}]".ljust(33) + f"{value:>14.6g} {unit}  ({stat}, not gated)")
    print(f"failed_share {details['failed_share']}")
    if args.trace:
        print(f"accounting: {details['accounting']}")
    for problem in bench.problems + bench.errors:
        print(f"problem: {problem}")
    print("details " + json.dumps({k: details[k] for k in ("provenance", "known_defects")}))
    result = {
        "correct": bench.failed == 0 and not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
