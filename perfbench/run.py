"""Benchmark of the decayalg command line, end to end and layer by layer.

One client runs `decayalg.cli.main` in-process in a closed loop: the
next command starts only when the previous one has finished, like a
researcher's batch script.  Command i gets a seed derived from --seed
and i, and every output is checked (see checks.py).

    python3 perfbench/run.py --workload invert-1d --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py            # the benchmarked workloads, untraced and traced

--trace 0 times commands for --seconds seconds with tracing off and
reports the end-to-end metrics: trials_per_s, cmd_s_p50, cmd_s_tail
(the 85th percentile of command wall), setup_s and peak_rss_mb.  It also runs an untimed warm-up command,
reruns command 0 into a fresh directory to require byte-identical
files, and times a machine-speed probe before and after.

--trace 1 runs the workload's fixed list of commands (its length is set
per workload, so counts repeat exactly at one seed; --seconds does not
change it) once untraced and once under layers.Tracer, and reports
per-command layer metrics plus the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed (trials) and metrics.  Details (machine facts, probe,
warm-up, failures) go to the lines before it and to
.perfbench_out/result-<workload>-seed<seed>-trace<t>.json; the traced
run's spans go to .perfbench_out/spans-<workload>-seed<seed>.json.
The benchmark reads and writes only inside the checkout it lives in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 7      # fresh interpreters timed per run for setup_s
# cmd_s_tail is a fixed percentile, so a faster program that fits more
# commands into a run is read at the same percentile as a slower one.
# A run holds at least MIN_COMMANDS commands, which leaves TAIL_BEYOND
# samples above the tail percentile.
TAIL_PERCENTILE = 85
TAIL_BEYOND = 10
MIN_COMMANDS = -(-TAIL_BEYOND * 100 // (100 - TAIL_PERCENTILE))

END_TO_END_UNITS = {
    "trials_per_s": "trials/s",
    "cmd_s_p50": "s",
    "cmd_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# A fresh interpreter pays this before its first command: import the CLI,
# then load and validate the workload config.
_SETUP_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import decayalg.cli
from decayalg.harness import ExperimentConfig
with open(sys.argv[2]) as fh:
    ExperimentConfig.from_json(json.load(fh))
"""


def command_seed(seed: int, index: int) -> int:
    digest = hashlib.blake2b(f"{seed}/{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


@dataclass
class CommandResult:
    index: int
    seed: int
    wall_s: float
    exit_code: int
    trials: int
    failures: dict = field(default_factory=dict)  # trial -> reasons
    out_bytes: int = 0


class Bench:
    """One workload's commands, run in-process in a scratch directory."""

    def __init__(self, workload, seed: int, work: Path):
        from decayalg import cli

        self.workload = workload
        self.seed = seed
        self.work = work
        self.cli_main = cli.main
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(workload.config, sort_keys=True))

    def run(self, index: int, out_dir: Path, main=None) -> CommandResult:
        """Run command `index` into out_dir and check what it wrote."""
        from checks import check_output, tree_bytes

        seed = command_seed(self.seed, index)
        argv = [self.workload.command, "--config", str(self.config_path),
                "--seed", str(seed), "--out", str(out_dir)]
        main = main or self.cli_main
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - t0
        result = CommandResult(index, seed, wall, code, self.workload.trials)
        try:
            result.failures = check_output(
                self.workload.command, out_dir, self.workload.trials, code)
        except Exception as exc:  # a malformed output must count, not stop the run
            traceback.print_exc()
            result.failures = {t: [f"check raised {exc!r}"]
                               for t in range(self.workload.trials)}
        if out_dir.exists():
            result.out_bytes = tree_bytes(out_dir)
        return result

    def run_and_discard(self, index: int, main=None) -> CommandResult:
        out_dir = self.work / f"cmd{index:05d}"
        try:
            return self.run(index, out_dir, main)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


def measure_setup(config_path: Path) -> list[float]:
    """Wall times of fresh interpreters importing the CLI and loading the config."""
    argv = [sys.executable, "-c", _SETUP_CHILD, str(SRC), str(config_path)]
    subprocess.run(argv, check=True, cwd=ROOT)  # untimed: fills .pyc and page caches
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def tail(walls: list[float]) -> tuple[float, int]:
    """The TAIL_PERCENTILE of walls, and how many walls lie above it."""
    value = statistics.quantiles(walls, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(w > value for w in walls)


def failed_trials(results: list[CommandResult]) -> int:
    return sum(len(r.failures) for r in results)


def timed_run(bench: Bench, seconds: float) -> tuple[dict, dict, list]:
    """Closed loop for `seconds`; end-to-end metrics, details and command results."""
    warm = bench.run_and_discard(-1)
    results: list[CommandResult] = []
    first_dir = bench.work / "first"
    t0 = time.perf_counter()
    while len(results) < MIN_COMMANDS or time.perf_counter() - t0 < seconds:
        index = len(results)
        if index == 0:
            results.append(bench.run(0, first_dir))
        else:
            results.append(bench.run_and_discard(index))
    loop_s = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from checks import differing_files

    rerun_dir = bench.work / "rerun"
    rerun = bench.run(0, rerun_dir)
    differing = differing_files(first_dir, rerun_dir)
    if differing or rerun.failures:
        reason = (f"rerun of command 0: differing files {differing[:5]}, "
                  f"rerun failures {rerun.failures}")
        for t in range(bench.workload.trials):
            results[0].failures.setdefault(t, []).append(reason)

    walls = [r.wall_s for r in results]
    attempted = sum(r.trials for r in results)
    passed = attempted - failed_trials(results)
    tail_s, beyond = tail(walls)
    setup = measure_setup(bench.config_path)
    metrics = {
        "trials_per_s": passed / sum(walls),
        "cmd_s_p50": statistics.median(walls),
        "cmd_s_tail": tail_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    details = {
        "commands": len(results),
        "loop_s": loop_s,
        "cmd_s_tail_beyond": beyond,
        "failed_frac": (attempted - passed) / attempted,
        "warmup_s": warm.wall_s,
        "warmup_failures": warm.failures,
        "setup_samples_s": setup,
        "rerun_identical": not differing,
        "command_walls_s": walls,
    }
    return metrics, details, results


def traced_run(bench: Bench, n: int) -> tuple[dict, dict, list]:
    """Commands 0..n-1, untraced then traced; per-layer metrics and details."""
    from layers import Tracer, per_layer_metrics

    warm = bench.run_and_discard(-1)
    untraced = [bench.run_and_discard(i) for i in range(n)]
    tracer = Tracer()
    traced_main = tracer.timed("cli.main", bench.cli_main, record=True)
    with tracer:
        traced = [bench.run_and_discard(i, traced_main) for i in range(n)]
    untraced_wall = sum(r.wall_s for r in untraced)
    traced_wall = sum(r.wall_s for r in traced)
    metrics = per_layer_metrics(
        tracer, n,
        emit_bytes=sum(r.out_bytes for r in traced),
        traced_wall=traced_wall, untraced_wall=untraced_wall)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{bench.workload.name}-seed{bench.seed}.json"
    spans_path.write_text(json.dumps({
        "spans": [asdict(s) for s in tracer.spans],
        "sums": {k: list(v) for k, v in sorted(tracer.stats().items())},
        "counts": tracer.counts(),
    }))
    details = {
        "commands": n,
        "warmup_s": warm.wall_s,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "unpatched": tracer.missing,
    }
    return metrics, details, untraced + traced


def prepare_environment() -> None:
    """Pin BLAS threads (unless set), then import decayalg from this checkout's src/."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if not (SRC / "decayalg" / "cli.py").is_file():
        raise FileNotFoundError(f"no decayalg sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import decayalg

    if SRC.resolve() not in Path(decayalg.__file__).resolve().parents:
        raise ImportError(f"decayalg imported from {decayalg.__file__}, not {SRC}")


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    from layers import PER_LAYER_UNITS
    from machine import facts, probe
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    os.environ["DECAYALG_THREADS"] = str(workload.threads)
    work = WORK / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        probe_before = probe()
        bench = Bench(workload, seed, work)
        if trace:
            metrics, details, results = traced_run(bench, workload.traced_commands)
        else:
            metrics, details, results = timed_run(bench, seconds)
        probe_after = probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    attempted = sum(r.trials for r in results)
    failed = failed_trials(results)
    failures = [f"command {r.index} trial {t}: {'; '.join(reasons)}"
                for r in results for t, reasons in sorted(r.failures.items())]
    details.update({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": facts(SRC, workload.threads),
        "probe_before": probe_before, "probe_after": probe_after,
        "failures": failures,
    })
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({**summary, "details": details}, indent=1, sort_keys=True))
    print_human(summary, details)
    return summary


def print_human(summary: dict, details: dict) -> None:
    d = details
    print(f"workload {d['workload']}  seed {d['seed']}  trace {d['trace']}  "
          f"commands {d['commands']}  trials {summary['attempted']}  "
          f"failed {summary['failed']}")
    for name, m in summary["metrics"].items():
        line = f"  {name:36s} {m['value']:.6g} {m['unit']}"
        if name == "cmd_s_tail":
            line += (f"  (p{TAIL_PERCENTILE} of {d['commands']} "
                     f"commands, {d['cmd_s_tail_beyond']} beyond)")
        elif name == "setup_s":
            line += f"  (median of {SETUP_REPEATS} fresh interpreters)"
        print(line)
    if "failed_frac" in d:
        print(f"  {'failed_frac':36s} {d['failed_frac']:.6g} ratio")
    print(f"  warm-up command {d['warmup_s']:.4f} s (untimed)")
    pb, pa = d["probe_before"], d["probe_after"]
    print(f"  probe before: loop {pb['python_loop_s']:.4f} s, svd {pb['complex_svd_s']:.4f} s;"
          f" after: loop {pa['python_loop_s']:.4f} s, svd {pa['complex_svd_s']:.4f} s")
    print("  machine " + ", ".join(f"{k} {v}" for k, v in d["machine"].items()))
    for line in d["failures"][:10]:
        print(f"  FAILED {line}")
    if d.get("unpatched"):
        print(f"  not traced (missing): {', '.join(d['unpatched'])}")


def run_all(seed: int, seconds: float, traces: list[int]) -> int:
    """Every workload in its own child process, so peak RSS is per workload."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in traces:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"workload {name} trace {trace} exited {proc.returncode}",
                      file=sys.stderr)
                return proc.returncode or 1
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for k, v in result["metrics"].items():
                combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default 0 for one workload, both for 'all')")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        prepare_environment()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds,
                       [0, 1] if args.trace is None else [args.trace])
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    summary = run_workload(args.workload, args.seed, args.seconds, args.trace or 0)
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
