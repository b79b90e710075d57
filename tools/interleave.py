"""Run two decayalg source trees command by command in one process.

    python3 tools/interleave.py PARENT CHANGE --workload kernel-2d --commands 200

PARENT and CHANGE are checkouts.  Each tree's src/decayalg is imported
under its own package name (the package uses only relative imports), so
both run in one interpreter, on the same machine state, a command apart.
Command i runs the perfbench workload's config at perfbench's seed for i
(perfbench/workloads.py and perfbench/run.py of this checkout are read,
never edited) in both trees; the tree that goes first alternates, and
every file the two commands write is compared byte for byte.

Prints trials/s, minor page faults per command (from
resource.getrusage of the process around each command, worker threads
included), block-SVD matrices per command (numpy.linalg.svd is wrapped
once and counts the matrices of every stack of blocks up to 16 x 16,
credited to the command that runs) and the src/ line count of each
side, the median per-command
change/parent wall ratio, the number of commands in which the change
was faster and, if some command's outputs differ, the names of the files
that differ in the first such command; the last line is the same as one
JSON object.  OPENBLAS_NUM_THREADS defaults
to 1 and DECAYALG_THREADS is the workload's, as in perfbench, unless
--threads sets it for both trees: `--threads 1` compares the serial
paths of a change to the trial pool, the workload's count its gain.

    python3 tools/interleave.py PARENT CHANGE --workload invert-1d --setup 60

measures setup_s instead: N fresh interpreters per tree, the trees
alternating and each warmed once, untimed, run perfbench/run.py's setup
child (import the CLI, load the workload's config) against the tree's
src/.  It prints each tree's median and quartiles of those wall times;
the last line is the same as one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load(name: str, path: Path, package: Path | None = None):
    """Import the file `path` as the module `name`; `package` makes it a package's __init__."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=None if package is None else [str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_cli(tree: Path, name: str):
    """The `cli` module of tree's src/decayalg, imported under the package name `name`."""
    pkg = tree / "src" / "decayalg"
    load(name, pkg / "__init__.py", pkg)
    return importlib.import_module(f"{name}.cli")


def src_lines(tree: Path) -> int:
    """Lines of tree's src/decayalg/*.py, as `wc -l` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "decayalg").glob("*.py"))


def count_block_svds() -> list:
    """Wrap numpy.linalg.svd; item 0 of the returned list counts the matrices
    of every call on blocks up to 16 x 16, from any thread."""
    import numpy as np

    svd, lock, count = np.linalg.svd, threading.Lock(), [0]

    def counting(a, *args, **kwargs):
        shape = np.shape(a)
        if len(shape) >= 2 and max(shape[-2:]) <= 16:
            with lock:
                count[0] += math.prod(shape[:-2])
        return svd(a, *args, **kwargs)

    np.linalg.svd = counting
    return count


def setup_main(args, trees: dict, child: str, config: Path) -> int:
    """Time args.setup fresh interpreters per tree, each running `child` (perfbench's
    setup child) on the tree's src/ and `config`; the tree that goes first
    alternates, and one untimed run per tree warms its caches."""
    times = {side: [] for side in SIDES}
    for i in range(-1, args.setup):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            argv = [sys.executable, "-c", child, str(trees[side] / "src"), str(config)]
            t0 = time.perf_counter()
            subprocess.run(argv, check=True, cwd=trees[side])
            if i >= 0:
                times[side].append(time.perf_counter() - t0)
    summary = {"workload": args.workload, "setup_runs": args.setup, "setup_s": {}}
    print(f"{args.workload}: setup_s over {args.setup} fresh interpreters per tree, alternating")
    for side in SIDES:
        q1, median, q3 = statistics.quantiles(times[side], n=4, method="inclusive")
        summary["setup_s"][side] = {"median": round(median, 4), "q1": round(q1, 4),
                                    "q3": round(q3, 4)}
        print(f"  {side:6s} median {median:.4f} s, quartiles {q1:.4f}-{q3:.4f} s")
    print(json.dumps(summary, sort_keys=True))
    return 0


def files(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--commands", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--threads", type=int, default=None,
                        help="DECAYALG_THREADS for both trees (default: the workload's)")
    parser.add_argument("--setup", type=int, default=0, metavar="N",
                        help="time N setup-child interpreters per tree instead of commands")
    args = parser.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    workloads = load("_perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    run = load("_perfbench_run", ROOT / "perfbench" / "run.py")
    workload = workloads.WORKLOADS[args.workload]
    trees = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    threads = workload.threads if args.threads is None else args.threads
    os.environ["DECAYALG_THREADS"] = str(threads)

    work = Path(tempfile.mkdtemp(prefix="interleave-"))
    try:
        config = work / "config.json"
        config.write_text(json.dumps(workload.config, sort_keys=True))
        if args.setup:
            return setup_main(args, trees, run._SETUP_CHILD, config)
        mains = {side: load_cli(tree, f"decayalg_{side}").main for side, tree in trees.items()}
        block_svds = count_block_svds()
        walls = {side: [] for side in SIDES}
        faults = {side: [] for side in SIDES}
        svds = {side: [] for side in SIDES}
        differing, differing_files = [], []
        for i in range(-1, args.commands):  # command -1 warms both trees up, untimed
            argv = [workload.command, "--config", str(config),
                    "--seed", str(run.command_seed(args.seed, i))]
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                f0, s0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, block_svds[0]
                t0 = time.perf_counter()
                code = mains[side](argv + ["--out", str(work / side)])
                wall = time.perf_counter() - t0
                fault = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
                svd_count = block_svds[0] - s0
                if code != 0:
                    raise SystemExit(f"command {i}: {side} exited {code}")
                if i >= 0:
                    walls[side].append(wall)
                    faults[side].append(fault)
                    svds[side].append(svd_count)
            parent, change = (files(work / side) for side in SIDES)
            if parent != change:
                if not differing:
                    differing_files = sorted(name for name in parent.keys() | change.keys()
                                             if parent.get(name) != change.get(name))
                differing.append(i)
            for side in SIDES:
                shutil.rmtree(work / side)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ratios = [c / p for p, c in zip(walls["parent"], walls["change"])]
    summary = {
        "workload": args.workload,
        "commands": args.commands,
        "seed": args.seed,
        "threads": threads,
        "trials_per_s": {side: round(workload.trials * args.commands / sum(walls[side]), 3)
                         for side in SIDES},
        "minor_faults_per_command": {side: round(statistics.mean(faults[side]), 1)
                                     for side in SIDES},
        "block_svds_per_command": {side: round(statistics.mean(svds[side]), 1)
                                   for side in SIDES},
        "median_ratio": round(statistics.median(ratios), 4),
        "change_faster": sum(r < 1.0 for r in ratios),
        "outputs_identical": args.commands + 1 - len(differing),
        "differing_commands": differing,
        "first_differing_files": differing_files,
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
    }
    print(f"{args.workload}: {args.commands} commands at {threads} thread(s), "
          "each tree first in every other one")
    for side in SIDES:
        print(f"  {side:6s} {summary['trials_per_s'][side]:.3f} trials/s, "
              f"{summary['minor_faults_per_command'][side]:.1f} minor faults and "
              f"{summary['block_svds_per_command'][side]:.1f} block-SVD matrices per command, "
              f"src/ {summary['src_lines'][side]} lines")
    print(f"  change/parent wall per command: median {summary['median_ratio']:.4f}, "
          f"change faster in {summary['change_faster']}/{args.commands}")
    print(f"  outputs identical in {summary['outputs_identical']}/{args.commands + 1} commands"
          " (the warm-up included)")
    if differing:
        print(f"  files that differ in command {differing[0]}: {', '.join(differing_files)}")
    print(json.dumps(summary, sort_keys=True))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
