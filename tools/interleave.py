"""Run two decayalg source trees command by command in one process.

    python3 tools/interleave.py PARENT CHANGE --workload kernel-2d --commands 200

PARENT and CHANGE are checkouts.  Each tree's src/decayalg is imported
under its own package name (the package uses only relative imports), so
both run in one interpreter, on the same machine state, a command apart.
Command i runs the perfbench workload's config at perfbench's seed for i
(perfbench/workloads.py and perfbench/run.py of this checkout are read,
never edited) in both trees; the tree that goes first alternates, and
every file the two commands write is compared byte for byte.

Prints trials/s of each side, the median per-command change/parent wall
ratio and the number of commands in which the change was faster; the
last line is the same as one JSON object.  OPENBLAS_NUM_THREADS defaults
to 1 and DECAYALG_THREADS is the workload's, as in perfbench.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import shutil
import statistics
import sys
import tempfile
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


def files(out_dir: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--commands", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    workloads = load("_perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    command_seed = load("_perfbench_run", ROOT / "perfbench" / "run.py").command_seed
    workload = workloads.WORKLOADS[args.workload]
    os.environ["DECAYALG_THREADS"] = str(workload.threads)
    mains = {side: load_cli(tree.resolve(), f"decayalg_{side}").main
             for side, tree in zip(SIDES, (args.parent, args.change))}

    work = Path(tempfile.mkdtemp(prefix="interleave-"))
    try:
        config = work / "config.json"
        config.write_text(json.dumps(workload.config, sort_keys=True))
        walls = {side: [] for side in SIDES}
        differing = []
        for i in range(-1, args.commands):  # command -1 warms both trees up, untimed
            argv = [workload.command, "--config", str(config),
                    "--seed", str(command_seed(args.seed, i))]
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                t0 = time.perf_counter()
                code = mains[side](argv + ["--out", str(work / side)])
                wall = time.perf_counter() - t0
                if code != 0:
                    raise SystemExit(f"command {i}: {side} exited {code}")
                if i >= 0:
                    walls[side].append(wall)
            if files(work / "parent") != files(work / "change"):
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
        "trials_per_s": {side: round(workload.trials * args.commands / sum(walls[side]), 3)
                         for side in SIDES},
        "median_ratio": round(statistics.median(ratios), 4),
        "change_faster": sum(r < 1.0 for r in ratios),
        "outputs_identical": args.commands + 1 - len(differing),
        "differing_commands": differing,
    }
    print(f"{args.workload}: {args.commands} commands, each tree first in every other one")
    for side in SIDES:
        print(f"  {side:6s} {summary['trials_per_s'][side]:.3f} trials/s")
    print(f"  change/parent wall per command: median {summary['median_ratio']:.4f}, "
          f"change faster in {summary['change_faster']}/{args.commands}")
    print(f"  outputs identical in {summary['outputs_identical']}/{args.commands + 1} commands"
          " (the warm-up included)")
    print(json.dumps(summary, sort_keys=True))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
