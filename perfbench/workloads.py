"""The benchmark's workloads: one decayalg CLI command each, run in a closed loop.

Every config uses the weight exp(0.5 |n|_1^0.5), an exponential envelope
(rate 1.0) rescaled to l1 mass 0.5, and the circulant boundary, so every
generated operator is certified invertible by its envelope and no trial
fails.  Sizes are chosen so one command takes well under a second on a
2-core box: a timed run then holds 70 or more commands, enough for a
steady median and a p85 tail with ten samples beyond it.

On a shared 2-core box the speed of the machine drifts by 10-20% over
minutes, and a fixed time budget covers all workloads, so the benchmark
gives two workloads long runs rather than more workloads short ones.
invert-1d and kernel-2d together reach every layer: the trial pool, the
inversion path and dense LAPACK on one, blocking_kernel and apply on
the other.

`traced_commands` is the length of the fixed command list of a traced
run: it is constant so that per-layer counts repeat exactly at one
seed, and sized so the untraced and the traced pass over it take about
50 s together on a 2-core box.
"""

from __future__ import annotations

from dataclasses import dataclass

_COMMON = {
    "seed": 0,  # replaced per command by --seed
    "weight": {"a": 0.5, "b": 0.5, "index_norm": "l1"},
    "envelope_profile": {"kind": "exponential", "rate": 1.0, "l1": 0.5},
    "boundary": "circulant",
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # decayalg subcommand
    params: dict        # config fields besides _COMMON
    threads: int        # DECAYALG_THREADS for the command
    traced_commands: int
    why: str

    @property
    def config(self) -> dict:
        return {**_COMMON, **self.params}

    @property
    def trials(self) -> int:
        return self.params["trials"]


WORKLOADS = {w.name: w for w in (
    Workload(
        "invert-1d", "invert",
        {"c": 1, "N": 16, "W": 4, "d": 4, "block_rank": 4, "trials": 4},
        threads=2, traced_commands=40,
        why="criterion-7 inversion config with a 2-thread trial pool: per-trial "
            "Python (xoshiro draws, ~3k 4x4 block SVDs); the only workload whose "
            "pool has parallel work",
    ),
    Workload(
        "kernel-2d", "kernel",
        {"c": 2, "q": 2, "N": 6, "W": 2, "d": 4, "block_rank": 2, "trials": 1},
        threads=1, traced_commands=36,
        why="2-D kernel consistency, serial: RNG and blocking_kernel via apply only; "
            "no densify, no dense LAPACK, no envelope fit",
    ),
)}
