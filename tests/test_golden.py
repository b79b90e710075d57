"""Outputs pinned across code versions: the sha256 of every emitted file.

`tests/golden/sha256.json` maps each case below to {file name: sha256}
of everything its CLI command writes, and records under "format_version"
the version they were pinned at.  They were re-pinned once per format
version: for version 2 (closed-form trace norms of rank <= 2 generated
blocks, different in the last bits), for version 3 (every operator
block and grid cell drawn from its own keyed lane; wiener's `margin`
gone, its values unchanged) and for version 4 (invert's `residual` and
`condition` read off norm bounds, `sigma_min_lower` added; generated
blocks summed from outer products, different in the last bits).  A change that alters any byte must bump
harness.FORMAT_VERSION, explain why in CHANGES.md and show value-level
agreement; the digests and the version travel together.
Never regenerate the digests just to make this test pass.

The digests hold for one numpy/BLAS build at one BLAS thread count: the
dense `inv` of an `invert` trial rounds differently with one OpenBLAS
thread than with two or four, which moves the criterion-7 cases' last
bits.  So each case runs in a child interpreter with
OPENBLAS_NUM_THREADS=2, whatever the thread setting of the test run.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import decayalg
from decayalg.harness import FORMAT_VERSION

GOLDEN = Path(__file__).parent / "golden" / "sha256.json"
SRC = str(Path(decayalg.__file__).resolve().parents[1])

_CRITERION_7 = {
    "seed": 7, "c": 1, "N": 16, "W": 4, "d": 4, "block_rank": 4, "trials": 10,
    "weight": {"a": 0.5, "b": 0.5},
    "envelope_profile": {"kind": "exponential", "rate": 1.0, "l1": 0.5},
    "boundary": "circulant",
}

_KERNEL_C2 = {
    "seed": 5, "c": 2, "q": 2, "N": 3, "W": 1, "d": 4, "block_rank": 2,
    "trials": 2, "weight": {"a": 0.5, "b": 0.5},
    "envelope_profile": {"kind": "exponential", "rate": 1.0, "l1": 0.5},
}

# case name -> (subcommand, config, extra CLI flags)
CASES = {
    "invert-criterion7-csv": ("invert", _CRITERION_7, ["--trials", "2"]),
    "invert-criterion7-json": ("invert", _CRITERION_7,
                               ["--trials", "2", "--format", "json"]),
    "kernel-c2-q2-d4": ("kernel", _KERNEL_C2, []),
    "kernel-c2-q2-d4-json": ("kernel", _KERNEL_C2, ["--format", "json"]),
    "gen-table-zeros": ("gen", {
        "seed": 3, "c": 1, "N": 3, "W": 1, "d": 3, "block_rank": 1, "trials": 2,
        "envelope_profile": {"kind": "table", "values": [0.25, 0.0, 0.5]},
    }, []),
    "wiener": ("wiener", {
        "symbol": "3+u+u^{-1}", "grid": 256, "out_radius": 20,
        "weight": {"s": 1.0},
    }, []),
    "wiener-geometric": ("wiener", {  # a two-term symbol: closed_form_max_err
        "symbol": "2+u", "grid": 128, "out_radius": 20, "weight": {"a": 0.5, "b": 0.5},
    }, []),
}


def emitted_digests(case: str, work: Path) -> dict:
    """Run one case into `work`, in a child at two BLAS threads, and hash every file it wrote."""
    command, config, flags = CASES[case]
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = work / "out"
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-m", "decayalg.cli", command, "--config",
                          str(cfg_path), "--out", str(out), *flags], env=env)
    assert run.returncode == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


def test_digests_were_pinned_at_this_format_version():
    golden = json.loads(GOLDEN.read_text())
    assert golden.pop("format_version") == FORMAT_VERSION
    assert set(golden) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_digests(case, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert emitted_digests(case, tmp_path) == golden[case]
