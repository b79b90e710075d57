"""Correctness checks on the files one decayalg command wrote.

`check_output` maps every failed trial of a command to the reasons it
failed.  A trial fails on an error record, a non-zero exit, a report
that `verify_report` rejects, or a failed check below:

- invert: residual <= 1e-12, the envelope dominates, and the record's
  `weighted_total` / `final_increment` equal the last row of its
  envelope CSV (verify-report does not compare these);
- kernel: kernel_rel_err <= 1e-12, isometries and round trips exact.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from decayalg.harness import verify_report

RESIDUAL_MAX = 1e-12
KERNEL_REL_ERR_MAX = 1e-12


def _check_invert(rec: dict, out_dir: Path) -> list[str]:
    reasons = []
    residual = rec.get("residual")
    if residual is None or not residual <= RESIDUAL_MAX:
        reasons.append(f"residual {residual} above {RESIDUAL_MAX}")
    if rec.get("envelope_dominates") is not True:
        reasons.append("envelope does not dominate")
    name = rec.get("envelope_csv")
    if name is None:
        return reasons + ["no envelope CSV"]
    try:
        with open(out_dir / name, newline="") as fh:
            last = list(csv.reader(fh))[-1]
        weighted, cumsum = float(last[-2]), float(last[-1])
    except (OSError, IndexError, ValueError) as exc:
        return reasons + [f"unreadable envelope CSV: {exc}"]
    if rec.get("weighted_total") != cumsum:
        reasons.append(f"weighted_total {rec.get('weighted_total')} != CSV cumsum {cumsum}")
    if rec.get("final_increment") != weighted:
        reasons.append(
            f"final_increment {rec.get('final_increment')} != CSV weighted_beta {weighted}")
    return reasons


def _check_kernel(rec: dict, out_dir: Path) -> list[str]:
    reasons = []
    err = rec.get("kernel_rel_err")
    if err is None or not err <= KERNEL_REL_ERR_MAX:
        reasons.append(f"kernel_rel_err {err} above {KERNEL_REL_ERR_MAX}")
    isometry = rec.get("isometry_exact") or {}
    if not isometry or not all(v is True for v in isometry.values()):
        reasons.append(f"isometry not exact: {isometry}")
    if rec.get("round_trip_exact") is not True:
        reasons.append("round trip not exact")
    return reasons


_RECORD_CHECKS = {"invert": _check_invert, "kernel": _check_kernel}


def check_output(command: str, out_dir: Path, trials: int,
                 exit_code: int) -> dict[int, list[str]]:
    """Failed trial -> reasons, for one command's output directory."""
    every = range(trials)
    if exit_code != 0:
        return {t: [f"exit code {exit_code}"] for t in every}
    report_path = out_dir / "report.json"
    problems = verify_report(report_path)
    if problems:
        return {t: [f"verify-report: {p}" for p in problems] for t in every}
    records = json.loads(report_path.read_text()).get("records", [])
    if sorted(r.get("trial") for r in records) != list(every):
        return {t: ["report records do not cover the trials"] for t in every}
    failures = {}
    for rec in records:
        reasons = [f"error record: {rec['error']}"] if "error" in rec else []
        reasons += _RECORD_CHECKS[command](rec, out_dir)
        if reasons:
            failures[rec["trial"]] = reasons
    return failures


def differing_files(a: Path, b: Path) -> list[str]:
    """Names of files that are not byte-identical between two output directories."""
    names_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    out = sorted(str(n) for n in names_a ^ names_b)
    out += sorted(str(n) for n in names_a & names_b
                  if (a / n).read_bytes() != (b / n).read_bytes())
    return out


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
