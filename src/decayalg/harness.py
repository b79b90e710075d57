"""Batch experiment runner: random operators, inversion studies, reports.

Experiments are fully deterministic: every (seed, trial) pair opens its
own xoshiro256** stream, trials may run in parallel (capped by the
DECAYALG_THREADS environment variable) but are merged in trial order,
and all emitted JSON/CSV is byte-stable — sorted keys, repr'd floats,
no timestamps.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .blocking_kernel import (
    GridFunction,
    apply_kernel,
    assemble_kernel,
    block,
    kernel_block_to_csv,
    unblock,
    write_grid_function,
)
from .cd_operator import (
    CDOperator,
    EnvelopeReport,
    NumericallySingular,
    apply,
    decay_slope,
    densify,
    fit_envelope,
    invert_one_plus,
)
from .lattice import window_array, window_indices, window_size
from .rng import Xoshiro256StarStar, box_muller, uniforms
from .seq_algebra import (
    FiniteSeq,
    SymbolVanishes,
    invertibility_test,
    wiener_inverse,
)
from .weights import Weight

__all__ = [
    "FORMAT_VERSION",
    "ConfigError",
    "ExperimentConfig",
    "envelope_values",
    "generate_operator",
    "run_inverse_closedness",
    "run_wiener",
    "run_kernel",
    "run_gen",
    "parse_symbol",
    "verify_report",
    "worker_count",
]

FORMAT_VERSION = 1

_PROFILE_KINDS = ("exponential", "polynomial", "table")


class ConfigError(ValueError):
    """The experiment configuration is malformed or inconsistent."""


def _parsed(what: str, parse):
    """parse(), with any parsing error raised as a ConfigError naming `what`."""
    try:
        return parse()
    except ConfigError:
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc!r}") from exc


def _require_positive(prof: dict, key: str) -> None:
    value = _parsed(key, lambda: float(prof.get(key, 0)))
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{prof['kind']} profile needs a finite {key} > 0")


@dataclass
class ExperimentConfig:
    """Everything one experiment needs, serializable and validated."""

    seed: int
    c: int = 1
    window_radius: int = 4
    band_radius: int = 1
    local_dim: int = 2
    q: int = 2
    weight: Weight = field(default_factory=Weight)
    envelope_profile: dict = field(default_factory=lambda: {"kind": "exponential", "rate": 1.0})
    block_rank: int = 1
    trials: int = 1
    boundary: str = "circulant"
    output_dir: Optional[str] = None

    def __post_init__(self):
        try:
            self.seed = int(self.seed)
            self.c = int(self.c)
            self.window_radius = int(self.window_radius)
            self.band_radius = int(self.band_radius)
            self.local_dim = int(self.local_dim)
            self.q = int(self.q)
            self.block_rank = int(self.block_rank)
            self.trials = int(self.trials)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"non-integer field: {exc}") from exc
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.c < 1:
            raise ConfigError("c must be at least 1")
        if self.window_radius < 0 or self.band_radius < 0:
            raise ConfigError("radii must be nonnegative")
        if self.local_dim < 1 or self.q < 1:
            raise ConfigError("d and q must be positive")
        if not (1 <= self.block_rank <= self.local_dim):
            raise ConfigError("block_rank must satisfy 1 <= block_rank <= d")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.boundary not in ("circulant", "dirichlet"):
            raise ConfigError(f"unknown boundary {self.boundary!r}")
        if not isinstance(self.weight, Weight):
            raise ConfigError("weight must be a Weight")
        self._validate_profile()

    def _validate_profile(self):
        prof = self.envelope_profile
        if not isinstance(prof, dict) or "kind" not in prof:
            raise ConfigError("envelope_profile needs a 'kind' field")
        kind = prof["kind"]
        if kind not in _PROFILE_KINDS:
            raise ConfigError(f"envelope kind must be one of {_PROFILE_KINDS}")
        if kind == "exponential":
            _require_positive(prof, "rate")
        elif kind == "polynomial":
            _require_positive(prof, "power")
        else:
            values = prof.get("values")
            want = window_size(self.band_radius, self.c)
            if not isinstance(values, (list, tuple)) or len(values) != want:
                raise ConfigError(f"table profile needs exactly {want} values")
            floats = [_parsed("table value", lambda: float(v)) for v in values]
            if not all(math.isfinite(v) and v >= 0 for v in floats):
                raise ConfigError("table values must be finite and nonnegative")
            if "l1" in prof and not any(floats):
                raise ConfigError("cannot rescale an all-zero envelope to an l1 target")
        if "l1" in prof:
            _require_positive(prof, "l1")

    def to_json(self) -> dict:
        out = {
            "format_version": FORMAT_VERSION,
            "seed": self.seed,
            "c": self.c,
            "N": self.window_radius,
            "W": self.band_radius,
            "d": self.local_dim,
            "q": self.q,
            "weight": self.weight.to_json(),
            "envelope_profile": self.envelope_profile,
            "block_rank": self.block_rank,
            "trials": self.trials,
            "boundary": self.boundary,
        }
        if self.output_dir is not None:
            out["output_dir"] = self.output_dir
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config must be a JSON object")
        version = obj.get("format_version", FORMAT_VERSION)
        if version != FORMAT_VERSION:
            raise ConfigError(f"unsupported format_version {version}")
        unknown = set(obj) - {
            "format_version", "seed", "c", "N", "W", "d", "q", "weight",
            "envelope_profile", "block_rank", "trials", "boundary", "output_dir",
        }
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "seed" not in obj:
            raise ConfigError("config needs a seed")
        try:
            weight = Weight.from_json(obj["weight"]) if "weight" in obj else Weight()
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad weight: {exc}") from exc
        return cls(
            seed=obj["seed"],
            c=obj.get("c", 1),
            window_radius=obj.get("N", 4),
            band_radius=obj.get("W", 1),
            local_dim=obj.get("d", 2),
            q=obj.get("q", 2),
            weight=weight,
            envelope_profile=obj.get("envelope_profile", {"kind": "exponential", "rate": 1.0}),
            block_rank=obj.get("block_rank", 1),
            trials=obj.get("trials", 1),
            boundary=obj.get("boundary", "circulant"),
            output_dir=obj.get("output_dir"),
        )


def envelope_values(cfg: ExperimentConfig) -> np.ndarray:
    """The target envelope beta_m over the band, from the profile."""
    offsets = list(window_indices(cfg.band_radius, cfg.c))
    prof = cfg.envelope_profile
    kind = prof["kind"]
    if kind == "exponential":
        rate = float(prof["rate"])
        vals = np.array([np.exp(-rate * sum(abs(x) for x in m)) for m in offsets])
    elif kind == "polynomial":
        power = float(prof["power"])
        vals = np.array([(1.0 + sum(abs(x) for x in m)) ** -power for m in offsets])
    else:
        vals = np.array([float(v) for v in prof["values"]])
    if "l1" in prof:
        total = vals.sum()
        if total <= 0:
            raise ConfigError("cannot rescale an all-zero envelope to an l1 target")
        vals = vals * (float(prof["l1"]) / total)
    shape = (2 * cfg.band_radius + 1,) * cfg.c
    return vals.reshape(shape)


# words per chunk of blocks processed at once: bounds the temporaries of a trial
_CHUNK_WORDS = 1 << 14


def generate_operator(cfg: ExperimentConfig, trial: int) -> CDOperator:
    """Draw the trial's operator: random rank-limited blocks under the envelope.

    Each stored block is X @ Y with X of shape (d, block_rank) and Y of
    shape (block_rank, d), rescaled so its trace norm is beta_m * r with
    r uniform in [0.5, 1]; the factorization (rows of Y against columns
    of X) is kept alongside as two stacks of factor terms.  Draw order is
    fixed (cells then offsets, lexicographic), so the operator is a pure
    function of (seed, trial).
    Each block with beta_m > 0 takes 1 + 4 d block_rank words of the
    stream: r, then the entries of X and of Y row by row, one complex
    normal (a full Box-Muller pair) each.  The trial's words are drawn
    at once; blocks are then processed in chunks, with one batched
    product and one batched SVD per chunk.
    """
    rng = Xoshiro256StarStar(cfg.seed, stream=trial)
    d, rank = cfg.local_dim, cfg.block_rank
    beta = envelope_values(cfg).reshape(-1)  # in window_indices order
    drawn = np.flatnonzero(beta != 0.0)
    cells = window_array(cfg.window_radius, cfg.c)
    n = len(cells) * len(drawn)
    keys = np.empty((n, 2, cfg.c), dtype=np.int64)
    keys[:, 0] = np.repeat(cells, len(drawn), axis=0)
    keys[:, 1] = np.tile(window_array(cfg.band_radius, cfg.c)[drawn], (len(cells), 1))
    targets = np.tile(beta[drawn], len(cells))
    stack = np.empty((n, d, d), dtype=np.complex128)
    # term j of block i: functional a[i, j] (a row of Y), output y[i, j] (a column of X)
    a = np.empty((n, rank, d), dtype=np.complex128)
    y = np.empty_like(a)
    tn = np.empty(n)
    stride = 1 + 4 * d * rank
    words = rng.u64_array(n * stride).reshape(n, stride)
    per_chunk = max(1, _CHUNK_WORDS // stride)
    for start in range(0, n, per_chunk):
        part = slice(start, min(n, start + per_chunk))
        r = 0.5 + 0.5 * uniforms(words[part, 0])  # as uniform_in(0.5, 1.0)
        z = box_muller(words[part, 1:]).view(np.complex128)
        xs = z[:, :d * rank].reshape(-1, d, rank)
        ys = z[:, d * rank:].reshape(-1, rank, d)
        g = xs @ ys
        tn[part] = np.linalg.svd(g, compute_uv=False).sum(axis=-1)
        scale = targets[part] * r / tn[part]
        stack[part] = g * scale[:, None, None]
        a[part] = ys * scale[:, None, None]
        y[part] = xs.transpose(0, 2, 1)
    kept = tn != 0.0
    if not kept.all():  # pragma: no cover - measure-zero draw
        keys, stack, a, y = keys[kept], stack[kept], a[kept], y[kept]
    return CDOperator.from_arrays(cfg.c, cfg.window_radius, cfg.band_radius, d,
                                  cfg.boundary, keys, stack, factors=(a, y))


def worker_count() -> int:
    """Worker cap from DECAYALG_THREADS (default: serial)."""
    raw = os.environ.get("DECAYALG_THREADS")
    if raw is None or raw == "":
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"DECAYALG_THREADS must be an integer, got {raw!r}") from exc
    return max(1, n)


def _map_trials(fn, n_trials: int) -> list:
    workers = worker_count()
    if workers <= 1 or n_trials <= 1:
        return [fn(i) for i in range(n_trials)]
    with ThreadPoolExecutor(max_workers=min(workers, n_trials)) as pool:
        return list(pool.map(fn, range(n_trials)))


def _json_float(x) -> Optional[float]:
    """NaN/inf become null: reports stay strict JSON."""
    x = float(x)
    return x if np.isfinite(x) else None


def _write_report(report: dict, out_dir: Path) -> Path:
    path = out_dir / "report.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return path


def _aggregates(kind: str, records: list) -> dict:
    """A report's aggregates from its records; the runners and verify_report share it."""
    ok = [r for r in records if "error" not in r]
    out = {"trials_failed": len(records) - len(ok)}
    if kind == "inverse_closedness":
        slopes = [r["slope"] for r in ok if r.get("slope") is not None]
        out["median_slope"] = statistics.median(slopes) if slopes else None
        out["max_residual"] = max((r["residual"] for r in ok), default=None)
        out["max_condition"] = max((r["condition"] for r in ok), default=None)
    elif kind == "kernel":
        out["max_kernel_rel_err"] = max((r["kernel_rel_err"] for r in ok), default=None)
        out["all_isometries_exact"] = all(all(r["isometry_exact"].values()) for r in ok)
        out["all_round_trips_exact"] = all(r["round_trip_exact"] for r in ok)
    return out


def _resolve_out_dir(cfg_output_dir, out_dir) -> Path:
    path = Path(out_dir if out_dir is not None else (cfg_output_dir or "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


# ------------------------------------------------------ inverse closedness


def run_inverse_closedness(cfg: ExperimentConfig, out_dir=None,
                           fmt: str = "csv") -> dict:
    """Generate, certify, invert, and measure decay, one record per trial."""
    if cfg.boundary != "circulant":
        raise ConfigError("invert needs the circulant boundary: inversion is "
                          "defined on the circulant window")
    out_path = _resolve_out_dir(cfg.output_dir, out_dir)
    beta = envelope_values(cfg)

    def one_trial(trial: int) -> dict:
        op = generate_operator(cfg, trial)
        fitted = fit_envelope(op, "nuclear")
        env_l1 = fitted.l1()
        if env_l1 < 1.0:
            check = "envelope_l1"
        else:
            radius = float(np.abs(np.linalg.eigvals(densify(op))).max(initial=0.0))
            if radius < 1.0:
                check = "spectral_radius"
            else:
                return {
                    "trial": trial,
                    "error": "not certified invertible "
                             f"(envelope l1 {env_l1:.3f}, spectral radius {radius:.3f})",
                }
        try:
            res = invert_one_plus(op, cfg.weight)
        except NumericallySingular as exc:
            return {"trial": trial, "error": str(exc)}
        slope = decay_slope(res.envelope)
        report = res.envelope_report
        return {
            "trial": trial,
            "residual": _json_float(res.residual),
            "condition": _json_float(res.condition),
            "slope": _json_float(slope),
            "weighted_total": _json_float(report.total),
            "final_increment": _json_float(report.final_increment),
            "envelope_l1": _json_float(env_l1),
            "invertibility_check": check,
            # the fitted beta_m is the max over cells, so this bounds every block
            "envelope_dominates": bool((fitted.values <= beta * (1.0 + 1e-12) + 1e-15).all()),
            "_envelope_report": report,
        }

    raw = _map_trials(one_trial, cfg.trials)

    records = []
    for trial, rec in enumerate(raw):
        rec = dict(rec)
        report = rec.pop("_envelope_report", None)
        if report is not None:
            if fmt == "csv":
                name = f"envelope_trial_{trial:03d}.csv"
                report.to_csv(out_path / name)
                rec["envelope_csv"] = name
            else:
                rec["envelope_rows"] = [
                    list(m) + [beta_v, g, weighted, running]
                    for m, beta_v, g, weighted, running in report.rows
                ]
        records.append(rec)

    report = {
        "format_version": FORMAT_VERSION,
        "kind": "inverse_closedness",
        "config": cfg.to_json(),
        "records": records,
        "aggregates": _aggregates("inverse_closedness", records),
    }
    _write_report(report, out_path)
    return report


# ----------------------------------------------------------------- wiener


def parse_symbol(text: str, c: int = 1) -> FiniteSeq:
    """Parse a one-variable symbol like "2+u", "3+u+u^{-1}", "1-0.5*u^2".

    Terms are [coefficient][*][u[^exponent]]; exponents may be braced.
    Only c=1 symbols are expressible; richer inputs go through JSON.
    """
    if c != 1:
        raise ConfigError("symbol strings are one-dimensional; use a JSON seq")
    s = text.replace("−", "-").replace("⋅", "*").replace(" ", "")
    if not s:
        raise ConfigError("empty symbol")
    entries: dict = {}
    # split into signed terms
    terms = []
    start = 0
    for i, ch in enumerate(s):
        if ch in "+-" and i > start and s[i - 1] not in "eE^+-*({":
            terms.append(s[start:i])
            start = i
    terms.append(s[start:])
    for term in terms:
        if not term or term in "+-":
            raise ConfigError(f"malformed term in symbol {text!r}")
        sign = 1.0
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if "u" in term:
            head, _, tail = term.partition("u")
            head = head.rstrip("*")
            try:
                coef = complex(head) if head else 1.0 + 0j
            except ValueError as exc:
                raise ConfigError(f"bad coefficient in {term!r}") from exc
            if tail.startswith("^"):
                exp_text = tail[1:].strip("{}")
                try:
                    power = int(exp_text)
                except ValueError as exc:
                    raise ConfigError(f"bad exponent in {term!r}") from exc
            elif tail:
                raise ConfigError(f"malformed term {term!r}")
            else:
                power = 1
        else:
            try:
                coef = complex(term)
            except ValueError as exc:
                raise ConfigError(f"bad coefficient {term!r}") from exc
            power = 0
        entries[(power,)] = entries.get((power,), 0j) + sign * coef
    radius = max(abs(p[0]) for p in entries)
    out = FiniteSeq.zeros(1, radius)
    for (p,), v in entries.items():
        out.data[p + radius] = v
    return out


def _geometric_closed_form_error(seq: FiniteSeq, inverse: FiniteSeq) -> Optional[float]:
    """Exact-coefficient check for two-term symbols lam + gam * u^m0."""
    support = list(seq.support())
    if len(support) != 2:
        return None
    entries = dict(support)
    origin = (0,) * seq.c
    if origin not in entries:
        return None
    lam = entries.pop(origin)
    (m0, gam), = entries.items()
    if abs(lam) <= abs(gam):
        return None
    worst = 0.0
    r_out = inverse.radius
    j = 0
    while True:
        pos = tuple(j * x for x in m0)
        if max(abs(x) for x in pos) > r_out:
            break
        expected = (-gam) ** j / lam ** (j + 1)
        worst = max(worst, abs(inverse[pos] - expected))
        j += 1
    # everything off the geometric ray must vanish
    ray = {tuple(j * x for x in m0) for j in range(r_out * seq.radius + r_out + 2)}
    for pos, val in inverse.support():
        if pos not in ray:
            worst = max(worst, abs(val))
    return worst


def _wiener_inputs(cfg: dict) -> tuple:
    """(seq, grid, out_radius, weight, margin) of a wiener config, checked up front."""
    if not isinstance(cfg, dict):
        raise ConfigError("wiener config must be a JSON object")
    version = cfg.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported format_version {version}")
    if "seq" in cfg:
        seq = _parsed("seq", lambda: FiniteSeq.from_json(cfg["seq"]))
    elif "symbol" in cfg:
        seq = _parsed("symbol", lambda: parse_symbol(cfg["symbol"], int(cfg.get("c", 1))))
    else:
        raise ConfigError("wiener config needs 'symbol' or 'seq'")
    try:
        grid = int(cfg["grid"])
        out_radius = int(cfg["out_radius"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"wiener config needs integer grid/out_radius: {exc}") from exc
    weight = _parsed("weight", lambda: Weight.from_json(cfg["weight"]) if "weight" in cfg
                     else Weight())
    margin = _parsed("margin", lambda: float(cfg.get("margin", 0.0)))
    if grid < 1 or grid & (grid - 1):
        raise ConfigError(f"grid must be a power of two, got {grid}")
    if out_radius < 0:
        raise ConfigError(f"out_radius must be >= 0, got {out_radius}")
    if grid < 2 * (seq.radius + out_radius) + 2:
        raise ConfigError(f"grid {grid} too short for radii R={seq.radius}, "
                          f"R'={out_radius}: need grid >= 2(R + R') + 2")
    if not math.isfinite(margin):
        raise ConfigError("margin must be finite")
    return seq, grid, out_radius, weight, margin


def _wiener_partial_sums(inverse: FiniteSeq, weight: Weight, out_radius: int) -> list:
    """(radius, partial_sum, increment) rows: weighted |coefficient| mass, shell by shell.

    The runner writes these rows and verify_report re-derives them.
    """
    partial = []
    running = 0.0
    by_radius: dict = {}
    for pos, val in inverse.support():
        by_radius.setdefault(max(abs(x) for x in pos), []).append((pos, val))
    for r in range(out_radius + 1):
        increment = 0.0
        for pos, val in sorted(by_radius.get(r, [])):
            coords = np.array([pos], dtype=float)
            increment += float(weight.eval_many(coords)[0]) * abs(val)
        running += increment
        partial.append((r, running, increment))
    return partial


def run_wiener(cfg: dict, out_dir=None, fmt: str = "csv") -> dict:
    """Invert a scalar symbol on the torus and report coefficient decay."""
    seq, grid, out_radius, weight, margin = _wiener_inputs(cfg)
    out_path = _resolve_out_dir(cfg.get("output_dir"), out_dir)

    probe = invertibility_test(seq, grid, margin)
    report: dict = {
        "format_version": FORMAT_VERSION,
        "kind": "wiener",
        "config": {
            "format_version": FORMAT_VERSION,
            "grid": grid,
            "out_radius": out_radius,
            "weight": weight.to_json(),
            "margin": margin,
            **({"symbol": cfg["symbol"]} if "symbol" in cfg else {"seq": cfg["seq"]}),
        },
        "min_modulus": _json_float(probe.min_modulus),
    }
    try:
        result = wiener_inverse(seq, grid, out_radius)
    except SymbolVanishes as exc:
        report["error"] = f"symbol_vanishes: {exc}"
        _write_report(report, out_path)
        return report

    closed = _geometric_closed_form_error(seq, result.inverse)
    partial = _wiener_partial_sums(result.inverse, weight, out_radius)

    report["residual"] = _json_float(result.residual)
    if closed is not None:
        report["closed_form_max_err"] = _json_float(closed)
    report["weighted_total"] = _json_float(partial[-1][1])
    report["final_increment"] = _json_float(partial[-1][2])

    inverse_json = result.inverse.to_json()
    if fmt == "csv":
        (out_path / "inverse.json").write_text(
            json.dumps(inverse_json, sort_keys=True, indent=2) + "\n"
        )
        with open(out_path / "partial_sums.csv", "w", newline="") as fh:
            fh.write("radius,partial_sum,increment\n")
            for r, total, inc in partial:
                fh.write(f"{r},{total!r},{inc!r}\n")
        report["inverse_json"] = "inverse.json"
        report["partial_sums_csv"] = "partial_sums.csv"
    else:
        report["inverse"] = inverse_json
        report["partial_sums"] = [[r, total, inc] for r, total, inc in partial]
    _write_report(report, out_path)
    return report


# ----------------------------------------------------------------- kernel


def run_kernel(cfg: ExperimentConfig, out_dir=None, fmt: str = "csv") -> dict:
    """Blocking isometry + kernel consistency experiment."""
    if cfg.q ** cfg.c != cfg.local_dim:
        raise ConfigError(
            f"kernel experiments need d = q^c (got d={cfg.local_dim}, "
            f"q^c={cfg.q ** cfg.c})"
        )
    out_path = _resolve_out_dir(cfg.output_dir, out_dir)

    def one_trial(trial: int) -> dict:
        op = generate_operator(cfg, trial)
        rng = Xoshiro256StarStar(cfg.seed ^ 0x6B65726E, stream=trial)
        n_cells = window_size(cfg.window_radius, cfg.c)
        vals = rng.complex_normals(n_cells * cfg.q ** cfg.c).reshape(n_cells, -1)
        f = GridFunction(cfg.c, cfg.window_radius, cfg.q, vals)

        kern = assemble_kernel(op, cfg.q)
        via_kernel = apply_kernel(kern, f)
        via_blocks = unblock(apply(op, block(f)), cfg.q)
        scale = max(1e-300, float(np.abs(via_blocks.values).max(initial=0.0)))
        rel_err = float(np.abs(via_kernel.values - via_blocks.values).max(initial=0.0)) / scale

        blocked = block(f)
        isometry = {
            str(p): f.lp_norm(p) == blocked.norm(p, cell_weight=f.cell_volume_weight)
            for p in (1, 2, "inf")
        }
        round_trip = bool(np.array_equal(unblock(blocked, cfg.q).values, f.values))
        return {
            "trial": trial,
            "kernel_rel_err": _json_float(rel_err),
            "isometry_exact": isometry,
            "round_trip_exact": round_trip,
            "_kernel": kern,
            "_grid": f,
        }

    raw = _map_trials(one_trial, cfg.trials)
    records = []
    for trial, rec in enumerate(raw):
        rec = dict(rec)
        kern = rec.pop("_kernel")
        grid = rec.pop("_grid")
        if trial == 0 and fmt == "csv":
            center = ((0,) * cfg.c, (0,) * cfg.c)
            if center in kern.blocks:
                name = "kernel_block_trial_000.csv"
                kernel_block_to_csv(kern, center[0], center[1], out_path / name)
                rec["kernel_block_csv"] = name
            gname = "input_trial_000.grid"
            write_grid_function(grid, out_path / gname)
            rec["grid_file"] = gname
        records.append(rec)

    report = {
        "format_version": FORMAT_VERSION,
        "kind": "kernel",
        "config": cfg.to_json(),
        "records": records,
        "aggregates": _aggregates("kernel", records),
    }
    _write_report(report, out_path)
    return report


# -------------------------------------------------------------------- gen


def run_gen(cfg: ExperimentConfig, out_dir=None, fmt: str = "csv") -> dict:
    """Write the trial operators themselves (JSON) plus a manifest."""
    out_path = _resolve_out_dir(cfg.output_dir, out_dir)

    def one_trial(trial: int) -> dict:
        op = generate_operator(cfg, trial)
        return {
            "trial": trial,
            "n_blocks": len(op.blocks),
            "envelope_l1": _json_float(fit_envelope(op, "nuclear").l1()),
            "_op": op,
        }

    raw = _map_trials(one_trial, cfg.trials)
    records = []
    for trial, rec in enumerate(raw):
        rec = dict(rec)
        op = rec.pop("_op")
        name = f"operator_trial_{trial:03d}.json"
        (out_path / name).write_text(
            json.dumps(op.to_json(), sort_keys=True, indent=2) + "\n"
        )
        rec["operator_json"] = name
        records.append(rec)
    report = {
        "format_version": FORMAT_VERSION,
        "kind": "gen",
        "config": cfg.to_json(),
        "records": records,
        "aggregates": _aggregates("gen", records),
    }
    _write_report(report, out_path)
    return report


# ---------------------------------------------------------------- verify


def _table_cell(cell, kind, text: bool):
    """One envelope-table cell as `kind` (int for an index, float for a value).

    A CSV cell (text) is parsed; an embedded cell must already be a JSON
    number (an int for an index, never a bool).  Anything else raises
    ValueError.
    """
    if text:
        return kind(cell)
    if isinstance(cell, bool) or not isinstance(cell, int if kind is int else (int, float)):
        raise ValueError(f"{cell!r} is not a JSON {kind.__name__}")
    return kind(cell)


def _envelope_table(rec: dict, out_dir: Path, c: int) -> tuple:
    """(rows, problems) of a record's envelope table, from its CSV or embedded rows.

    Rows are (label, m, beta, weight, weighted_beta, cumsum); a label names
    the row in messages.  Problems are structural: missing file, bad
    header, a row of the wrong length or with a cell that is not a number.
    """
    if rec.get("envelope_csv") is None:
        embedded = rec.get("envelope_rows")
        if not isinstance(embedded, list):
            return [], [f"trial {rec.get('trial')}: no envelope table"]
        labelled = [(f"trial {rec.get('trial')}: embedded row {i}", row)
                    for i, row in enumerate(embedded)]
        text = False
    else:
        path = out_dir / rec["envelope_csv"]
        if not path.exists():
            return [], [f"missing envelope CSV {path.name}"]
        lines = path.read_text().splitlines()
        want_header = ",".join(
            [f"m_{i + 1}" for i in range(c)] + ["beta", "weight", "weighted_beta", "cumsum"]
        )
        if not lines or lines[0] != want_header:
            return [], [f"{path.name}: bad header"]
        labelled = [(f"{path.name}:{ln}", line.split(","))
                    for ln, line in enumerate(lines[1:], start=2)]
        text = True
    rows, problems = [], []
    for label, cells in labelled:
        if not isinstance(cells, list) or len(cells) != c + 4:
            problems.append(f"{label}: wrong column count")
            continue
        try:
            m = tuple(_table_cell(x, int, text) for x in cells[:c])
            rows.append((label, m, *(_table_cell(x, float, text) for x in cells[c:])))
        except ValueError as exc:
            problems.append(f"{label}: bad cell: {exc}")
    return rows, problems


def _verify_envelope_rows(rows: list, rec: dict, weight: Weight) -> list:
    """Re-derive an envelope table's columns; its last row must match the record."""
    problems = []
    running = 0.0
    for label, m, beta, g, weighted, cumsum in rows:
        if g != float(weight.eval_many(np.array([m], dtype=float))[0]):
            problems.append(f"{label}: weight column mismatch")
        if weighted != g * beta:
            problems.append(f"{label}: weighted_beta mismatch")
        running += weighted
        if cumsum != running:
            problems.append(f"{label}: cumsum mismatch")
    last_weighted, last_cumsum = rows[-1][4:] if rows else (0.0, 0.0)
    trial = rec.get("trial")
    if rec.get("weighted_total") != last_cumsum:
        problems.append(f"trial {trial}: weighted_total does not match its envelope table")
    if rec.get("final_increment") != last_weighted:
        problems.append(f"trial {trial}: final_increment does not match its envelope table")
    return problems


def _wiener_rows(report: dict, out_dir: Path) -> tuple:
    """(rows, problems) of a wiener report's partial sums, from its CSV or embedded rows.

    Rows are (label, [radius, partial_sum, increment]).
    """
    if report.get("partial_sums_csv") is None:
        embedded = report.get("partial_sums")
        if not isinstance(embedded, list):
            return [], ["wiener report has no partial sums"]
        rows = [(f"embedded partial sum {i}", row) for i, row in enumerate(embedded)]
    else:
        csv_path = out_dir / report["partial_sums_csv"]
        if not csv_path.exists():
            return [], [f"missing partial sums CSV {csv_path.name}"]
        lines = csv_path.read_text().splitlines()
        if not lines or lines[0] != "radius,partial_sum,increment":
            return [], [f"{csv_path.name}: bad header"]
        rows = []
        for ln, line in enumerate(lines[1:], start=2):
            try:
                r, total, inc = line.split(",")
                rows.append((f"{csv_path.name}:{ln}", [int(r), float(total), float(inc)]))
            except ValueError:
                rows.append((f"{csv_path.name}:{ln}", None))
    bad = [f"{label}: malformed row" for label, row in rows
           if not (isinstance(row, list) and len(row) == 3)]
    return rows, bad


def _verify_wiener_partial_sums(report: dict, out_dir: Path) -> list:
    """Re-derive the partial sums from the stored inverse and the weight."""
    try:
        cfg = report["config"]
        weight = Weight.from_json(cfg["weight"])
        out_radius = int(cfg["out_radius"])
        if report.get("inverse_json") is not None:
            inverse = json.loads((out_dir / report["inverse_json"]).read_text())
        else:
            inverse = report["inverse"]
        want = _wiener_partial_sums(FiniteSeq.from_json(inverse), weight, out_radius)
        last_total, last_increment = want[-1][1:]
    except (OSError, AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return [f"wiener inverse not reconstructible: {exc!r}"]
    rows, problems = _wiener_rows(report, out_dir)
    if problems:
        return problems
    if len(rows) != len(want):
        problems.append(f"{len(rows)} partial sum rows, want {len(want)}")
    for (label, got), expected in zip(rows, want):
        for name, g, w in zip(("radius", "partial_sum", "increment"), got, expected):
            if g != w:
                problems.append(f"{label}: {name} mismatch")
    if report.get("weighted_total") != last_total:
        problems.append("weighted_total does not match the partial sums")
    if report.get("final_increment") != last_increment:
        problems.append("final_increment does not match the partial sums")
    return problems


def verify_report(path) -> list:
    """Re-derive everything derivable in a report; list every mismatch."""
    path = Path(path)
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"cannot load report: {exc}"]
    problems = []
    if report.get("format_version") != FORMAT_VERSION:
        problems.append(f"unsupported format_version {report.get('format_version')}")
        return problems
    kind = report.get("kind")
    records = report.get("records", [])
    aggregates = report.get("aggregates", {})

    if "records" in report:
        for key, value in _aggregates(kind, records).items():
            if aggregates.get(key) != value:
                problems.append(f"aggregate {key} does not match records")
    ok = [r for r in records if "error" not in r]

    if kind == "inverse_closedness":
        for r in ok:
            if not r.get("envelope_dominates", False):
                problems.append(f"trial {r.get('trial')}: envelope domination violated")
        try:
            weight = Weight.from_json(report["config"]["weight"])
            c = int(report["config"]["c"])
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"config not reconstructible: {exc}")
            return problems
        for r in ok:
            rows, table_problems = _envelope_table(r, path.parent, c)
            problems.extend(table_problems or _verify_envelope_rows(rows, r, weight))
    elif kind == "wiener":
        if "error" not in report:
            if report.get("residual") is None:
                problems.append("wiener report has neither residual nor error")
            problems.extend(_verify_wiener_partial_sums(report, path.parent))
    elif kind == "gen":
        for r in records:
            name = r.get("operator_json")
            if name is None or not (path.parent / name).exists():
                problems.append(f"trial {r.get('trial')}: operator file missing")
    elif kind != "kernel":  # a kernel report's derivable content is its aggregates
        problems.append(f"unknown report kind {kind!r}")
    return problems
