"""Batch experiment runner: random operators, inversion studies, reports.

Experiments are fully deterministic: every block of a trial's operator,
and every cell of a kernel run's grid, draws from its own xoshiro256**
lane keyed by (seed, domain, trial, cell[, offset]).  Trials may run in
parallel (capped by the DECAYALG_THREADS environment variable) but are
merged in trial order, and all emitted JSON/CSV, written and read back
only here, is byte-stable — sorted keys, repr'd floats, no timestamps.
"""

from __future__ import annotations

import json
import math
import os
import re
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
    read_grid_function,
    unblock,
    write_grid_function,
)
from .cd_operator import (
    CDOperator,
    Envelope,
    NumericallySingular,
    apply,
    decay_slope,
    fit_envelope,
    geometry_plan,
    invert_one_plus,
)
from .lattice import window_array, window_indices, window_size
from .rng import box_muller, lane_keys, lanes, uniforms
from .seq_algebra import (FiniteSeq, SymbolVanishes, check_sizes, convolve, delta,
                          symbol_on_grid, symbol_vanishes, wiener_inverse)
from .weights import Weight

__all__ = [
    "FORMAT_VERSION",
    "ConfigError",
    "ExperimentConfig",
    "envelope_values",
    "generate_operator",
    "kernel_input",
    "run_inverse_closedness",
    "run_wiener",
    "run_kernel",
    "run_gen",
    "parse_symbol",
    "verify_report",
    "worker_count",
]

FORMAT_VERSION = 4

_PROFILE_KINDS = ("exponential", "polynomial", "table")


class ConfigError(ValueError):
    """The experiment configuration is malformed or inconsistent."""


def _integer(key: str, value) -> int:
    """value as an int; ConfigError unless it is an integral number."""
    try:
        # int() alone would run 7.9 as 7, True as 1 and "4" as 4
        if isinstance(value, (bool, np.bool_, str)) or value != int(value):
            raise TypeError(f"{key} is {value!r}")
    except (OverflowError, TypeError, ValueError) as exc:
        raise ConfigError(f"non-integer field: {exc}") from exc
    return int(value)


def _parsed(what: str, parse):
    """parse(), with any parsing error raised as a ConfigError naming `what`."""
    try:
        return parse()
    except ConfigError:
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc!r}") from exc


def _config_object(obj, fields, required: tuple, what: str) -> None:
    """ConfigError unless obj is a JSON object of this format version that
    has every `required` field and no field outside `fields`."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    version = obj.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ConfigError(f"unsupported format_version {version}")
    unknown = set(obj) - set(fields) - {"format_version"}
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ConfigError(f"{what} needs {', '.join(missing)}")


def _positive(prof: dict, key: str) -> float:
    value = _parsed(key, lambda: float(prof.get(key, 0)))
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{prof['kind']} profile needs a finite {key} > 0")
    return value


# config JSON name -> ExperimentConfig field; the defaults live on the dataclass
_CONFIG_FIELDS = {
    "seed": "seed", "c": "c", "N": "window_radius", "W": "band_radius",
    "d": "local_dim", "q": "q", "weight": "weight", "envelope_profile": "envelope_profile",
    "block_rank": "block_rank", "trials": "trials", "boundary": "boundary",
    "output_dir": "output_dir",
}


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
        for key in ("seed", "c", "N", "W", "d", "q", "block_rank", "trials"):
            name = _CONFIG_FIELDS[key]
            setattr(self, name, _integer(key, getattr(self, name)))
        if not 0 <= self.seed < 1 << 64:  # lane keys read the seed mod 2^64
            raise ConfigError("seed must be an integer in [0, 2^64)")
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
        envelope_values(self)  # validates the profile

    def to_json(self) -> dict:
        out = {key: getattr(self, name) for key, name in _CONFIG_FIELDS.items()}
        out.update(format_version=FORMAT_VERSION, weight=self.weight.to_json())
        if self.output_dir is None:
            del out["output_dir"]
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        _config_object(obj, _CONFIG_FIELDS, ("seed",), "config")
        fields = {name: obj[key] for key, name in _CONFIG_FIELDS.items() if key in obj}
        if "weight" in obj:
            fields["weight"] = _parsed("weight", lambda: Weight.from_json(obj["weight"]))
        return cls(**fields)


def envelope_values(cfg: ExperimentConfig) -> np.ndarray:
    """The target envelope beta_m over the band, from the profile; ConfigError if malformed."""
    prof = cfg.envelope_profile
    if not isinstance(prof, dict) or prof.get("kind") not in _PROFILE_KINDS:
        raise ConfigError(f"envelope_profile needs a 'kind' among {_PROFILE_KINDS}")
    kind = prof["kind"]
    if kind == "table":
        values, want = prof.get("values"), window_size(cfg.band_radius, cfg.c)
        if not isinstance(values, (list, tuple)) or len(values) != want:
            raise ConfigError(f"table profile needs exactly {want} values")
        vals = np.array([_parsed("table value", lambda: float(v)) for v in values])
        if not (np.isfinite(vals).all() and (vals >= 0).all()):
            raise ConfigError("table values must be finite and nonnegative")
    else:  # exp or power of each offset's l1 size
        p = _positive(prof, "rate" if kind == "exponential" else "power")
        sizes = np.abs(window_array(cfg.band_radius, cfg.c)).sum(axis=1)
        vals = np.exp(-p * sizes) if kind == "exponential" else (1.0 + sizes) ** -p
    if "l1" in prof:
        l1 = _positive(prof, "l1")
        if not vals.any():
            raise ConfigError("cannot rescale an all-zero envelope to an l1 target")
        vals = vals * (l1 / vals.sum())
    shape = (2 * cfg.band_radius + 1,) * cfg.c
    return vals.reshape(shape)


# words per chunk of blocks processed at once: bounds the temporaries of a trial
_CHUNK_WORDS = 1 << 14
# the domain part of a lane key: the operator's blocks and the kernel run's grid cells
_OPERATOR_DOMAIN = int.from_bytes(b"operator", "big")
_GRID_DOMAIN = int.from_bytes(b"grid", "big")


def _squares(z: np.ndarray) -> np.ndarray:
    return (z.real ** 2 + z.imag ** 2).sum(axis=-1)


def _gram_det(v: np.ndarray) -> np.ndarray:
    """det(v v^H) per pair of rows v0 = v[:, 0], v1 = v[:, 1], as
    ||v0||^2 ||v1 - (v0^H v1 / ||v0||^2) v0||^2: no cancellation, unlike ad - bc."""
    v0, v1 = v[:, 0], v[:, 1]
    n0 = _squares(v0)
    return n0 * _squares(v1 - ((v0.conj() * v1).sum(axis=-1) / n0)[:, None] * v0)


def _trace_norms(g: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Trace norms of the blocks g = xs @ ys, xs of shape (n, d, r) and ys (n, r, d).

    For r <= 2 in closed form, ||g||_S1^2 = ||g||_F^2 + 2 s1 s2 with (s1 s2)^2 =
    det(X^H X) det(Y Y^H), no s1 s2 term for r = 1; larger r sum LAPACK's singular values.
    """
    if xs.shape[-1] > 2:
        return np.linalg.svd(g, compute_uv=False).sum(axis=-1)
    sq = _squares(g.reshape(len(g), -1))
    if xs.shape[-1] == 2:
        sq = sq + 2.0 * np.sqrt(_gram_det(xs.transpose(0, 2, 1)) * _gram_det(ys))
    return np.sqrt(sq)


def generate_operator(cfg: ExperimentConfig, trial: int) -> CDOperator:
    """Draw the trial's operator: random rank-limited blocks under the envelope.

    Each stored block is X @ Y with X of shape (d, block_rank) and Y of
    shape (block_rank, d), rescaled so its trace norm is beta_m * r with
    r uniform in [0.5, 1]; the factorization (rows of Y against columns
    of X) is kept alongside as two stacks of factor terms.
    Block (k, m) with beta_m > 0 takes the first 1 + 4 d block_rank
    words of its own lane, keyed by (seed, "operator", trial, *k, *m):
    r, then the entries of X and of Y row by row, one complex normal (a
    full Box-Muller pair) each.  So a block is a function of its key
    alone, the same in every window that holds it.  All lanes of a
    trial are drawn at once; blocks are then processed in chunks, with
    block_rank outer-product passes and one batched `_trace_norms` per
    chunk.  The operator gets the geometry's shared plan unless it has no
    blocks or drops one.
    """
    d, rank = cfg.local_dim, cfg.block_rank
    beta = envelope_values(cfg).reshape(-1)  # in window_indices order
    drawn = np.flatnonzero(beta != 0.0)
    plan = geometry_plan(cfg.c, cfg.window_radius, cfg.band_radius, cfg.boundary,
                         tuple(drawn.tolist()))
    keys, n = plan.keys, len(plan.keys)
    targets = np.tile(beta[drawn], window_size(cfg.window_radius, cfg.c))
    stack = np.empty((n, d, d), dtype=np.complex128)
    # term j of block i: functional a[i, j] (a row of Y), output y[i, j] (a column of X)
    a = np.empty((n, rank, d), dtype=np.complex128)
    y = np.empty_like(a)
    tn = np.empty(n)
    stride = 1 + 4 * d * rank
    words = lanes(lane_keys((cfg.seed, _OPERATOR_DOMAIN, trial), keys.reshape(n, 2 * cfg.c)),
                  stride)
    per_chunk = max(1, _CHUNK_WORDS // stride)
    for start in range(0, n, per_chunk):
        part = slice(start, min(n, start + per_chunk))
        r = 0.5 + 0.5 * uniforms(words[part, 0])  # as uniform_in(0.5, 1.0)
        z = box_muller(words[part, 1:]).view(np.complex128)
        xs = z[:, :d * rank].reshape(-1, d, rank)
        ys = z[:, d * rank:].reshape(-1, rank, d)
        g = np.multiply(xs[..., 0, None], ys[:, 0, None], out=stack[part])
        for j in range(1, rank):  # outer-product passes beat a batched matmul of tiny blocks
            g += xs[..., j, None] * ys[:, j, None]
        tn[part] = _trace_norms(g, xs, ys)
        scale = (targets[part] * r / tn[part])[:, None, None]
        g *= scale
        np.multiply(ys, scale, out=a[part])
        y[part] = xs.transpose(0, 2, 1)
    kept = tn != 0.0
    if not (n and kept.all()):  # no blocks, or a measure-zero draw dropped one
        keys, stack, a, y, plan = keys[kept], stack[kept], a[kept], y[kept], None
    return CDOperator.from_arrays(cfg.c, cfg.window_radius, cfg.band_radius, d,
                                  cfg.boundary, keys, stack, factors=(a, y), plan=plan)


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


# ----------------------------------------------------------------- tables


def _write_json(path: Path, obj) -> None:
    """A JSON file: sorted keys, two-space indent, one trailing newline."""
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: list, rows) -> None:
    """A CSV table: the header, then each row's values by repr (shortest round trip)."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _envelope_header(c: int) -> list:
    """Columns of an envelope table: the offset m_1..m_c, then its values."""
    return [f"m_{i + 1}" for i in range(c)] + ["beta", "weight", "weighted_beta", "cumsum"]


def _envelope_table(env: Envelope, weight: Weight) -> list:
    """Rows [*m, beta_m, g(m), g(m) beta_m, running sum]: radius shells, lexicographic within.

    The runner writes these rows and verify_report re-derives them.
    """
    order = sorted(window_indices(env.radius, env.c),
                   key=lambda m: (max(abs(x) for x in m), m))
    gvals = weight.eval_many(np.array(order, dtype=float).reshape(len(order), env.c))
    rows = []
    running = 0.0
    for m, g in zip(order, gvals):
        beta = env.beta(m)
        weighted = float(g) * beta
        running += weighted
        rows.append([*m, beta, float(g), weighted, running])
    return rows


def _totals(total, increment) -> dict:
    """A record's weighted_total and final_increment, read off its table's last row."""
    return {"weighted_total": _json_float(total), "final_increment": _json_float(increment)}


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


def _run_trials(kind: str, cfg: ExperimentConfig, out_dir, run_trial) -> dict:
    """The trial loop of every runner: map the trials, write the report.

    run_trial(trial, out_path) runs one trial, writes its sidecars into
    out_path and returns its finished record.  Records are reported in
    trial order, whatever the worker count.
    """
    out_path = _resolve_out_dir(cfg.output_dir, out_dir)
    records = _map_trials(lambda trial: run_trial(trial, out_path), cfg.trials)
    report = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": cfg.to_json(),
        "records": records,
        "aggregates": _aggregates(kind, records),
    }
    _write_json(out_path / "report.json", report)
    return report


# ------------------------------------------------------ inverse closedness


def run_inverse_closedness(cfg: ExperimentConfig, out_dir=None,
                           fmt: str = "csv") -> dict:
    """Generate, invert, certify, and measure decay, one record per trial.

    A trial with envelope l1 < 1 is invertible by its Neumann series
    ("envelope_l1"); every other trial rests on the certificate of its own
    solve ("residual").  Both are inverted, and refused when the solve's
    certificate fails (see invert_one_plus).
    """
    if cfg.boundary != "circulant":
        raise ConfigError("invert needs the circulant boundary: inversion is "
                          "defined on the circulant window")
    beta = envelope_values(cfg)

    def one_trial(trial: int, out_path: Path) -> dict:
        try:
            res = invert_one_plus(generate_operator(cfg, trial), keep_t1=False)
        except NumericallySingular as exc:
            return {"trial": trial, "error": str(exc)}
        env_l1 = res.t_envelope.l1()
        table = _envelope_table(res.envelope, cfg.weight)
        rec = {
            "trial": trial,
            "envelope_l1": _json_float(env_l1),
            "invertibility_check": "envelope_l1" if env_l1 < 1.0 else "residual",
            # the fitted beta_m is the max over cells, so this bounds every block
            "envelope_dominates": bool(
                (res.t_envelope.values <= beta * (1.0 + 1e-12) + 1e-15).all()),
            "residual": _json_float(res.residual),
            "condition": _json_float(res.condition),
            "sigma_min_lower": _json_float(res.sigma_min_lower),
            "slope": _json_float(decay_slope(res.envelope)),
            **_totals(table[-1][-1], table[-1][-2]),
        }
        if fmt == "csv":
            rec["envelope_csv"] = f"envelope_trial_{trial:03d}.csv"
            _write_csv(out_path / rec["envelope_csv"], _envelope_header(cfg.c), table)
        else:
            rec["envelope_rows"] = table
        return rec

    return _run_trials("inverse_closedness", cfg, out_dir, one_trial)


# ----------------------------------------------------------------- wiener


# a term starts at a sign that follows anything but "eE^+-*({"
_TERM_START = re.compile(r"(?<=[^eE^+\-*({])(?=[+-])")
# signs, then coefficient[*...]u[^{exponent}] (braces optional) or a bare coefficient
_TERM = re.compile(r"([+-]*)(?:([^u]*?)\**u(?:\^[{}]*(.*?)[{}]*)?|([^u]*))", re.DOTALL)


def parse_symbol(text: str) -> FiniteSeq:
    """Parse a one-variable symbol like "2+u", "3+u+u^{-1}", "1-0.5*u^2".

    Terms are [coefficient][*][u[^exponent]]; exponents may be braced.
    Only c=1 symbols are expressible; richer inputs go through JSON.
    """
    s = text.replace("−", "-").replace("⋅", "*").replace(" ", "")
    entries: dict = {}
    for term in _TERM_START.split(s):
        match = _TERM.fullmatch(term)
        if match is None:
            raise ConfigError(f"malformed term {term!r} in symbol {text!r}")
        signs, head, exponent, plain = match.groups()
        try:
            if plain is not None:
                coef, power = complex(plain), 0
            else:
                coef, power = complex(head or "1"), 1 if exponent is None else int(exponent)
        except ValueError as exc:
            raise ConfigError(f"bad coefficient or exponent in {term!r}") from exc
        sign = -1.0 if signs.count("-") % 2 else 1.0
        entries[power] = entries.get(power, 0j) + sign * coef
    return FiniteSeq.from_entries(entries, c=1)


def _geometric_closed_form_error(seq: FiniteSeq, inverse: FiniteSeq) -> Optional[float]:
    """Exact-coefficient check for two-term symbols lam + gam * u^m0.

    Moduli are Python's abs: np.abs on complex128 can differ in the last bit."""
    entries = dict(seq.support())
    origin = (0,) * seq.c
    if len(entries) != 2 or origin not in entries:
        return None
    lam = entries.pop(origin)
    (m0, gam), = entries.items()
    if abs(lam) <= abs(gam):
        return None
    worst, ray, j, pos = 0.0, set(), 0, origin
    while max(abs(x) for x in pos) <= inverse.radius:  # the ray j m0 inside the window
        expected = (-gam) ** j / lam ** (j + 1)
        worst = max(worst, abs(inverse[pos] - expected))
        ray.add(pos)
        j += 1
        pos = tuple(j * x for x in m0)
    # everything off the geometric ray must vanish
    for pos, val in inverse.support():
        if pos not in ray:
            worst = max(worst, abs(val))
    return worst


_WIENER_FIELDS = ("symbol", "seq", "grid", "out_radius", "weight", "output_dir")


def _wiener_inputs(cfg: dict) -> tuple:
    """(seq, grid, out_radius, weight) of a wiener config, checked up front."""
    _config_object(cfg, _WIENER_FIELDS, ("grid", "out_radius"), "wiener config")
    if ("seq" in cfg) == ("symbol" in cfg):
        raise ConfigError("wiener config needs exactly one of 'symbol' and 'seq'")
    if "seq" in cfg:
        seq = _parsed("seq", lambda: FiniteSeq.from_json(cfg["seq"]))
    else:
        seq = _parsed("symbol", lambda: parse_symbol(cfg["symbol"]))
    if not np.isfinite(seq.data).all():
        raise ConfigError("wiener coefficients must be finite")
    grid, out_radius = _integer("grid", cfg["grid"]), _integer("out_radius", cfg["out_radius"])
    _parsed("grid or out_radius", lambda: check_sizes(grid, seq.radius, out_radius))
    weight = _parsed("weight", lambda: Weight.from_json(cfg["weight"]) if "weight" in cfg
                     else Weight())
    return seq, grid, out_radius, weight


_PARTIAL_SUMS_HEADER = ["radius", "partial_sum", "increment"]


def _wiener_partial_sums(inverse: FiniteSeq, weight: Weight, out_radius: int) -> list:
    """(radius, partial_sum, increment) rows: weighted |coefficient| mass, shell by shell.

    The runner writes these rows and verify_report re-derives them.
    """
    increments = [0.0] * (out_radius + 1)
    for pos, val in sorted(inverse.support()):  # each shell adds in index order
        r = max(abs(x) for x in pos)
        if r <= out_radius:
            increments[r] += float(weight.eval_many(np.array([pos], dtype=float))[0]) * abs(val)
    partial = []
    running = 0.0
    for r, increment in enumerate(increments):
        running += increment
        partial.append([r, running, increment])
    return partial


def run_wiener(cfg: dict, out_dir=None, fmt: str = "csv") -> dict:
    """Invert a scalar symbol on the torus and report coefficient decay."""
    seq, grid, out_radius, weight = _wiener_inputs(cfg)
    out_path = _resolve_out_dir(cfg.get("output_dir"), out_dir)

    report: dict = {
        "format_version": FORMAT_VERSION,
        "kind": "wiener",
        "config": {
            "format_version": FORMAT_VERSION,
            "grid": grid,
            "out_radius": out_radius,
            "weight": weight.to_json(),
            **({"symbol": cfg["symbol"]} if "symbol" in cfg else {"seq": cfg["seq"]}),
        },
    }
    try:
        result = wiener_inverse(seq, grid, out_radius)
    except SymbolVanishes as exc:
        report.update(min_modulus=_json_float(exc.min_modulus), error=f"symbol_vanishes: {exc}")
        _write_json(out_path / "report.json", report)
        return report

    closed = _geometric_closed_form_error(seq, result.inverse)
    partial = _wiener_partial_sums(result.inverse, weight, out_radius)

    report["min_modulus"] = _json_float(result.min_modulus)
    report["residual"] = _json_float(result.residual)
    if closed is not None:
        report["closed_form_max_err"] = _json_float(closed)
    report.update(_totals(partial[-1][1], partial[-1][2]))

    inverse_json = result.inverse.to_json()
    if fmt == "csv":
        _write_json(out_path / "inverse.json", inverse_json)
        _write_csv(out_path / "partial_sums.csv", _PARTIAL_SUMS_HEADER, partial)
        report["inverse_json"] = "inverse.json"
        report["partial_sums_csv"] = "partial_sums.csv"
    else:
        report["inverse"] = inverse_json
        report["partial_sums"] = partial
    _write_json(out_path / "report.json", report)
    return report


# ----------------------------------------------------------------- kernel


def kernel_input(cfg: ExperimentConfig, trial: int) -> GridFunction:
    """The kernel run's grid function: cell k's q^c complex normals are the first
    2 q^c words of its lane, keyed by (seed, "grid", trial, *k)."""
    cells = lane_keys((cfg.seed, _GRID_DOMAIN, trial), window_array(cfg.window_radius, cfg.c))
    values = box_muller(lanes(cells, 2 * cfg.q ** cfg.c)).view(np.complex128)
    return GridFunction(cfg.c, cfg.window_radius, cfg.q, values)


def run_kernel(cfg: ExperimentConfig, out_dir=None, fmt: str = "csv") -> dict:
    """Blocking isometry + kernel consistency experiment."""
    if cfg.q ** cfg.c != cfg.local_dim:
        raise ConfigError(
            f"kernel experiments need d = q^c (got d={cfg.local_dim}, "
            f"q^c={cfg.q ** cfg.c})"
        )

    def one_trial(trial: int, out_path: Path) -> dict:
        op = generate_operator(cfg, trial)
        f = kernel_input(cfg, trial)
        kern = assemble_kernel(op, cfg.q)
        via_kernel = apply_kernel(kern, f)
        blocked = block(f)
        via_blocks = unblock(apply(op, blocked), cfg.q)
        scale = max(1e-300, float(np.abs(via_blocks.values).max(initial=0.0)))
        rel_err = float(np.abs(via_kernel.values - via_blocks.values).max(initial=0.0)) / scale
        isometry = {
            str(p): f.lp_norm(p) == blocked.norm(p, cell_weight=f.cell_volume_weight)
            for p in (1, 2, "inf")
        }
        rec = {
            "trial": trial,
            "kernel_rel_err": _json_float(rel_err),
            "isometry_exact": isometry,
            "round_trip_exact": bool(np.array_equal(unblock(blocked, cfg.q).values, f.values)),
        }
        if trial == 0 and fmt == "csv":
            center = np.flatnonzero(~kern.keys.any(axis=(1, 2)))  # the block at (0, 0)
            if center.size:  # a zero centre offset assembles no block
                name, blk = "kernel_block_trial_000.csv", kern.stack[center[0]].tolist()
                _write_csv(out_path / name, ["i", "j", "re", "im"], ([i, j, z.real, z.imag]
                           for i, row in enumerate(blk) for j, z in enumerate(row)))
                rec["kernel_block_csv"] = name
            rec["grid_file"] = "input_trial_000.grid"
            write_grid_function(f, out_path / rec["grid_file"])
        return rec

    return _run_trials("kernel", cfg, out_dir, one_trial)


# -------------------------------------------------------------------- gen


def _operator_fields(op: CDOperator) -> dict:
    """A gen record's fields of its operator; run_gen writes them, verify_report re-derives them."""
    return {"n_blocks": op.n_blocks, "envelope_l1": _json_float(fit_envelope(op, "nuclear").l1())}


def run_gen(cfg: ExperimentConfig, out_dir=None, fmt: str = "csv") -> dict:
    """Write the trial operators themselves (JSON) plus a manifest."""

    def one_trial(trial: int, out_path: Path) -> dict:
        op = generate_operator(cfg, trial)
        name = f"operator_trial_{trial:03d}.json"
        _write_json(out_path / name, op.to_json())
        return {"trial": trial, **_operator_fields(op), "operator_json": name}

    return _run_trials("gen", cfg, out_dir, one_trial)


# ---------------------------------------------------------------- verify


def _table_cell(cell, kind, text: bool):
    """One table cell as `kind` (int for an index, float for a value).

    A CSV cell (text) is parsed; an embedded cell must already be a JSON
    number (an int for an index, never a bool).  Anything else raises
    ValueError.
    """
    if text:
        return kind(cell)
    if isinstance(cell, bool) or not isinstance(cell, int if kind is int else (int, float)):
        raise ValueError(f"{cell!r} is not a JSON {kind.__name__}")
    return kind(cell)


def _named_file(out_dir: Path, name) -> Optional[Path]:
    """The file a report names in its directory; None for a non-string name or no file."""
    path = out_dir / name if isinstance(name, str) else None
    return path if path is not None and path.is_file() else None


def _read_table(out_dir: Path, csv_name, embedded, header: list, k: int,
                absent: str, row: str) -> tuple:
    """(rows, problems) of a report table: the CSV `csv_name`, or else the embedded rows.

    Its columns are `header`: k integer ones, then floats, every cell read
    through _table_cell.  Rows are (label, ints, *floats); a label names
    the row in messages ("{row} {i}" for an embedded row).  Problems are
    structural: `absent` (no table), a missing or unreadable CSV, a bad
    header, a row of the wrong length or with a cell that is no number.
    """
    if csv_name is None:
        if not isinstance(embedded, list):
            return [], [absent]
        labelled = [(f"{row} {i}", cells) for i, cells in enumerate(embedded)]
        text = False
    else:
        path = _named_file(out_dir, csv_name)
        if path is None:
            return [], [f"missing CSV {csv_name}"]
        try:
            lines = path.read_text().splitlines()
        except (OSError, ValueError) as exc:
            return [], [f"{csv_name}: unreadable: {exc}"]
        if not lines or lines[0] != ",".join(header):
            return [], [f"{csv_name}: bad header"]
        labelled = [(f"{csv_name}:{ln}", line.split(","))
                    for ln, line in enumerate(lines[1:], start=2)]
        text = True
    rows, problems = [], []
    for label, cells in labelled:
        if not isinstance(cells, list) or len(cells) != len(header):
            problems.append(f"{label}: wrong column count")
            continue
        try:
            ints = tuple(_table_cell(x, int, text) for x in cells[:k])
            rows.append((label, ints, *(_table_cell(x, float, text) for x in cells[k:])))
        except ValueError as exc:
            problems.append(f"{label}: bad cell: {exc}")
    return rows, problems


def _compare_rows(rows: list, want: list, header: list) -> list:
    """A problem for every cell of the read rows that differs from the re-derived ones."""
    return [f"{label}: {name} mismatch"
            for (label, ints, *floats), expected in zip(rows, want)
            for name, got, w in zip(header, (*ints, *floats), expected)
            if got != w]


def _verify_envelope_table(rows: list, rec: dict, cfg: ExperimentConfig) -> list:
    """Rebuild T1's envelope on |m| <= N from the (m, beta) columns; re-derive table and totals."""
    trial, c, radius = rec.get("trial"), cfg.c, cfg.window_radius
    if len(rows) != window_size(radius, c):
        return [f"trial {trial}: {len(rows)} envelope rows, want {window_size(radius, c)}"]
    values = np.zeros((2 * radius + 1,) * c)
    problems = []
    for label, m, beta, *_ in rows:
        if max(abs(x) for x in m) > radius:  # a negative index would wrap silently
            problems.append(f"{label}: offset {m} outside the band |m| <= {radius}")
        elif beta < 0:
            problems.append(f"{label}: negative beta")
        else:
            values[tuple(x + radius for x in m)] = beta
    if problems:
        return problems
    want = _envelope_table(Envelope(c, radius, values), cfg.weight)
    return _compare_rows(rows, want, _envelope_header(c)) + [
        f"trial {trial}: {key} does not match its envelope table"
        for key, value in _totals(want[-1][-1], want[-1][-2]).items() if rec.get(key) != value]


def _verify_wiener(report: dict, out_dir: Path) -> list:
    """Re-derive min_modulus, and whether an error belongs, from the echoed symbol and
    grid, and residual, closed_form_max_err and the partial sums from the stored inverse."""
    try:
        seq, grid, out_radius, weight = _wiener_inputs(report["config"])
    except ConfigError as exc:
        return [f"wiener config not reconstructible: {exc}"]
    mod = np.abs(symbol_on_grid(seq, grid))
    problems = ([] if report.get("min_modulus") == _json_float(mod.min())
                else ["min_modulus does not match the symbol"])
    if ("error" in report) != symbol_vanishes(mod):
        problems.append("error disagrees with whether the symbol vanishes")
    elif "error" in report:
        return problems
    try:
        if report.get("inverse_json") is not None:
            inverse = json.loads((out_dir / report["inverse_json"]).read_text())
        else:
            inverse = report["inverse"]
        inverse = FiniteSeq.from_json(inverse)
    except (OSError, AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return problems + [f"wiener inverse not reconstructible: {exc!r}"]
    closed = _geometric_closed_form_error(seq, inverse)
    derived = {"residual": _json_float((convolve(seq, inverse) - delta(seq.c)).l1_norm()),
               "closed_form_max_err": None if closed is None else _json_float(closed)}
    problems += [f"{key} does not match the stored inverse"
                 for key, value in derived.items() if report.get(key) != value]
    want = _wiener_partial_sums(inverse, weight, out_radius)
    rows, table_problems = _read_table(
        out_dir, report.get("partial_sums_csv"), report.get("partial_sums"),
        _PARTIAL_SUMS_HEADER, 1, "wiener report has no partial sums", "embedded partial sum")
    if not table_problems and len(rows) != len(want):
        table_problems = [f"{len(rows)} partial sum rows, want {len(want)}"]
    return problems + (table_problems or _compare_rows(rows, want, _PARTIAL_SUMS_HEADER) + [
        f"{key} does not match the partial sums"
        for key, value in _totals(want[-1][1], want[-1][2]).items() if report.get(key) != value])


def _read_back(records: list, cfg: ExperimentConfig, out_dir: Path, key: str, read=None,
               what: tuple = (), geometry: tuple = (), fields=None) -> list:
    """Problems of the file each record names under `key`.

    A file a record names must exist; with `fields`, every record must
    name one.  `read(path)` reads the file back as what[0] (say "a grid
    function"); its `geometry` config fields, by their JSON names, must
    equal the config's, and `fields(obj)` re-derives the record's fields.
    what[1] names the object in messages.
    """
    attrs = [_CONFIG_FIELDS[name] for name in geometry]
    want = [getattr(cfg, attr) for attr in attrs]
    problems = []
    for r in records:
        trial, path = r.get("trial"), _named_file(out_dir, r.get(key))
        if path is None and (key in r or fields is not None):
            problems.append(f"trial {trial}: missing {key} {r.get(key)!r}")
        if path is None or read is None:
            continue
        try:
            obj = read(path)
        except (OSError, AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            problems.append(f"{path.name}: not {what[0]}: {exc!r}")
            continue
        if [getattr(obj, attr) for attr in attrs] != want:
            problems.append(f"{path.name}: {what[1]} does not match the config's "
                            f"({', '.join(geometry)})")
        elif fields is not None:
            problems.extend(f"trial {trial}: {name} does not match its {what[1]} file"
                            for name, value in fields(obj).items() if r.get(name) != value)
    return problems


def verify_report(path) -> list:
    """Re-derive everything derivable in a report; list every mismatch."""
    path = Path(path)
    try:
        report = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"cannot load report: {exc}"]
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    if report.get("format_version") != FORMAT_VERSION:
        return [f"unsupported format_version {report.get('format_version')}"]
    kind = report.get("kind")
    records = report.get("records", [])
    aggregates = report.get("aggregates", {})
    cfg = report.get("config")
    if not (isinstance(records, list) and all(isinstance(r, dict) for r in records)):
        return ["records is not a list of objects"]
    if not isinstance(aggregates, dict) or not isinstance(cfg, dict):
        return ["aggregates or config is not an object"]

    problems = []
    if "records" in report:
        try:
            derived = _aggregates(kind, records)
        except (AttributeError, KeyError, TypeError) as exc:
            return [f"aggregates not derivable from the records: {exc!r}"]
        for key, value in derived.items():
            if aggregates.get(key) != value:
                problems.append(f"aggregate {key} does not match records")
    if kind == "wiener":
        return problems + _verify_wiener(report, path.parent)
    if kind not in ("inverse_closedness", "kernel", "gen"):
        return problems + [f"unknown report kind {kind!r}"]
    try:  # the parser of the command line, so the checks below see a valid config
        cfg = ExperimentConfig.from_json(cfg)
    except ConfigError as exc:
        return problems + [f"config not reconstructible: {exc}"]
    if kind == "inverse_closedness":
        header = _envelope_header(cfg.c)
        for r in (r for r in records if "error" not in r):
            trial = r.get("trial")
            if not r.get("envelope_dominates", False):
                problems.append(f"trial {trial}: envelope domination violated")
            rows, table_problems = _read_table(
                path.parent, r.get("envelope_csv"), r.get("envelope_rows"), header, cfg.c,
                f"trial {trial}: no envelope table", f"trial {trial}: embedded row")
            problems.extend(table_problems or _verify_envelope_table(rows, r, cfg))
    elif kind == "gen":
        problems.extend(_read_back(
            records, cfg, path.parent, "operator_json",
            lambda p: CDOperator.from_json(json.loads(p.read_text())), ("an operator", "operator"),
            ("c", "N", "W", "d", "boundary"), _operator_fields))
    else:
        problems.extend(_read_back(records, cfg, path.parent, "kernel_block_csv"))
        problems.extend(_read_back(records, cfg, path.parent, "grid_file", read_grid_function,
                                   ("a grid function", "grid"), ("c", "N", "q")))
    return problems
