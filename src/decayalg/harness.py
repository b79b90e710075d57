"""Batch experiment runner: random operators, inversion studies, reports.

Experiments are fully deterministic: every block of a trial's operator,
and every cell of a kernel run's grid, draws from its own xoshiro256**
lane keyed by (seed, domain, trial, cell[, offset]).  Trials may run in
parallel (capped by the DECAYALG_THREADS environment variable) but are
merged in trial order, and every output file is byte-stable: sorted keys,
repr'd floats, no timestamps.  Each file of invert, kernel and gen has one
renderer here, a function returning its content and the record fields read
off it; the runner writes that content, and verify_report calls the same
renderer on the evidence the report holds and compares text and fields
exactly.  A wiener report is re-run instead: verify_report calls the function
that makes its report and files on the echoed config and compares each one.
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

from .blocking_kernel import (GridFunction, apply_kernel, assemble_kernel, block, grid_bytes,
                              unblock)
from .cd_operator import (
    CDOperator,
    NumericallySingular,
    apply,
    decay_slope,
    factored_trace_norms,
    fit_envelope,
    geometry_plan,
    invert_one_plus,
)
from .lattice import as_number, only_keys, window_array, window_indices, window_size
from .rng import box_muller, lane_keys, lanes, uniforms
from .seq_algebra import FiniteSeq, SymbolVanishes, check_sizes, wiener_inverse
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

# each envelope profile kind and its parameter; every kind may also take an l1 target
_PROFILES = {"exponential": "rate", "polynomial": "power", "table": "values"}


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
    value = _parsed(key, lambda: as_number(prof.get(key, 0), float, key))
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{prof['kind']} profile needs a finite {key} > 0")
    return value


# config JSON name -> ExperimentConfig field; the defaults live on the dataclass
_CONFIG_FIELDS = {
    "seed": "seed", "c": "c", "N": "window_radius", "W": "band_radius",
    "d": "local_dim", "q": "q", "weight": "weight", "envelope_profile": "envelope_profile",
    "block_rank": "block_rank", "trials": "trials", "boundary": "boundary",
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

    def __post_init__(self):
        try:  # int() alone would run 7.9 as 7, True as 1 and "4" as 4
            for key in ("seed", "c", "N", "W", "d", "q", "block_rank", "trials"):
                name = _CONFIG_FIELDS[key]
                setattr(self, name, as_number(getattr(self, name), int, key))
        except ValueError as exc:
            raise ConfigError(f"non-integer field: {exc}") from exc
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
    if not isinstance(prof, dict) or prof.get("kind") not in list(_PROFILES):
        raise ConfigError(f"envelope_profile needs a 'kind' among {tuple(_PROFILES)}")
    kind, param = prof["kind"], _PROFILES[prof["kind"]]
    _parsed("envelope_profile", lambda: only_keys(prof, ("kind", param, "l1"), f"{kind} profile"))
    if kind == "table":
        values, want = prof.get("values"), window_size(cfg.band_radius, cfg.c)
        if not isinstance(values, (list, tuple)) or len(values) != want:
            raise ConfigError(f"table profile needs exactly {want} values")
        vals = _parsed("table value", lambda: np.array([as_number(v) for v in values]))
        if not (np.isfinite(vals).all() and (vals >= 0).all()):
            raise ConfigError("table values must be finite and nonnegative")
    else:  # exp or power of each offset's l1 size
        p = _positive(prof, param)
        sizes = np.abs(window_array(cfg.band_radius, cfg.c)).sum(axis=1)
        vals = np.exp(-p * sizes) if kind == "exponential" else (1.0 + sizes) ** -p
    if "l1" in prof:
        l1 = _positive(prof, "l1")
        if not vals.any():
            raise ConfigError("cannot rescale an all-zero envelope to an l1 target")
        with np.errstate(over="ignore", invalid="ignore"):
            vals = vals * (l1 / vals.sum())
        if not np.isfinite(vals).all():
            raise ConfigError(f"the profile rescaled to l1 {l1!r} is not finite")
    shape = (2 * cfg.band_radius + 1,) * cfg.c
    return vals.reshape(shape)


# words per chunk of blocks processed at once: bounds the temporaries of a trial
_CHUNK_WORDS = 1 << 14
# the domain part of a lane key: the operator's blocks and the kernel run's grid cells
_OPERATOR_DOMAIN = int.from_bytes(b"operator", "big")
_GRID_DOMAIN = int.from_bytes(b"grid", "big")


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
    block_rank outer-product passes and one batched `factored_trace_norms`
    per chunk.  The operator gets the geometry's shared plan unless it has no
    blocks or drops one, and keeps each block's nominal trace norm
    fl(beta_m r) for fit_envelope.
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
    tn, nominal = np.empty(n), np.empty(n)
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
        tn[part] = factored_trace_norms(g, xs, ys)
        nominal[part] = targets[part] * r
        scale = (nominal[part] / tn[part])[:, None, None]
        g *= scale
        np.multiply(ys, scale, out=a[part])
        y[part] = xs.transpose(0, 2, 1)
    kept = tn != 0.0
    if not (n and kept.all()):  # no blocks, or a measure-zero draw dropped one
        keys, stack, a, y, nominal, plan = (keys[kept], stack[kept], a[kept], y[kept],
                                            nominal[kept], None)
    return CDOperator.from_arrays(cfg.c, cfg.window_radius, cfg.band_radius, d,
                                  cfg.boundary, keys, stack, factors=(a, y), plan=plan,
                                  nominal_norms=nominal)


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


def _json_text(obj) -> str:
    """A JSON file: sorted keys, two-space indent, one trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(header: list, rows) -> str:
    """A CSV table: the header, then each row's values by repr (shortest round trip)."""
    return ",".join(header) + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


def _write(path: Path, content) -> None:
    """A renderer's content as the file at path: text (ASCII) or bytes."""
    path.write_bytes(content.encode("ascii") if isinstance(content, str) else content)


def _shells(radius: int, c: int) -> list:
    """The offsets |m| <= radius by shells of |m|, lexicographic within: a table's rows."""
    return sorted(window_indices(radius, c), key=lambda m: (max(abs(x) for x in m), m))


def _envelope_table(env: FiniteSeq, weight: Weight) -> list:
    """Rows [*m, beta_m, g(m), g(m) beta_m, running sum] in `_shells` order."""
    order = _shells(env.radius, env.c)
    gvals = weight.eval_many(np.array(order, dtype=float).reshape(len(order), env.c))
    rows, running = [], 0.0
    for m, g in zip(order, gvals):
        beta = env[m]
        weighted = float(g) * beta
        running += weighted
        rows.append([*m, beta, float(g), weighted, running])
    return rows


def _envelope_csv(env: FiniteSeq, weight: Weight) -> tuple:
    """An envelope table file, columns m_1..m_c, beta, weight, weighted_beta and cumsum,
    and its record's weighted_total, final_increment and slope."""
    header = [f"m_{i + 1}" for i in range(env.c)] + ["beta", "weight", "weighted_beta", "cumsum"]
    table = _envelope_table(env, weight)
    return _csv_text(header, table), {
        "weighted_total": _json_float(table[-1][-1]),
        "final_increment": _json_float(table[-1][-2]),
        "slope": _json_float(decay_slope(env))}


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
        out["all_isometries_exact"] = all(
            v is True for r in ok for v in r["isometry_exact"].values())
        out["all_round_trips_exact"] = all(r["round_trip_exact"] is True for r in ok)
    return out


# each kind's record fields: those every record has, and those only some have; a
# refused invert trial's record has exactly "trial" and "error" instead
_RECORD_FIELDS = {
    "inverse_closedness": (("trial", "envelope_l1", "invertibility_check", "envelope_dominates",
                            "residual", "condition", "sigma_min_lower", "weighted_total",
                            "final_increment", "slope", "envelope_csv"), ()),
    "kernel": (("trial", "kernel_rel_err", "isometry_exact", "round_trip_exact"),
               ("kernel_block_csv", "grid_file")),
    "gen": (("trial", "n_blocks", "envelope_l1", "operator_json"), ()),
}


def _field_problems(kind: str, rec: dict) -> list:
    """Each field of _RECORD_FIELDS that the record lacks and each it has beyond them;
    the runners and verify_report share it."""
    every, some = (("trial", "error"), ()) if kind == "inverse_closedness" and "error" in rec \
        else _RECORD_FIELDS[kind]
    prefix = f"trial {rec.get('trial')}: "
    return [f"{prefix}missing field {key}" for key in every if key not in rec] + \
        [f"{prefix}unknown field {key}" for key in sorted(rec.keys() - {*every, *some})]


def _resolve_out_dir(out_dir) -> Path:
    """The output directory (default "."), made if absent; ConfigError if it cannot be."""
    path = Path(out_dir if out_dir is not None else ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, say
        raise ConfigError(f"cannot make output directory {str(path)!r}: {exc}") from exc
    return path


def _run_trials(kind: str, cfg: ExperimentConfig, out_dir, run_trial) -> dict:
    """The trial loop of every runner: map the trials, write the report.

    run_trial(trial, out_path) runs one trial, writes its sidecars into
    out_path and returns its finished record.  Records are reported in
    trial order, whatever the worker count.
    """
    worker_count()  # a bad DECAYALG_THREADS is refused before the directory is made
    out_path = _resolve_out_dir(out_dir)
    records = _map_trials(lambda trial: run_trial(trial, out_path), cfg.trials)
    slips = [p for rec in records for p in _field_problems(kind, rec)]
    if slips:  # a runner that writes other fields than verify_report expects
        raise RuntimeError(f"records off _RECORD_FIELDS: {slips}")
    report = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "config": cfg.to_json(),
        "records": records,
        "aggregates": _aggregates(kind, records),
    }
    _write(out_path / "report.json", _json_text(report))
    return report


# ------------------------------------------------------ inverse closedness


def run_inverse_closedness(cfg: ExperimentConfig, out_dir=None) -> dict:
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
            res = invert_one_plus(generate_operator(cfg, trial))
        except NumericallySingular as exc:
            return {"trial": trial, "error": str(exc)}
        env_l1 = res.t_envelope.l1_norm()
        table, fields = _envelope_csv(res.envelope, cfg.weight)
        rec = {
            "trial": trial,
            "envelope_l1": _json_float(env_l1),
            "invertibility_check": "envelope_l1" if env_l1 < 1.0 else "residual",
            # the fitted beta_m is the max over cells, so this bounds every block
            "envelope_dominates": bool(
                (res.t_envelope.data <= beta * (1.0 + 1e-12) + 1e-15).all()),
            "residual": _json_float(res.residual),
            "condition": _json_float(res.condition),
            "sigma_min_lower": _json_float(res.sigma_min_lower),
            **fields,
            "envelope_csv": f"envelope_trial_{trial:03d}.csv",
        }
        _write(out_path / rec["envelope_csv"], table)
        return rec

    return _run_trials("inverse_closedness", cfg, out_dir, one_trial)


# ----------------------------------------------------------------- wiener


# a term starts at a sign that follows anything but "eE^+-*({"
_TERM_START = re.compile(r"(?<=[^eE^+\-*({])(?=[+-])")
# signs, then coefficient[*...]u[^{exponent}] (braces optional) or a bare coefficient
_TERM = re.compile(r"([+-]*)(?:([^u]*?)\**u(?:\^[{}]*(.*?)[{}]*)?|([^u]*))", re.DOTALL)


def _symbol_terms(text: str) -> dict:
    """{exponent: coefficient} of a one-variable symbol's text; see parse_symbol."""
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
    return entries


def parse_symbol(text: str) -> FiniteSeq:
    """Parse a one-variable symbol like "2+u", "3+u+u^{-1}", "1-0.5*u^2".

    Terms are [coefficient][*][u[^exponent]]; exponents may be braced.
    Only c=1 symbols are expressible; richer inputs go through JSON.
    """
    return FiniteSeq.from_entries(_symbol_terms(text), c=1)


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


_WIENER_FIELDS = ("symbol", "seq", "grid", "out_radius", "weight")


def _wiener_inputs(cfg: dict) -> tuple:
    """(seq, grid, out_radius, weight) of a wiener config, checked up front: the grid
    against the symbol's rank and radius before the symbol's window is built."""
    _config_object(cfg, _WIENER_FIELDS, ("grid", "out_radius"), "wiener config")
    if ("seq" in cfg) == ("symbol" in cfg):
        raise ConfigError("wiener config needs exactly one of 'symbol' and 'seq'")
    if "seq" in cfg:
        c, radius = _parsed("seq", lambda: [
            as_number(cfg["seq"][key], int, key) for key in ("c", "radius")])
    else:
        terms = _parsed("symbol", lambda: _symbol_terms(cfg["symbol"]))
        c, radius = 1, max(map(abs, terms))
    grid, out_radius = _parsed("grid or out_radius", lambda: [
        as_number(cfg[key], int, key) for key in ("grid", "out_radius")])
    _parsed("grid or out_radius", lambda: check_sizes(grid, radius, out_radius, c))
    seq = (_parsed("seq", lambda: FiniteSeq.from_json(cfg["seq"])) if "seq" in cfg
           else FiniteSeq.from_entries(terms, c=1))
    if not np.isfinite(seq.data).all():
        raise ConfigError("wiener coefficients must be finite")
    weight = _parsed("weight", lambda: Weight.from_json(cfg["weight"]) if "weight" in cfg
                     else Weight())
    return seq, grid, out_radius, weight


def _partial_sums_csv(inverse: FiniteSeq, weight: Weight, out_radius: int) -> tuple:
    """The partial sums file, rows (radius, partial_sum, increment) of the weighted
    |coefficient| mass shell by shell, and the report's weighted_total and final_increment."""
    increments = [0.0] * (out_radius + 1)
    for pos, val in sorted(inverse.support()):  # each shell adds in index order
        r = max(abs(x) for x in pos)
        if r <= out_radius:
            increments[r] += float(weight.eval_many(np.array([pos], dtype=float))[0]) * abs(val)
    partial, running = [], 0.0
    for r, increment in enumerate(increments):
        running += increment
        partial.append([r, running, increment])
    return _csv_text(["radius", "partial_sum", "increment"], partial), {
        "weighted_total": _json_float(running), "final_increment": _json_float(increments[-1])}


def _wiener_outputs(cfg: dict) -> tuple:
    """A wiener run's report and its other files {name: content}, from its config alone;
    run_wiener writes them and verify_report compares them."""
    seq, grid, out_radius, weight = _wiener_inputs(cfg)
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
        return report, {}
    closed = _geometric_closed_form_error(seq, result.inverse)
    partial, fields = _partial_sums_csv(result.inverse, weight, out_radius)
    report["min_modulus"] = _json_float(result.min_modulus)
    report["residual"] = _json_float(result.residual)
    if closed is not None:
        report["closed_form_max_err"] = _json_float(closed)
    report.update(fields, inverse_json="inverse.json", partial_sums_csv="partial_sums.csv")
    return report, {"inverse.json": _json_text(result.inverse.to_json()),
                    "partial_sums.csv": partial}


def run_wiener(cfg: dict, out_dir=None) -> dict:
    """Invert a scalar symbol on the torus and report coefficient decay."""
    report, files = _wiener_outputs(cfg)
    out_path = _resolve_out_dir(out_dir)
    for name, content in {**files, "report.json": _json_text(report)}.items():
        _write(out_path / name, content)
    return report


# ----------------------------------------------------------------- kernel


def kernel_input(cfg: ExperimentConfig, trial: int) -> GridFunction:
    """The kernel run's grid function: cell k's q^c complex normals are the first
    2 q^c words of its lane, keyed by (seed, "grid", trial, *k)."""
    cells = lane_keys((cfg.seed, _GRID_DOMAIN, trial), window_array(cfg.window_radius, cfg.c))
    values = box_muller(lanes(cells, 2 * cfg.q ** cfg.c)).view(np.complex128)
    return GridFunction(cfg.c, cfg.window_radius, cfg.q, values)


def _kernel_block_csv(blk: np.ndarray) -> str:
    """A kernel block file: rows (i, j, re, im) in raster order."""
    return _csv_text(["i", "j", "re", "im"], ([i, j, z.real, z.imag]
                     for i, row in enumerate(blk.tolist()) for j, z in enumerate(row)))


def run_kernel(cfg: ExperimentConfig, out_dir=None) -> dict:
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
        if trial == 0:
            mid = op.n_cells // 2  # the flat row of cell 0
            center = np.flatnonzero((kern.cells == mid) & (kern.sources == mid))
            if center.size:  # a zero centre offset assembles no block
                rec["kernel_block_csv"] = name = "kernel_block_trial_000.csv"
                _write(out_path / name, _kernel_block_csv(kern.stack[center[0]]))
            rec["grid_file"] = "input_trial_000.grid"
            _write(out_path / rec["grid_file"], grid_bytes(f))
        return rec

    return _run_trials("kernel", cfg, out_dir, one_trial)


# -------------------------------------------------------------------- gen


def _operator_json(op: CDOperator) -> tuple:
    """A gen operator file, and its record's n_blocks and envelope_l1."""
    return _json_text(op.to_json()), {
        "n_blocks": op.n_blocks, "envelope_l1": _json_float(fit_envelope(op, "nuclear").l1_norm())}


def run_gen(cfg: ExperimentConfig, out_dir=None) -> dict:
    """Write the trial operators themselves (JSON) plus a manifest."""

    def one_trial(trial: int, out_path: Path) -> dict:
        op = generate_operator(cfg, trial)
        name = f"operator_trial_{trial:03d}.json"
        text, fields = _operator_json(op)
        _write(out_path / name, text)
        return {"trial": trial, **fields, "operator_json": name}

    return _run_trials("gen", cfg, out_dir, one_trial)


# ---------------------------------------------------------------- verify


def _read(out_dir: Path, name, missing: str) -> tuple:
    """(content, problems) of the file a report names in its directory: the bytes of a grid
    file, the ASCII text of any other; without one, (None, [missing])."""
    if not (isinstance(name, str) and (out_dir / name).is_file()):
        return None, [missing]
    try:
        data = (out_dir / name).read_bytes()
        return (data if name.endswith(".grid") else data.decode("ascii")), []
    except (OSError, ValueError) as exc:
        return None, [f"{name}: unreadable: {exc}"]


def _cell(line: str, col: int) -> float:
    """Column `col` of a CSV line as a float; NaN if it holds none, so its re-rendering differs."""
    try:
        return float(line.split(",")[col])
    except (IndexError, ValueError):
        return math.nan


def _diff(name: str, got, want) -> list:
    """Where the file `name`, read as `got`, differs from its re-rendering `want`: for a
    CSV table by line and column, for any other file as a whole."""
    if got == want:
        return []
    problems = []
    if name.endswith(".csv") and isinstance(want, str):
        got_lines, want_lines = got.splitlines(), want.splitlines()
        header = want_lines[0].split(",")
        for ln, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
            g, w = g.split(","), w.split(",")
            problems += ([f"{name}:{ln}: wrong column count"] if len(g) != len(w) else
                         [f"{name}:{ln}: {col} mismatch"
                          for col, a, b in zip(header, g, w) if a != b])
        if len(got_lines) != len(want_lines):
            problems.append(f"{name}: {len(got_lines)} lines, want {len(want_lines)}")
    return problems or [f"{name}: differs from its re-derivation"]


def _check_file(out_dir: Path, rec: dict, key: str, rerender, what: str) -> list:
    """Problems of the file that the record `rec` names under `key`:
    missing or unreadable, refused by rerender (a ValueError naming why), or unlike
    rerender(content), its re-rendering from the evidence it holds, in its text or in
    the fields of `rec` read off it; `what` names the file in a field's problem."""
    prefix, name = (f"trial {rec['trial']}: " if "trial" in rec else ""), rec.get(key)
    got, problems = _read(out_dir, name, f"{prefix}missing {key} {name!r}")
    if got is None:
        return problems
    try:
        want, fields = rerender(got)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return [f"{name}: {exc}"]
    return _diff(name, got, want) + [f"{prefix}{field} does not match {what}"
                                     for field, value in fields.items() if rec.get(field) != value]


def _table_envelope(text: str, cfg: ExperimentConfig) -> FiniteSeq:
    """T1's envelope on |m| <= N from an envelope table's beta column, its rows in
    `_shells` order; ValueError for a table of another size or a negative beta."""
    c, radius = cfg.c, cfg.window_radius
    lines, size = text.splitlines()[1:], window_size(radius, c)
    if len(lines) != size:  # counted first: the window is built only for a table of its size
        raise ValueError(f"{len(lines)} envelope rows, want {size}")
    values = np.zeros((2 * radius + 1,) * c)
    for m, line in zip(_shells(radius, c), lines):
        values[tuple(x + radius for x in m)] = _cell(line, c)
    if (values < 0).any():
        raise ValueError("envelope values must be nonnegative")
    return FiniteSeq(c, radius, values)


def _verify_invert_record(out_dir: Path, rec: dict, cfg: ExperimentConfig) -> list:
    """Re-render the record's envelope table and the fields read off it, and re-derive its
    invertibility_check from its envelope_l1."""
    trial = rec.get("trial")
    problems = ([] if rec.get("envelope_dominates") is True
                else [f"trial {trial}: envelope domination violated"])
    if rec.get("envelope_csv") is None:
        return problems + [f"trial {trial}: no envelope table"]
    problems += _check_file(out_dir, rec, "envelope_csv", lambda text: _envelope_csv(
        _table_envelope(text, cfg), cfg.weight), "its envelope table")
    l1 = rec.get("envelope_l1")  # the runner writes a float, or null for a non-finite sum
    if rec.get("invertibility_check") != (
            "envelope_l1" if isinstance(l1, float) and l1 < 1.0 else "residual"):
        problems.append(f"trial {trial}: invertibility_check does not match its envelope_l1")
    return problems


def _verify_wiener(report: dict, out_dir: Path) -> list:
    """Re-run the echoed config; compare each report field and each file with the re-run's."""
    try:
        want, files = _wiener_outputs(report.get("config"))
    except ConfigError as exc:
        return [f"wiener config not reconstructible: {exc}"]
    # each field as JSON text, so 1 is no 1.0 or true; a field on one side only reads None
    got, ran = ({key: _json_text(value) for key, value in rep.items()} for rep in (report, want))
    problems = [f"{key} does not match a re-run"
                for key in sorted(got.keys() | ran.keys()) if got.get(key) != ran.get(key)]
    for name, content in files.items():
        text, missing = _read(out_dir, name, f"missing {name!r}")
        problems += missing or _diff(name, text, content)
    return problems


def _file_operator(text: str, cfg: ExperimentConfig) -> CDOperator:
    """The operator of a gen operator file; ValueError unless it is one of the config's
    geometry."""
    try:
        op = CDOperator.from_json(json.loads(text))
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"not an operator: {exc!r}") from exc
    geometry = ("c", "window_radius", "band_radius", "local_dim", "boundary")
    if [getattr(op, key) for key in geometry] != [getattr(cfg, key) for key in geometry]:
        raise ValueError("operator does not match the config's (c, N, W, d, boundary)")
    return op


def _file_block(text: str, d: int) -> np.ndarray:
    """A kernel block file's d x d block, read off its own re, im columns in raster order."""
    lines = text.splitlines()[1:]
    if len(lines) != d * d:  # counted first: a block is built only from a table of its size
        raise ValueError(f"{len(lines)} block rows, want {d * d}")
    return np.reshape([complex(_cell(line, 2), _cell(line, 3)) for line in lines], (d, d))


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
    if kind == "wiener":
        return _verify_wiener(report, path.parent)
    if kind not in ("inverse_closedness", "kernel", "gen"):
        return [f"unknown report kind {kind!r}"]
    records, aggregates = report.get("records"), report.get("aggregates")
    if not (isinstance(records, list) and all(isinstance(r, dict) for r in records)):
        return ["records is not a list of objects"]
    if not isinstance(aggregates, dict):
        return ["aggregates is not an object"]
    problems = [p for rec in records for p in _field_problems(kind, rec)]
    try:
        derived = _aggregates(kind, records)
    except (AttributeError, KeyError, TypeError) as exc:
        return problems + [f"aggregates not derivable from the records: {exc!r}"]
    problems += [f"aggregate {key} does not match records"
                 for key, value in derived.items() if aggregates.get(key) != value]
    try:  # the parser of the command line, so the checks below see a valid config
        cfg = ExperimentConfig.from_json(report.get("config"))
    except ConfigError as exc:
        return problems + [f"config not reconstructible: {exc}"]
    trials = [r.get("trial") for r in records]  # compared as JSON text: true or 1.0 is no 1
    if len(trials) != cfg.trials or json.dumps(trials) != json.dumps(list(range(cfg.trials))):
        problems.append(f"records are not trials 0 to {cfg.trials - 1} in order")
    if kind == "inverse_closedness":
        for r in (r for r in records if "error" not in r):
            problems.extend(_verify_invert_record(path.parent, r, cfg))
    elif kind == "gen":  # a gen file's values are checked through n_blocks and envelope_l1
        for r in records:
            problems += _check_file(path.parent, r, "operator_json", lambda text: _operator_json(
                _file_operator(text, cfg)), "its operator file")
    else:  # the grid file re-derived from the lanes; the kernel block's values not recomputed
        if records and "grid_file" not in records[0]:  # trial 0 always writes one
            problems.append("trial 0: names no grid_file")
        payload = window_size(cfg.window_radius, cfg.c) * cfg.q ** cfg.c * 16  # bytes
        for trial, r in enumerate(records):
            if "grid_file" in r:  # built only for a file that can hold its payload
                problems += _check_file(path.parent, r, "grid_file", lambda got: (grid_bytes(
                    kernel_input(cfg, trial)) if len(got) > payload else None, {}), "its grid file")
            if "kernel_block_csv" in r:
                problems += _check_file(path.parent, r, "kernel_block_csv", lambda text: (
                    _kernel_block_csv(_file_block(text, cfg.local_dim)), {}), "its block")
    return problems
