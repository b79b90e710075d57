"""Tests for experiment configs, operator generation, runners, verification."""

import json
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decayalg import harness
from decayalg.blocking_kernel import GridFunction, assemble_kernel, grid_bytes
from decayalg.cd_operator import (
    Envelope,
    Plan,
    ShapeMismatch,
    densify,
    factored_trace_norms,
    fit_envelope,
    geometry_plan,
)
from decayalg.harness import (
    FORMAT_VERSION,
    ConfigError,
    ExperimentConfig,
    envelope_values,
    generate_operator,
    kernel_input,
    parse_symbol,
    run_gen,
    run_inverse_closedness,
    run_kernel,
    run_wiener,
    verify_report,
    worker_count,
)
from decayalg.cd_operator import CDOperator, NumericallySingular, decay_slope, invert_one_plus
from decayalg.lattice import window_array, window_indices
from decayalg.nuclear_blocks import trace_norm
from decayalg.rng import Xoshiro256StarStar, lane_key
from decayalg.seq_algebra import SymbolVanishes, symbol_on_grid, symbol_vanishes, wiener_inverse
from decayalg.weights import Weight


def small_config(**overrides):
    base = dict(
        seed=11,
        c=1,
        window_radius=3,
        band_radius=1,
        local_dim=2,
        q=2,
        weight=Weight(s=1.0),
        envelope_profile={"kind": "exponential", "rate": 1.0, "l1": 0.5},
        block_rank=2,
        trials=2,
        boundary="circulant",
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- config


def test_config_round_trip():
    cfg = small_config()
    obj = json.loads(json.dumps(cfg.to_json()))
    back = ExperimentConfig.from_json(obj)
    assert back == cfg
    assert obj["format_version"] == FORMAT_VERSION


@pytest.mark.parametrize("patch", [
    {"block_rank": 3},                      # rank > d
    {"trials": 0},
    {"boundary": "absorbing"},
    {"seed": -1},
    {"envelope_profile": {"kind": "exponential", "rate": 0.0}},
    {"envelope_profile": {"kind": "polynomial"}},
    {"envelope_profile": {"kind": "mystery"}},
    {"envelope_profile": {"kind": "table", "values": [1.0]}},
    {"envelope_profile": {"kind": "table", "values": [1.0, -1.0, 1.0]}},
    {"envelope_profile": {"kind": "exponential", "rate": 1.0, "l1": 0.0}},
    {"seed": 7.9},                          # int() would alias it to seed 7
    {"trials": 2.5},
    {"trials": True},
    {"N": "4"},
    {"d": np.bool_(True)},
    {"block_rank": float("nan")},
    # keys a nested object would leave unread: the run would ignore them
    {"weight": {"a": 0.5, "bb": 0.5}},      # would run with b = 0
    {"weight": {"s": 1.0, "t ": 0.5}},
    {"envelope_profile": {"kind": "exponential", "rate": 1, "l1": 0.5, "power": 7,
                          "values": [1]}},
    {"envelope_profile": {"kind": "table", "values": [0.1, 0.2, 0.1], "rate": 1}},
])
def test_config_rejects_bad_values(patch):
    """Through the parser of the command line, which every config goes through."""
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({**small_config().to_json(), **patch})


def test_config_accepts_python_and_numpy_integers():
    cfg = small_config(seed=np.uint64(2**64 - 1), trials=np.int8(3), window_radius=4.0)
    assert (cfg.seed, cfg.trials, cfg.window_radius) == (2**64 - 1, 3, 4)
    assert all(type(v) is int for v in (cfg.seed, cfg.trials, cfg.window_radius))


def test_config_from_json_rejects_junk():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"seed": 1, "bogus": True})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"seed": 1, "format_version": 99})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json([1, 2])


def test_envelope_values_profiles():
    cfg = small_config(envelope_profile={"kind": "exponential", "rate": 1.0, "l1": 0.5})
    vals = envelope_values(cfg)
    assert vals.shape == (3,)
    assert vals.sum() == pytest.approx(0.5)
    assert vals[0] == vals[2]  # symmetric in |m|
    cfg2 = small_config(envelope_profile={"kind": "polynomial", "power": 2.0})
    vals2 = envelope_values(cfg2)
    np.testing.assert_allclose(vals2, [0.25, 1.0, 0.25])
    cfg3 = small_config(envelope_profile={"kind": "table", "values": [0.1, 0.2, 0.3]})
    np.testing.assert_allclose(envelope_values(cfg3), [0.1, 0.2, 0.3])


# ------------------------------------------------------------- generation


def test_generate_operator_deterministic():
    cfg = small_config()
    a = generate_operator(cfg, 0)
    b = generate_operator(cfg, 0)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)
    c = generate_operator(cfg, 1)
    assert json.dumps(a.to_json(), sort_keys=True) != json.dumps(c.to_json(), sort_keys=True)


def test_generate_operator_respects_envelope():
    # exhaustive post-check: every block's trace norm is within [0.5, 1] x beta_m
    cfg = small_config(window_radius=4, local_dim=3, block_rank=3)
    beta = envelope_values(cfg)
    op = generate_operator(cfg, 5)
    assert op.blocks, "expected nonempty operator"
    for (k, m), blk in op.blocks.items():
        bound = beta[m[0] + cfg.band_radius]
        tn = trace_norm(blk)
        assert tn <= bound * (1 + 1e-12)
        assert tn >= 0.5 * bound * (1 - 1e-12)
    fitted = fit_envelope(op, "nuclear")
    for m in ((-1,), (0,), (1,)):
        assert fitted.beta(m) <= beta[m[0] + 1] * (1 + 1e-12)


def test_generate_operator_factorizations_assemble():
    cfg = small_config(block_rank=1)
    op = generate_operator(cfg, 2)
    a, y = op.factors
    assert a.shape == y.shape == (op.n_blocks, 1, cfg.local_dim)
    for i, blk in enumerate(op.stack):
        np.testing.assert_allclose(np.outer(y[i, 0], a[i, 0]), blk, rtol=1e-12, atol=1e-14)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 8), rank=st.integers(1, 2), seed=st.integers(0, 2**32),
       parallel=st.booleans(), scales=st.tuples(st.floats(-3, 3), st.floats(-3, 3)))
def test_trace_norms_closed_form_matches_svd(d, rank, seed, parallel, scales):
    rank = min(rank, d)
    gen = np.random.default_rng(seed)
    xs = gen.standard_normal((16, d, rank)) + 1j * gen.standard_normal((16, d, rank))
    ys = gen.standard_normal((16, rank, d)) + 1j * gen.standard_normal((16, rank, d))
    if parallel and rank == 2:  # nearly rank one: ad - bc would cancel to noise
        xs[:, :, 1] = (0.3 - 0.7j) * xs[:, :, 0] + 1e-8 * xs[:, :, 1]
        ys[:, 1] = (1.1 + 0.2j) * ys[:, 0] + 1e-8 * ys[:, 1]
    xs *= 10.0 ** scales[0]
    ys *= 10.0 ** scales[1]
    g = xs @ ys
    want = np.linalg.svd(g, compute_uv=False).sum(axis=-1)
    np.testing.assert_allclose(factored_trace_norms(g, xs, ys), want, rtol=4e-15, atol=0)


def reference_operator(cfg, trial):
    """Block-by-block generation from the scalar draws: the spec of the bulk path.

    Each block reads the scalar generator opened at its own lane key.  The
    trace norm comes from `factored_trace_norms` on a one-block stack, which
    `test_trace_norms_closed_form_matches_svd` checks against LAPACK.
    """
    beta = envelope_values(cfg)
    d, rank = cfg.local_dim, cfg.block_rank

    def draw(rng, rows, cols):
        out = np.empty((rows, cols), dtype=np.complex128)
        for i in range(rows):
            for j in range(cols):
                out[i, j] = rng.complex_normal()
        return out

    blocks, terms = {}, {}
    for k in window_indices(cfg.window_radius, cfg.c):
        for m in window_indices(cfg.band_radius, cfg.c):
            target = float(beta[tuple(x + cfg.band_radius for x in m)])
            if target == 0.0:
                continue
            rng = Xoshiro256StarStar(lane_key(cfg.seed, harness._OPERATOR_DOMAIN, trial, *k, *m))
            r_km = rng.uniform_in(0.5, 1.0)
            x = draw(rng, d, rank)
            y = draw(rng, rank, d)
            g = x[:, 0, None] * y[0]  # the outer products of the terms, summed in term order
            for j in range(1, rank):
                g = g + x[:, j, None] * y[j]
            scale = target * r_km / factored_trace_norms(g[None], x[None], y[None])[0]
            blocks[(k, m)] = g * scale
            terms[(k, m)] = [(scale * y[i, :], x[:, i].copy()) for i in range(rank)]
    return blocks, terms


GENERATION_CASES = {
    "rank-1": dict(block_rank=1),
    "d8-rank3": dict(local_dim=8, block_rank=3),
    "c2-polynomial": dict(c=2, window_radius=2, envelope_profile={"kind": "polynomial",
                                                                  "power": 2.0}),
    "table-with-zeros": dict(local_dim=3, block_rank=1,
                             envelope_profile={"kind": "table", "values": [0.2, 0.0, 0.4]}),
    # 729 blocks of 97 words: the trial spans several draw chunks
    "several-chunks": dict(window_radius=40, band_radius=4, local_dim=8, block_rank=3),
}


@pytest.mark.parametrize("case", sorted(GENERATION_CASES))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32), trial=st.integers(0, 50))
def test_generate_operator_equals_block_by_block_reference(case, seed, trial):
    cfg = small_config(seed=seed, **GENERATION_CASES[case])
    op = generate_operator(cfg, trial)
    blocks, terms = reference_operator(cfg, trial)
    assert list(op.blocks) == list(blocks)
    a, y = op.factors
    for i, (key, want) in enumerate(blocks.items()):
        assert op.blocks[key].tobytes() == want.tobytes()
        assert a.shape[1] == len(terms[key])
        for (u, v), (u_ref, v_ref) in zip(zip(a[i], y[i]), terms[key]):
            assert u.tobytes() == u_ref.tobytes()
            assert v.tobytes() == v_ref.tobytes()


@pytest.mark.parametrize("c", [1, 2])
def test_a_block_is_the_same_in_every_window_that_holds_it(c):
    small, large = (generate_operator(small_config(c=c, window_radius=n), 1) for n in (3, 5))
    index = {key: j for j, key in enumerate(large.blocks)}
    assert set(small.blocks) < set(index)
    a, y = small.factors
    for i, key in enumerate(small.blocks):
        j = index[key]
        assert small.blocks[key].tobytes() == large.blocks[key].tobytes()
        assert a[i].tobytes() == large.factors[0][j].tobytes()
        assert y[i].tobytes() == large.factors[1][j].tobytes()


def test_seed_plus_golden_at_the_trial_before_draws_another_operator():
    # format version 2 opened the stream at seed + trial * G, so these two were one operator
    seed, trial, gold = 11, 3, 0x9E3779B97F4A7C15
    op = generate_operator(small_config(seed=seed), trial)
    other = generate_operator(small_config(seed=seed + gold), trial - 1)
    assert list(op.blocks) == list(other.blocks)
    assert not any(np.array_equal(op.blocks[k], other.blocks[k]) for k in op.blocks)


def test_kernel_input_cells_are_lane_words():
    cfg = small_config(c=2, window_radius=2, local_dim=4, q=2)
    f = kernel_input(cfg, 4)
    assert f.values.shape == (25, 4)
    for k, values in zip(window_indices(2, 2), f.values):
        rng = Xoshiro256StarStar(lane_key(cfg.seed, harness._GRID_DOMAIN, 4, *k))
        want = np.array([rng.complex_normal() for _ in range(4)])
        assert values.tobytes() == want.tobytes()


def test_the_grid_is_no_operator_lane():
    # format version 2 drew the grid of seed s from the operator stream of seed s ^ 0x6B65726E;
    # now grid cells and blocks fold different domains into their keys
    cfg = small_config(c=2, window_radius=2, local_dim=4, q=2)
    grid = {lane_key(cfg.seed, harness._GRID_DOMAIN, t, *k)
            for t in range(3) for k in window_indices(2, 2)}
    for seed in (cfg.seed, cfg.seed ^ 0x6B65726E, *range(64)):
        blocks = {lane_key(seed, harness._OPERATOR_DOMAIN, t, *k, *m)
                  for t in range(3) for k in window_indices(2, 2) for m in window_indices(1, 2)}
        assert not grid & blocks


def test_generate_operator_zero_table():
    cfg = small_config(envelope_profile={"kind": "table", "values": [0.0, 0.0, 0.0]})
    op = generate_operator(cfg, 0)
    assert op.blocks == {}



# ---------------------------------------------------------- geometry plans


def test_trials_of_one_config_share_one_read_only_plan():
    cfg = small_config()
    first, second = generate_operator(cfg, 0), generate_operator(cfg, 1)
    plan = first.plan
    assert isinstance(plan, Plan) and second.plan is plan
    assert generate_operator(small_config(seed=99), 0).plan is plan  # the seed is no part of it
    assert plan is geometry_plan(1, 3, 1, "circulant", (0, 1, 2))
    assert first.keys is plan.keys
    kern = assemble_kernel(first, cfg.q)
    assert kern.keys is plan.pairs[2]
    assert assemble_kernel(second, cfg.q).keys is kern.keys
    for part in (plan.keys, *plan.route, *plan.pairs):
        assert not part.flags.writeable
    with pytest.raises(ValueError):
        plan.keys[0, 0, 0] = 1
    with pytest.raises(AttributeError):
        plan.window_radius = 4


PLAN_CASES = {
    "c1": {},
    "dirichlet": dict(boundary="dirichlet"),
    "band-wider-than-window": dict(window_radius=1, band_radius=3),
    "c2-table-with-zeros": dict(c=2, window_radius=2, envelope_profile={
        "kind": "table", "values": [0.0, 0.1, 0.0, 0.2, 0.0, 0.3, 0.0, 0.1, 0.2]}),
    "c3-dirichlet": dict(c=3, window_radius=1, boundary="dirichlet"),
}


def same_arrays(got, want) -> bool:
    return all(g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
               for g, w in zip(got, want, strict=True))


def assert_plan_of_a_copied_table(op):
    """op's plan is over its own key array, and its route and pairs equal, bit for bit,
    those of a plan over a copy of that array; every array is read-only."""
    fresh = Plan(op.keys.copy(), op.window_radius, op.band_radius, op.boundary)
    assert op.plan.keys is op.keys
    assert same_arrays(op.plan.route, fresh.route)
    assert same_arrays(op.plan.pairs, fresh.pairs)
    for part in (op.plan.keys, *op.plan.route, *op.plan.pairs, *fresh.route, *fresh.pairs):
        assert not part.flags.writeable


@pytest.mark.parametrize("case", sorted(PLAN_CASES))
def test_plan_route_equals_a_fresh_route(case):
    cfg = small_config(**PLAN_CASES[case])
    op = generate_operator(cfg, 3)
    assert generate_operator(cfg, 4).plan is op.plan
    assert_plan_of_a_copied_table(op)
    copy = CDOperator.from_arrays(op.c, op.window_radius, op.band_radius, op.local_dim,
                                  op.boundary, op.keys.copy(), op.stack.copy())
    assert copy.plan is not op.plan
    assert copy.plan.route is copy.plan.route  # computed once, kept on the operator's own plan
    assert_plan_of_a_copied_table(copy)


def test_a_dropped_block_gives_the_operator_its_own_plan(monkeypatch):
    calls = []

    def one_zero(g, xs, ys):
        tn = factored_trace_norms(g, xs, ys)
        if not calls:
            tn[1] = 0.0
        calls.append(len(tn))
        return tn

    cfg = small_config()
    full = generate_operator(cfg, 4)
    monkeypatch.setattr(harness, "factored_trace_norms", one_zero)
    with np.errstate(divide="ignore", invalid="ignore"):
        op = generate_operator(cfg, 4)
    assert op.n_blocks == full.n_blocks - 1 and op.plan is not full.plan
    assert op.keys.tobytes() == np.delete(full.keys, 1, axis=0).tobytes()
    assert_plan_of_a_copied_table(op)
    assert not same_arrays(op.plan.route, full.plan.route)


def test_a_dict_built_operator_has_its_own_plan():
    full = generate_operator(small_config(), 0)
    op = CDOperator(1, 3, 1, full.local_dim, "circulant", dict(full.blocks))
    assert op.plan is not full.plan
    assert_plan_of_a_copied_table(op)
    assert same_arrays(op.plan.route, full.plan.route)
    assert same_arrays(op.plan.pairs, full.plan.pairs)


def test_an_all_zero_table_computes_its_own_empty_route():
    cfg = small_config(envelope_profile={"kind": "table", "values": [0.0, 0.0, 0.0]})
    op = generate_operator(cfg, 0)
    assert op.plan is not generate_operator(cfg, 1).plan
    assert_plan_of_a_copied_table(op)
    assert [len(part) for part in (*op.plan.route, *op.plan.pairs)] == [0] * 6


def test_from_arrays_takes_only_a_plan_over_its_own_key_array():
    op = generate_operator(small_config(), 0)
    geometry = [op.c, op.window_radius, op.band_radius, op.local_dim, op.boundary]
    shared = CDOperator.from_arrays(*geometry, op.keys, op.stack.copy(), plan=op.plan)
    assert shared.plan is op.plan
    with pytest.raises(ShapeMismatch, match="another key table"):
        CDOperator.from_arrays(*geometry, op.keys.copy(), op.stack, plan=op.plan)
    for at, other in ((2, op.band_radius + 1), (4, "dirichlet")):  # the same array, elsewhere
        with pytest.raises(ShapeMismatch, match="another key table"):
            CDOperator.from_arrays(*geometry[:at], other, *geometry[at + 1:], op.keys,
                                   op.stack, plan=op.plan)


# ------------------------------------------------------ loops made arrays


def envelope_values_by_loop(cfg):
    """The profile's values as envelope_values computed them with one Python loop."""
    prof = cfg.envelope_profile
    p = prof["rate" if prof["kind"] == "exponential" else "power"]
    sizes = [sum(abs(x) for x in m) for m in window_indices(cfg.band_radius, cfg.c)]
    vals = np.array([np.exp(-p * n) for n in sizes] if prof["kind"] == "exponential"
                    else [(1.0 + n) ** -p for n in sizes])
    if "l1" in prof:
        vals = vals * (prof["l1"] / vals.sum())
    return vals.reshape((2 * cfg.band_radius + 1,) * cfg.c)


def decay_slope_by_loop(env, floor=1e-14):
    xs, ys = [], []
    for m in window_indices(env.radius, env.c):
        b = env.beta(m)
        if b > floor:
            xs.append(max(abs(x) for x in m))
            ys.append(np.log(b))
    if len(xs) < 2:
        return float("nan")
    slope, _ = np.polyfit(np.array(xs, dtype=float), np.array(ys), 1)
    return float(slope)


@pytest.mark.parametrize("c, radius", [(1, 0), (1, 7), (2, 3), (3, 2)])
@pytest.mark.parametrize("profile", [
    {"kind": "exponential", "rate": 0.7},
    {"kind": "exponential", "rate": 1.3, "l1": 0.5},
    {"kind": "polynomial", "power": 1.7},
    {"kind": "polynomial", "power": 2.5, "l1": 0.9},
])
def test_envelope_values_equal_the_loop_bitwise(c, radius, profile):
    cfg = small_config(c=c, band_radius=radius, envelope_profile=profile)
    assert envelope_values(cfg).tobytes() == envelope_values_by_loop(cfg).tobytes()


@pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
@settings(max_examples=40, deadline=None)
@given(c=st.integers(1, 3), radius=st.integers(0, 4), seed=st.integers(0, 2**32),
       zero_frac=st.floats(0.0, 0.9))
def test_decay_slope_equals_the_loop_bitwise(c, radius, seed, zero_frac):
    gen = np.random.default_rng(seed)
    values = np.exp(-gen.uniform(0, 30, (2 * radius + 1,) * c))
    values[gen.uniform(size=values.shape) < zero_frac] = 0.0
    values.flat[::3] *= 1e-16  # some entries under the floor
    env = Envelope(c, radius, values)
    got, want = decay_slope(env), decay_slope_by_loop(env)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_decay_slope_of_fitted_envelopes_equals_the_loop_bitwise():
    for trial in range(3):
        env = invert_one_plus(generate_operator(small_config(window_radius=5), trial)).envelope
        assert np.float64(decay_slope(env)).tobytes() == \
            np.float64(decay_slope_by_loop(env)).tobytes()


# ----------------------------------------------------------- invert runner


def test_run_inverse_closedness_report(tmp_path):
    cfg = small_config(trials=3)
    report = run_inverse_closedness(cfg, out_dir=tmp_path)
    assert report["kind"] == "inverse_closedness"
    assert len(report["records"]) == 3
    for i, rec in enumerate(report["records"]):
        assert rec["trial"] == i
        assert rec["residual"] <= 1e-10
        assert rec["envelope_dominates"] is True
        assert rec["invertibility_check"] == "envelope_l1"
        assert (tmp_path / rec["envelope_csv"]).exists()
    assert report["aggregates"]["trials_failed"] == 0
    assert (tmp_path / "report.json").exists()
    assert verify_report(tmp_path / "report.json") == []


@pytest.mark.filterwarnings("ignore:Polyfit may be poorly conditioned")
@settings(max_examples=30, deadline=None)
@given(c=st.integers(1, 2), seed=st.integers(0, 2**32), l1=st.floats(0.2, 4.0),
       window=st.integers(1, 5), band=st.integers(0, 2), d=st.integers(1, 3),
       rank=st.integers(1, 3))
def test_every_certificate_bounds_its_exact_value(c, seed, l1, window, band, d, rank):
    # against test-side SVDs; the residual up to the SVD's own rounding
    if c == 2:
        window, d = min(window, 2), min(d, 2)
    cfg = small_config(c=c, seed=seed, window_radius=window, band_radius=band, local_dim=d,
                       block_rank=min(rank, d),
                       envelope_profile={"kind": "exponential", "rate": 1.0, "l1": l1})
    op = generate_operator(cfg, 0)
    try:
        res = invert_one_plus(op)
    except NumericallySingular:
        return
    a = np.eye(len(densify(op))) + densify(op)
    s = np.linalg.svd(a, compute_uv=False)
    r = a @ np.linalg.inv(a) - np.eye(len(a))
    assert res.residual >= np.linalg.svd(r, compute_uv=False)[0] * (1 - 1e-12)
    assert res.condition >= np.linalg.cond(a)
    assert 0 < res.sigma_min_lower <= s[-1]


def test_trials_past_the_neumann_series_are_certified(tmp_path):
    # envelope l1 3: the spectral radius of T passes 1, where the Neumann series
    # diverges, yet 1 + T is invertible and its own solve certifies it
    cfg = ExperimentConfig.from_json({
        "seed": 7, "c": 1, "N": 16, "W": 4, "d": 4, "block_rank": 1, "trials": 2,
        "envelope_profile": {"kind": "exponential", "rate": 1.0, "l1": 3.0}})
    report = run_inverse_closedness(cfg, out_dir=tmp_path)
    radii = [np.abs(np.linalg.eigvals(densify(generate_operator(cfg, t)))).max()
             for t in range(cfg.trials)]
    accepted = [rec for rec in report["records"] if "error" not in rec]
    assert all(rec["invertibility_check"] == "residual" for rec in accepted)
    assert any(radii[rec["trial"]] >= 1.0 for rec in accepted)
    assert verify_report(tmp_path / "report.json") == []


def test_run_inverse_closedness_zero_envelope(tmp_path):
    # a zero operator inverts to zero; the slope is not applicable
    cfg = small_config(envelope_profile={"kind": "table", "values": [0.0, 0.0, 0.0]})
    report = run_inverse_closedness(cfg, out_dir=tmp_path)
    for rec in report["records"]:
        assert rec["residual"] == 0.0
        assert rec["slope"] is None
        assert rec["weighted_total"] == 0.0
    assert report["aggregates"]["median_slope"] is None
    assert verify_report(tmp_path / "report.json") == []


def test_run_inverse_closedness_deterministic(tmp_path):
    cfg = small_config(trials=2)
    run_inverse_closedness(cfg, out_dir=tmp_path / "a")
    run_inverse_closedness(cfg, out_dir=tmp_path / "b")
    for name in ("report.json", "envelope_trial_000.csv", "envelope_trial_001.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("threads, trials", [
    ("1", 4), ("2", 4), ("2", 2), ("2", 3), ("4", 4), ("2", 5)])
def test_every_trial_is_one_pool_task(tmp_path, monkeypatch, threads, trials):
    mapped = []
    map_trials = harness._map_trials
    monkeypatch.setattr(harness, "_map_trials",
                        lambda fn, n: mapped.append(n) or map_trials(fn, n))
    monkeypatch.setenv("DECAYALG_THREADS", threads)
    cfg = small_config(window_radius=16, local_dim=4, trials=trials)
    run_inverse_closedness(cfg, out_dir=tmp_path)
    assert mapped == [trials]


@pytest.mark.parametrize("runner", [run_inverse_closedness, run_kernel, run_gen],
                         ids=["invert", "kernel", "gen"])
def test_run_inverse_closedness_parallel_matches_serial(runner, tmp_path, monkeypatch):
    # every run, at any worker count, must equal the serial one
    geometries = [{}]
    if runner is run_inverse_closedness:
        geometries = [dict(window_radius=31, local_dim=4), dict(window_radius=15, local_dim=4)]

    def run(cfg, threads, out):
        geometry_plan.cache_clear()  # each run builds the geometry plan afresh
        monkeypatch.setenv("DECAYALG_THREADS", threads)
        assert worker_count() == int(threads)
        return (runner(cfg, out_dir=out)["records"],
                {p.name: p.read_bytes() for p in sorted(out.iterdir())})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave often while they build the plan
    try:
        for geometry in geometries:
            for trials in (1, 2, 3, 5):
                cfg = small_config(trials=trials, **geometry)
                base = tmp_path / f"{cfg.window_radius}-{trials}"
                want = run(cfg, "1", base / "reference")
                assert len(want[0]) == trials and len(want[1]) > 1
                assert all("error" not in rec for rec in want[0])
                for threads in ("4", "2", "1"):
                    assert run(cfg, threads, base / threads) == want, (geometry, trials, threads)
    finally:
        sys.setswitchinterval(interval)


def test_a_refused_trial_leaves_the_other_records_alone(tmp_path, monkeypatch):
    # trial 1 is nilpotent and its inverse exact, but the rounding of a product
    # of norms 1e13 certifies nothing; trial 0 must read as when it runs alone
    cfg = small_config(trials=2)
    alone = run_inverse_closedness(small_config(trials=1), out_dir=tmp_path / "alone")
    generate = harness.generate_operator
    nilpotent = CDOperator.shift_invariant(
        1, 3, 1, 2, "circulant", {(0,): np.array([[0, 1e13], [0, 0]], dtype=complex)})
    monkeypatch.setattr(harness, "generate_operator",
                        lambda cfg, trial: nilpotent if trial == 1 else generate(cfg, trial))
    both = run_inverse_closedness(cfg, out_dir=tmp_path / "both")
    assert both["records"] == alone["records"] + [
        {"trial": 1, "error": "condition inf exceeds 1.0e+12"}]
    name = "envelope_trial_000.csv"
    assert (tmp_path / "both" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()


def test_worker_count_validation(monkeypatch):
    monkeypatch.setenv("DECAYALG_THREADS", "zebra")
    with pytest.raises(ConfigError):
        worker_count()
    monkeypatch.setenv("DECAYALG_THREADS", "0")
    assert worker_count() == 1
    monkeypatch.delenv("DECAYALG_THREADS")
    assert worker_count() == 1


# ---------------------------------------------------------------- symbols


def test_parse_symbol_forms():
    s = parse_symbol("2+u")
    assert s[(0,)] == 2.0 and s[(1,)] == 1.0
    s = parse_symbol("3+u+u^{-1}")
    assert s[(0,)] == 3.0 and s[(1,)] == 1.0 and s[(-1,)] == 1.0
    s = parse_symbol("1-0.5*u^2")
    assert s[(0,)] == 1.0 and s[(2,)] == -0.5
    s = parse_symbol("1−u")  # unicode minus
    assert s[(1,)] == -1.0
    s = parse_symbol("1j*u")
    assert s[(1,)] == 1j
    s = parse_symbol("-2.5")
    assert s[(0,)] == -2.5
    s = parse_symbol("u^-3+u^3")
    assert s[(-3,)] == 1.0 and s[(3,)] == 1.0 and s.radius == 3


@pytest.mark.parametrize("bad", ["", "+", "u^x", "2^u", "u u", "q+1"])
def test_parse_symbol_rejects(bad):
    with pytest.raises(ConfigError):
        parse_symbol(bad)


def test_parse_symbol_only_one_dimensional():
    assert parse_symbol("2+u").c == 1
    for extra in ({"symbol": "2+u"}, {"seq": parse_symbol("2+u").to_json()}):
        with pytest.raises(ConfigError, match="unknown wiener config fields"):
            run_wiener({**extra, "c": 1, "grid": 64, "out_radius": 4})


# ----------------------------------------------------------- wiener runner


def test_run_wiener_geometric(tmp_path):
    cfg = {
        "symbol": "2+u",
        "grid": 256,
        "out_radius": 40,
        "weight": {"a": 0.0, "b": 0.0, "s": 2.0, "t": 0.0, "index_norm": "l1"},
    }
    report = run_wiener(cfg, out_dir=tmp_path)
    assert report["closed_form_max_err"] <= 1e-12
    assert report["residual"] <= 1e-10  # truncation tail ~ 2^-(R+1)
    csv_lines = (tmp_path / "partial_sums.csv").read_text().splitlines()
    assert csv_lines[0] == "radius,partial_sum,increment"
    assert len(csv_lines) == 42
    inv = json.loads((tmp_path / "inverse.json").read_text())
    assert inv["radius"] == 40
    assert verify_report(tmp_path / "report.json") == []


def test_run_inverse_closedness_rejects_dirichlet(tmp_path):
    cfg = small_config(boundary="dirichlet")
    with pytest.raises(ConfigError, match="circulant"):
        run_inverse_closedness(cfg, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_run_inverse_closedness_slope_from_fitted_envelope(tmp_path):
    cfg = small_config(trials=1)
    report = run_inverse_closedness(cfg, out_dir=tmp_path)
    res = invert_one_plus(generate_operator(cfg, 0))
    assert np.array_equal(res.envelope.values, fit_envelope(res.t1, "nuclear").values)
    assert report["records"][0]["slope"] == decay_slope(res.envelope)


def test_run_wiener_three_term(tmp_path):
    cfg = {"symbol": "3+u+u^{-1}", "grid": 512, "out_radius": 30}
    report = run_wiener(cfg, out_dir=tmp_path)
    assert report["residual"] <= 1e-10
    assert "closed_form_max_err" not in report  # not the two-term family


def test_run_wiener_records_vanishing_symbol(tmp_path):
    cfg = {"symbol": "1-u", "grid": 128, "out_radius": 10}
    report = run_wiener(cfg, out_dir=tmp_path)
    assert "symbol_vanishes" in report["error"]
    assert report["min_modulus"] <= 1e-12
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert "error" in on_disk


@pytest.mark.parametrize("symbol, grid", [("1-u", 128), ("2+u", 128), ("3+u+u^{-1}", 64)])
def test_wiener_min_modulus_is_the_sampled_minimum(tmp_path, symbol, grid):
    seq = parse_symbol(symbol)
    want = float(np.abs(symbol_on_grid(seq, grid)).min())
    report = run_wiener({"symbol": symbol, "grid": grid, "out_radius": 10}, out_dir=tmp_path)
    assert report["min_modulus"] == want
    assert ("error" in report) == (symbol == "1-u")
    if "error" in report:
        with pytest.raises(SymbolVanishes) as exc:
            wiener_inverse(seq, grid, 10)
        assert exc.value.min_modulus == want


def test_run_wiener_accepts_seq_json(tmp_path):
    seq = {
        "c": 1,
        "radius": 1,
        "entries": [
            {"index": [0], "re": 2.0, "im": 0.0},
            {"index": [1], "re": 1.0, "im": 0.0},
        ],
    }
    report = run_wiener(
        {"seq": seq, "grid": 128, "out_radius": 10}, out_dir=tmp_path
    )
    assert report["closed_form_max_err"] <= 1e-12


def test_run_wiener_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        run_wiener({"grid": 128, "out_radius": 5}, out_dir=tmp_path)
    with pytest.raises(ConfigError):
        run_wiener({"symbol": "2+u", "out_radius": 5}, out_dir=tmp_path)
    with pytest.raises(ConfigError):
        run_wiener({"symbol": "2+u", "grid": 128}, out_dir=tmp_path)


# ----------------------------------------------------------- kernel runner


def test_run_kernel_report(tmp_path):
    cfg = small_config(local_dim=2, q=2, block_rank=2, trials=3)
    report = run_kernel(cfg, out_dir=tmp_path)
    assert len(report["records"]) == 3
    agg = report["aggregates"]
    assert agg["max_kernel_rel_err"] <= 1e-12
    assert agg["all_isometries_exact"] is True
    assert agg["all_round_trips_exact"] is True
    assert (tmp_path / "kernel_block_trial_000.csv").exists()
    assert (tmp_path / "input_trial_000.grid").exists()
    assert verify_report(tmp_path / "report.json") == []


def test_run_kernel_requires_d_eq_q_pow_c(tmp_path):
    cfg = small_config(local_dim=3, q=2)
    with pytest.raises(ConfigError):
        run_kernel(cfg, out_dir=tmp_path)


# -------------------------------------------------------------- gen runner


def test_run_gen_writes_operators(tmp_path):
    cfg = small_config(trials=2)
    report = run_gen(cfg, out_dir=tmp_path)
    assert len(report["records"]) == 2
    for rec in report["records"]:
        data = json.loads((tmp_path / rec["operator_json"]).read_text())
        back = CDOperator.from_json(data)
        again = generate_operator(cfg, rec["trial"])
        np.testing.assert_array_equal(densify(back), densify(again))
    assert verify_report(tmp_path / "report.json") == []


# ------------------------------------------------------------ verification


def test_verify_report_catches_tampering(tmp_path):
    cfg = small_config(trials=2)
    path = tmp_path / "report.json"
    run_inverse_closedness(cfg, out_dir=tmp_path)

    report = json.loads(path.read_text())
    report["aggregates"]["max_residual"] = 0.123
    path.write_text(json.dumps(report, sort_keys=True))
    assert any("max_residual" in p for p in verify_report(path))

    report = json.loads(path.read_text())
    report["aggregates"]["max_residual"] = max(
        r["residual"] for r in report["records"]
    )
    report["records"][0]["envelope_dominates"] = False
    path.write_text(json.dumps(report, sort_keys=True))
    assert any("domination" in p for p in verify_report(path))


def test_verify_report_catches_csv_tampering(tmp_path):
    cfg = small_config(trials=1)
    run_inverse_closedness(cfg, out_dir=tmp_path)
    csv_path = tmp_path / "envelope_trial_000.csv"
    lines = csv_path.read_text().splitlines()
    parts = lines[1].split(",")
    parts[-1] = "99.0"  # corrupt the cumsum
    lines[1] = ",".join(parts)
    csv_path.write_text("\n".join(lines) + "\n")
    assert any("cumsum" in p for p in verify_report(tmp_path / "report.json"))
    csv_path.write_bytes(b"\xff\xfe")  # not UTF-8
    assert any("unreadable" in p for p in verify_report(tmp_path / "report.json"))
    csv_path.unlink()
    assert any("missing" in p for p in verify_report(tmp_path / "report.json"))


def tamper(path, edit):
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report, sort_keys=True))
    return verify_report(path)


def tamper_csv(path, edit):
    """Apply edit to the data rows (lists of cells) of the CSV table at path;
    return verify_report of the report beside it."""
    header, *lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines]
    edit(rows)
    path.write_text("\n".join([header] + [",".join(row) for row in rows]) + "\n")
    return verify_report(path.parent / "report.json")


def test_verify_report_catches_max_condition(tmp_path):
    run_inverse_closedness(small_config(), out_dir=tmp_path)
    problems = tamper(tmp_path / "report.json",
                      lambda r: r["aggregates"].update(max_condition=-1.0))
    assert any("max_condition" in p for p in problems)


def test_verify_report_catches_kernel_round_trip_aggregate(tmp_path):
    run_kernel(small_config(), out_dir=tmp_path)
    assert verify_report(tmp_path / "report.json") == []
    problems = tamper(tmp_path / "report.json",
                      lambda r: r["aggregates"].update(all_round_trips_exact=False))
    assert any("all_round_trips_exact" in p for p in problems)


def edit_records(edits):
    """An edit of records' fields, {trial: {field: value}}, that recomputes the
    aggregates, so only the records' own checks can see it."""
    def edit(report):
        for trial, fields in edits.items():
            report["records"][trial].update(fields)
        report["aggregates"] = harness._aggregates(report["kind"], report["records"])
    return edit


def assert_slope_and_invertibility_check_rederived(path):
    original = path.read_text()
    problems = tamper(path, edit_records({0: {"slope": 5.0},
                                          1: {"invertibility_check": "residual"}}))
    assert problems == ["trial 0: slope does not match its envelope table",
                        "trial 1: invertibility_check does not match its envelope_l1"]
    path.write_text(original)
    # a null envelope_l1 (a non-finite sum) asks for the residual check
    problems = tamper(path, edit_records({0: {"envelope_l1": None}}))
    assert problems == ["trial 0: invertibility_check does not match its envelope_l1"]
    path.write_text(original)


def test_verify_report_checks_weighted_total_against_csv(tmp_path):
    run_inverse_closedness(small_config(), out_dir=tmp_path)
    assert_slope_and_invertibility_check_rederived(tmp_path / "report.json")
    problems = tamper(tmp_path / "report.json",
                      lambda r: r["records"][1].update(weighted_total=123.0))
    assert problems == ["trial 1: weighted_total does not match its envelope table"]


def test_verify_report_checks_final_increment_against_embedded_rows(tmp_path):
    run_inverse_closedness(small_config(), out_dir=tmp_path)
    problems = tamper(tmp_path / "report.json",
                      lambda r: r["records"][0].update(final_increment=0.5))
    assert problems == ["trial 0: final_increment does not match its envelope table"]


def test_verify_report_rederives_the_offsets_of_an_envelope_table(tmp_path):
    # the row of m = 1 claims m = -1: the weight (1+|m|) is symmetric, so only
    # re-deriving the table from its (m, beta) columns sees it
    run_inverse_closedness(small_config(trials=1), out_dir=tmp_path)
    csv_path = tmp_path / "envelope_trial_000.csv"
    lines = csv_path.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("1,"))
    lines[row] = "-1" + lines[row][1:]
    csv_path.write_text("\n".join(lines) + "\n")
    assert f"envelope_trial_000.csv:{row + 1}: m_1 mismatch" in verify_report(
        tmp_path / "report.json")


@pytest.mark.parametrize("column, value, message", [
    # offsets are the table's row order, never read from the file: an index that
    # would fall outside the band, or wrap as an array index, is just another text
    (0, 9, "envelope_trial_000.csv:4: m_1 mismatch"),
    (0, -5, "envelope_trial_000.csv:4: m_1 mismatch"),
    (1, -0.5, "envelope_trial_000.csv: envelope values must be nonnegative"),
], ids=["0-9-offset (9,) outside the band |m| <= 3",  # the edit each case makes
        "0--5-offset (-5,) outside the band |m| <= 3", "1--0.5-negative beta"])
def test_verify_report_lists_an_impossible_envelope_row(tmp_path, column, value, message):
    run_inverse_closedness(small_config(trials=1), out_dir=tmp_path)
    problems = tamper_csv(tmp_path / "envelope_trial_000.csv",
                          lambda rows: rows[2].__setitem__(column, repr(value)))
    assert problems == [message]


def test_verify_report_counts_the_envelope_rows(tmp_path):
    run_inverse_closedness(small_config(trials=1), out_dir=tmp_path)
    problems = tamper_csv(tmp_path / "envelope_trial_000.csv", lambda rows: rows.pop())
    assert problems == ["envelope_trial_000.csv: 6 envelope rows, want 7"]


@pytest.mark.parametrize("overrides", [
    {},
    {"c": 2, "window_radius": 2},
    {"boundary": "dirichlet", "band_radius": 2,
     "envelope_profile": {"kind": "polynomial", "power": 2.0}},
])
def test_verify_report_rederives_gen_records_bitwise(tmp_path, overrides):
    run_gen(small_config(**overrides), out_dir=tmp_path)
    assert verify_report(tmp_path / "report.json") == []


def test_verify_report_reads_the_operator_files_back(tmp_path):
    run_gen(small_config(trials=2), out_dir=tmp_path)
    path = tmp_path / "report.json"
    original = path.read_text()
    problems = tamper(path, lambda r: r["records"][1].update(n_blocks=r["records"][1]["n_blocks"] - 1))
    assert problems == ["trial 1: n_blocks does not match its operator file"]
    path.write_text(original)
    problems = tamper(path, lambda r: r["records"][0].update(envelope_l1=0.25))
    assert problems == ["trial 0: envelope_l1 does not match its operator file"]
    path.write_text(original)
    kept = (tmp_path / "operator_trial_001.json").read_text()
    (tmp_path / "operator_trial_001.json").unlink()
    assert verify_report(path) == ["trial 1: missing operator_json 'operator_trial_001.json'"]
    (tmp_path / "operator_trial_001.json").write_text(kept)
    (tmp_path / "operator_trial_000.json").write_text("junk")
    problems = verify_report(path)
    assert len(problems) == 1
    assert problems[0].startswith("operator_trial_000.json: not an operator")
    # a well-formed operator of another window
    other = generate_operator(small_config(window_radius=2), 0)
    (tmp_path / "operator_trial_000.json").write_text(json.dumps(other.to_json()))
    assert verify_report(path) == [
        "operator_trial_000.json: operator does not match the config's (c, N, W, d, boundary)"]


@pytest.mark.parametrize("runner", [run_inverse_closedness, run_kernel, run_gen])
def test_verify_report_parses_the_config_like_the_command_line(tmp_path, runner):
    runner(small_config(), out_dir=tmp_path)
    problems = tamper(tmp_path / "report.json", lambda r: r["config"].update(N=float("inf")))
    assert len(problems) == 1
    assert problems[0].startswith("config not reconstructible: non-integer field")


def test_verify_report_finds_a_missing_kernel_sidecar(tmp_path):
    run_kernel(small_config(), out_dir=tmp_path)
    (tmp_path / "kernel_block_trial_000.csv").unlink()
    assert verify_report(tmp_path / "report.json") == [
        "trial 0: missing kernel_block_csv 'kernel_block_trial_000.csv'"]


def test_verify_report_reads_the_kernel_grid_file_back(tmp_path):
    run_kernel(small_config(), out_dir=tmp_path)
    grid = tmp_path / "input_trial_000.grid"
    for junk in (b"junk", b""):  # a file too short for the payload is compared unbuilt
        grid.write_bytes(junk)
        assert verify_report(tmp_path / "report.json") == [
            "input_trial_000.grid: differs from its re-derivation"]
    # a well-formed grid function of another window
    grid.write_bytes(grid_bytes(GridFunction(1, 2, 2, np.zeros((5, 2)))))
    assert verify_report(tmp_path / "report.json") == [
        "input_trial_000.grid: differs from its re-derivation"]


def retyped(data: bytes) -> bytes:
    """data with a 0 appended to the fractional digits of its first float (0.5 becomes
    0.50, 1.5e-07 becomes 1.50e-07): the same value in other text."""
    end = re.search(rb"\d\.\d+", data).end()
    return data[:end] + b"0" + data[end:]


SMALL_RUNS = {
    "invert": lambda out: run_inverse_closedness(small_config(), out_dir=out),
    "wiener": lambda out: run_wiener({"symbol": "3+u+u^{-1}", "grid": 128, "out_radius": 8,
                                      "weight": {"s": 1.0}}, out_dir=out),
    "kernel": lambda out: run_kernel(small_config(), out_dir=out),
    "gen": lambda out: run_gen(small_config(), out_dir=out),
}


@pytest.mark.parametrize("kind", sorted(SMALL_RUNS))
def test_verify_report_checks_every_sidecar_as_text(tmp_path, kind):
    """One edit of each file a run writes besides its report, a value-keeping
    re-typing of a table or JSON file or a flipped last payload byte of the grid
    file, is a problem that names the file."""
    SMALL_RUNS[kind](tmp_path)
    report = tmp_path / "report.json"
    assert verify_report(report) == []
    sidecars = sorted(p for p in tmp_path.iterdir() if p.name != "report.json")
    assert sidecars
    for path in sidecars:
        original = path.read_bytes()
        path.write_bytes(original[:-1] + bytes([original[-1] ^ 0xFF]) if path.suffix == ".grid"
                         else retyped(original))
        assert any(path.name in p for p in verify_report(report)), path.name
        path.write_bytes(original)
    assert verify_report(report) == []


def test_verify_report_rejects_unreadable(tmp_path):
    missing = verify_report(tmp_path / "nope.json")
    assert missing and "cannot load" in missing[0]
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert verify_report(bad)


def test_verify_report_rederives_wiener_partial_sums_csv(tmp_path):
    run_wiener({"symbol": "2+u", "grid": 128, "out_radius": 10, "weight": {"s": 1.0}},
               out_dir=tmp_path)
    assert verify_report(tmp_path / "report.json") == []
    csv_path = tmp_path / "partial_sums.csv"
    lines = csv_path.read_text().splitlines()
    r, total, inc = lines[3].split(",")
    lines[3] = ",".join([r, total, repr(float(inc) * 2.0)])
    csv_path.write_text("\n".join(lines) + "\n")
    assert verify_report(tmp_path / "report.json") == ["partial_sums.csv:4: increment mismatch"]

    inverse = json.loads((tmp_path / "inverse.json").read_text())
    inverse["entries"][0]["re"] += 1.0
    (tmp_path / "inverse.json").write_text(json.dumps(inverse))
    assert any("partial_sum mismatch" in p for p in verify_report(tmp_path / "report.json"))


@pytest.mark.parametrize("field, value, source", [
    ("min_modulus", 123.0, "symbol"),
    ("residual", 7.0, "stored inverse"),
    ("closed_form_max_err", 0.5, "stored inverse"),
])
def test_verify_report_rederives_wiener_scalars(tmp_path, field, value, source):
    run_wiener({"symbol": "2+u", "grid": 128, "out_radius": 20}, out_dir=tmp_path)
    path = tmp_path / "report.json"
    assert verify_report(path) == []
    assert tamper(path, lambda r: r.update({field: value})) == [
        f"{field} does not match the {source}"]


def test_verify_report_rederives_a_vanishing_symbols_min_modulus(tmp_path):
    run_wiener({"symbol": "1-u", "grid": 128, "out_radius": 10}, out_dir=tmp_path)
    path = tmp_path / "report.json"
    assert verify_report(path) == []
    assert tamper(path, lambda r: r.update(min_modulus=1.0)) == [
        "min_modulus does not match the symbol"]


def test_verify_report_checks_a_wiener_error_against_the_symbol(tmp_path):
    """An error on a symbol that does not vanish is a problem, and the report's
    other scalars are still checked; so is a missing error on one that does."""
    run_wiener({"symbol": "2+u", "grid": 128, "out_radius": 20}, out_dir=tmp_path)
    path = tmp_path / "report.json"
    assert tamper(path, lambda r: r.update(error="symbol_vanishes: edited", residual=7.0)) == [
        "error disagrees with whether the symbol vanishes",
        "residual does not match the stored inverse"]
    run_wiener({"symbol": "1-u", "grid": 128, "out_radius": 10}, out_dir=tmp_path)
    problems = tamper(path, lambda r: r.pop("error"))
    assert problems[0] == "error disagrees with whether the symbol vanishes"
    assert "wiener inverse not reconstructible" in problems[1]


def test_wiener_inverse_and_the_verifier_share_the_vanishing_predicate():
    assert symbol_vanishes(np.array([1e-13, 1.0])) and not symbol_vanishes(np.array([2e-13, 1.0]))
    assert symbol_vanishes(np.array([2e-13, 2.0])) and not symbol_vanishes(np.array([3e-13, 2.0]))
    for text, vanishes in (("1-u", True), ("2+u", False), ("1+1e-14*u", False)):
        seq = parse_symbol(text)
        assert symbol_vanishes(np.abs(symbol_on_grid(seq, 64))) == vanishes
        if vanishes:
            with pytest.raises(SymbolVanishes):
                wiener_inverse(seq, 64, 4)
        else:
            wiener_inverse(seq, 64, 4)


def test_verify_report_rederives_wiener_partial_sums_json(tmp_path):
    run_wiener({"symbol": "3+u+u^{-1}", "grid": 128, "out_radius": 8, "weight": {"s": 1.0}},
               out_dir=tmp_path)
    path, csv_path = tmp_path / "report.json", tmp_path / "partial_sums.csv"
    original, table = path.read_text(), csv_path.read_text()
    assert verify_report(path) == []
    problems = tamper_csv(csv_path, lambda rows: rows[2].__setitem__(1, "0.25"))
    assert problems == ["partial_sums.csv:4: partial_sum mismatch"]
    csv_path.write_text(table)
    problems = tamper(path, lambda r: r.update(weighted_total=1.0))
    assert problems == ["weighted_total does not match the partial sums"]
    path.write_text(original)
    inverse_path = tmp_path / "inverse.json"
    stored = inverse_path.read_text()
    inverse = json.loads(stored)
    inverse["entries"][0].update(im=0.5)
    inverse_path.write_text(json.dumps(inverse))
    problems = verify_report(path)
    assert problems[0] == "inverse.json: differs from its re-derivation"
    assert "partial_sums.csv:10: partial_sum mismatch" in problems
    assert all("match" in p for p in problems[1:])
    inverse_path.write_text(stored)
    assert tamper(path, lambda r: r.pop("partial_sums_csv")) == [
        "wiener report has no partial sums"]
