"""Tests for experiment configs, operator generation, runners, verification."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decayalg.blocking_kernel import GridFunction, write_grid_function
from decayalg.cd_operator import densify, fit_envelope
from decayalg.harness import (
    ConfigError,
    ExperimentConfig,
    envelope_values,
    generate_operator,
    parse_symbol,
    run_gen,
    run_inverse_closedness,
    run_kernel,
    run_wiener,
    verify_report,
    worker_count,
)
from decayalg.cd_operator import CDOperator, decay_slope, invert_one_plus
from decayalg.lattice import window_indices
from decayalg.nuclear_blocks import trace_norm
from decayalg.rng import Xoshiro256StarStar
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
    assert obj["format_version"] == 1


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
])
def test_config_rejects_bad_values(patch):
    with pytest.raises(ConfigError):
        small_config(**patch)


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


def reference_operator(cfg, trial):
    """Block-by-block generation from the scalar draws: the spec of the bulk path."""
    rng = Xoshiro256StarStar(cfg.seed, stream=trial)
    beta = envelope_values(cfg)
    d, rank = cfg.local_dim, cfg.block_rank

    def draw(rows, cols):
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
            r_km = rng.uniform_in(0.5, 1.0)
            x = draw(d, rank)
            y = draw(rank, d)
            g = x @ y
            scale = target * r_km / trace_norm(g)
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


def test_generate_operator_zero_table():
    cfg = small_config(envelope_profile={"kind": "table", "values": [0.0, 0.0, 0.0]})
    op = generate_operator(cfg, 0)
    assert op.blocks == {}


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


def test_run_inverse_closedness_json_format(tmp_path):
    cfg = small_config(trials=1)
    report = run_inverse_closedness(cfg, out_dir=tmp_path, fmt="json")
    rec = report["records"][0]
    assert "envelope_csv" not in rec
    rows = rec["envelope_rows"]
    assert len(rows) == 2 * cfg.window_radius + 1  # full band after inversion
    assert not list(tmp_path.glob("*.csv"))
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


@pytest.mark.parametrize("runner", [run_inverse_closedness, run_kernel, run_gen],
                         ids=["invert", "kernel", "gen"])
def test_run_inverse_closedness_parallel_matches_serial(runner, tmp_path, monkeypatch):
    cfg = small_config(trials=4)
    outputs = {}
    for threads in ("1", "4"):
        monkeypatch.setenv("DECAYALG_THREADS", threads)
        assert worker_count() == int(threads)
        out = tmp_path / threads
        outputs[threads] = (runner(cfg, out_dir=out)["records"],
                            {p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs["1"][1]) > 1
    assert outputs["1"] == outputs["4"]


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
    with pytest.raises(ConfigError):
        parse_symbol("2+u", c=2)


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
    res = invert_one_plus(generate_operator(cfg, 0), cfg.weight)
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


def test_verify_report_checks_weighted_total_against_csv(tmp_path):
    run_inverse_closedness(small_config(), out_dir=tmp_path)
    problems = tamper(tmp_path / "report.json",
                      lambda r: r["records"][1].update(weighted_total=123.0))
    assert problems == ["trial 1: weighted_total does not match its envelope table"]


def test_verify_report_checks_final_increment_against_embedded_rows(tmp_path):
    run_inverse_closedness(small_config(), out_dir=tmp_path, fmt="json")
    problems = tamper(tmp_path / "report.json",
                      lambda r: r["records"][0].update(final_increment=0.5))
    assert problems == ["trial 0: final_increment does not match its envelope table"]


def test_verify_report_finds_a_missing_kernel_sidecar(tmp_path):
    run_kernel(small_config(), out_dir=tmp_path)
    (tmp_path / "kernel_block_trial_000.csv").unlink()
    assert verify_report(tmp_path / "report.json") == [
        "trial 0: missing kernel_block_csv 'kernel_block_trial_000.csv'"]


def test_verify_report_reads_the_kernel_grid_file_back(tmp_path):
    run_kernel(small_config(), out_dir=tmp_path)
    grid = tmp_path / "input_trial_000.grid"
    grid.write_text("junk")
    problems = verify_report(tmp_path / "report.json")
    assert len(problems) == 1
    assert problems[0].startswith("input_trial_000.grid: not a grid function")
    # a well-formed grid function of another window
    write_grid_function(GridFunction(1, 2, 2, np.zeros((5, 2))), grid)
    assert verify_report(tmp_path / "report.json") == [
        "input_trial_000.grid: grid does not match the config's (c, N, q)"]


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


def test_verify_report_rederives_wiener_partial_sums_json(tmp_path):
    run_wiener({"symbol": "3+u+u^{-1}", "grid": 128, "out_radius": 8, "weight": {"s": 1.0}},
               out_dir=tmp_path, fmt="json")
    path = tmp_path / "report.json"
    original = path.read_text()
    assert verify_report(path) == []
    problems = tamper(path, lambda r: r["partial_sums"][2].__setitem__(1, 0.25))
    assert problems == ["embedded partial sum 2: partial_sum mismatch"]
    path.write_text(original)
    problems = tamper(path, lambda r: r.update(weighted_total=1.0))
    assert problems == ["weighted_total does not match the partial sums"]
    path.write_text(original)
    problems = tamper(path, lambda r: r["inverse"]["entries"][0].update(im=0.5))
    assert problems and all("mismatch" in p or "match" in p for p in problems)
