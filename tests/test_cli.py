"""End-to-end command-line tests: exit codes, overrides, outputs."""

import json

import numpy as np
import pytest

from decayalg import harness
from decayalg.cd_operator import CDOperator
from decayalg.cli import build_parser, main
from decayalg.harness import verify_report


def write_config(path, **overrides):
    obj = {
        "seed": 21,
        "c": 1,
        "N": 3,
        "W": 1,
        "d": 2,
        "q": 2,
        "weight": {"a": 0.0, "b": 0.0, "s": 1.0, "t": 0.0, "index_norm": "l1"},
        "envelope_profile": {"kind": "exponential", "rate": 1.0, "l1": 0.5},
        "block_rank": 2,
        "trials": 2,
        "boundary": "circulant",
    }
    obj.update(overrides)
    path.write_text(json.dumps(obj))
    return path


def test_invert_success(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    code = main(["invert", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "report.json").exists()
    assert (out / "envelope_trial_000.csv").exists()
    assert (out / "envelope_trial_001.csv").exists()


def test_gen_kernel_wiener_success(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "g")]) == 0
    assert (tmp_path / "g" / "operator_trial_001.json").exists()
    assert main(["kernel", "--config", str(cfg), "--out", str(tmp_path / "k")]) == 0
    assert (tmp_path / "k" / "input_trial_000.grid").exists()
    wcfg = tmp_path / "w.json"
    wcfg.write_text(json.dumps({"symbol": "3+u+u^{-1}", "grid": 256, "out_radius": 30}))
    assert main(["wiener", "--config", str(wcfg), "--out", str(tmp_path / "w")]) == 0
    report = json.loads((tmp_path / "w" / "report.json").read_text())
    assert report["residual"] <= 1e-10


def test_seed_and_trials_overrides(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["invert", "--config", str(cfg), "--out", str(a), "--trials", "3"]) == 0
    report = json.loads((a / "report.json").read_text())
    assert len(report["records"]) == 3
    assert report["config"]["trials"] == 3
    assert main(["invert", "--config", str(cfg), "--out", str(b), "--seed", "99"]) == 0
    other = json.loads((b / "report.json").read_text())
    assert other["config"]["seed"] == 99
    assert other["records"][0]["residual"] != report["records"][0]["residual"]


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["invert", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["invert", "--config", str(bad)]) == 2


def test_bad_field_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", boundary="open")
    assert main(["invert", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "boundary" in capsys.readouterr().err


def test_invert_dirichlet_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", boundary="dirichlet")
    assert main(["invert", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "circulant" in err
    assert "Traceback" not in err


def test_all_trials_failing_exits_3(tmp_path, capsys, monkeypatch):
    # T = -1: 1 + T is zero, the LU fails and no trial is certified
    minus_one = CDOperator.shift_invariant(1, 3, 0, 1, "circulant",
                                           {(0,): -np.eye(1, dtype=complex)})
    monkeypatch.setattr(harness, "generate_operator", lambda cfg, trial: minus_one)
    cfg = write_config(tmp_path / "cfg.json", d=1, block_rank=1)
    code = main(["invert", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "trial 0: condition inf" in err and "trial 1: condition inf" in err


def test_vanishing_symbol_exits_3(tmp_path):
    wcfg = tmp_path / "w.json"
    wcfg.write_text(json.dumps({"symbol": "1-u", "grid": 128, "out_radius": 10}))
    assert main(["wiener", "--config", str(wcfg), "--out", str(tmp_path / "w")]) == 3
    report = json.loads((tmp_path / "w" / "report.json").read_text())
    assert "symbol_vanishes" in report["error"]


def test_verify_report_round_trip(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    main(["invert", "--config", str(cfg), "--out", str(out)])
    assert main(["verify-report", str(out / "report.json")]) == 0
    assert "report verified" in capsys.readouterr().out

    report_path = out / "report.json"
    report = json.loads(report_path.read_text())
    report["aggregates"]["max_residual"] = 1.0
    report_path.write_text(json.dumps(report, sort_keys=True))
    assert main(["verify-report", str(report_path)]) == 4
    assert "max_residual" in capsys.readouterr().err


def test_verify_report_missing_file_exits_4(tmp_path, capsys):
    assert main(["verify-report", str(tmp_path / "ghost.json")]) == 4
    assert "cannot load" in capsys.readouterr().err


def invert_report(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["invert", "--config", str(cfg), "--out", str(out)]) == 0
    return out / "report.json"


def assert_verify_problem(capsys, report, message):
    capsys.readouterr()
    assert main(["verify-report", str(report)]) == 4
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_verify_report_non_numeric_csv_cell_exits_4(tmp_path, capsys):
    report = invert_report(tmp_path)
    csv_path = report.parent / "envelope_trial_000.csv"
    lines = csv_path.read_text().splitlines()
    lines[1] = ",".join(["x"] + lines[1].split(",")[1:])  # the m_1 cell
    csv_path.write_text("\n".join(lines) + "\n")
    assert_verify_problem(capsys, report, "envelope_trial_000.csv:2: m_1 mismatch")


def test_verify_report_offset_outside_the_band_exits_4(tmp_path, capsys):
    report = invert_report(tmp_path)
    csv_path = report.parent / "envelope_trial_000.csv"
    lines = csv_path.read_text().splitlines()
    lines[2] = ",".join(["-7"] + lines[2].split(",")[1:])  # -7 + N would wrap as an index
    csv_path.write_text("\n".join(lines) + "\n")
    assert_verify_problem(capsys, report, "envelope_trial_000.csv:3: m_1 mismatch")


def test_verify_report_junk_operator_file_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    (out / "operator_trial_000.json").write_text("junk")
    assert_verify_problem(capsys, out / "report.json", "operator_trial_000.json: not an operator")


@pytest.mark.parametrize("index", [-2**63, 2**64])
def test_verify_report_operator_index_beyond_the_window_exits_4(tmp_path, capsys, index):
    # np.abs(-2**63) is -2**63, and 2**64 does not fit in int64
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "operator_trial_000.json"
    obj = json.loads(path.read_text())
    obj["blocks"][0]["k"] = [index]
    path.write_text(json.dumps(obj))
    problems = verify_report(out / "report.json")
    assert [p.split(": not an operator: ")[0] for p in problems] == [path.name]
    assert "ShapeMismatch" in problems[0]
    assert_verify_problem(capsys, out / "report.json", "operator_trial_000.json: not an operator")


def test_verify_report_version_1_report_exits_4(tmp_path, capsys):
    report = invert_report(tmp_path)
    obj = json.loads(report.read_text())
    obj["format_version"] = 1  # trace norms of rank <= 2 blocks changed in version 2
    report.write_text(json.dumps(obj))
    assert_verify_problem(capsys, report, "unsupported format_version 1")


def test_verify_report_version_2_report_exits_4(tmp_path, capsys):
    report = invert_report(tmp_path)
    obj = json.loads(report.read_text())
    obj["format_version"] = 2  # blocks and grid cells draw from keyed lanes in version 3
    report.write_text(json.dumps(obj))
    assert_verify_problem(capsys, report, "unsupported format_version 2")


def test_verify_report_version_3_report_exits_4(tmp_path, capsys):
    report = invert_report(tmp_path)
    obj = json.loads(report.read_text())
    obj["format_version"] = 3  # residual and condition became norm bounds in version 4
    report.write_text(json.dumps(obj))
    assert_verify_problem(capsys, report, "unsupported format_version 3")


@pytest.mark.parametrize("command", ["invert", "wiener"])
def test_a_version_3_config_exits_2(tmp_path, capsys, command):
    cfg = (write_config if command == "invert" else wiener_config)(tmp_path / "c.json",
                                                                    format_version=3)
    assert_config_error(tmp_path, capsys, [command, "--config", str(cfg)])


@pytest.mark.parametrize("command", ["invert", "wiener"])
def test_a_version_2_config_exits_2(tmp_path, capsys, command):
    cfg = (write_config if command == "invert" else wiener_config)(tmp_path / "c.json",
                                                                    format_version=2)
    assert_config_error(tmp_path, capsys, [command, "--config", str(cfg)])


@pytest.mark.parametrize("edit, message", [
    (lambda rows: rows[0].__setitem__(0, "x"), "m_1 mismatch"),
    (lambda rows: rows[0].__setitem__(0, "1.5"), "m_1 mismatch"),  # an index must be an int
    (lambda rows: rows[0].__setitem__(3, ""), "weighted_beta mismatch"),
    (lambda rows: rows[0].pop(), "wrong column count"),
    (lambda rows: rows.__setitem__(0, ["x"]), "wrong column count"),
], ids=["<lambda>-bad cell0", "<lambda>-bad cell1", "<lambda>-bad cell2",  # the edit each makes
        "<lambda>-wrong column count0", "<lambda>-wrong column count1"])
def test_verify_report_malformed_embedded_row_exits_4(tmp_path, capsys, edit, message):
    """The first data row of trial 1's envelope CSV, edited cell by cell."""
    report = invert_report(tmp_path)
    csv_path = report.parent / "envelope_trial_001.csv"
    header, *lines = csv_path.read_text().splitlines()
    rows = [line.split(",") for line in lines]
    edit(rows)
    csv_path.write_text("\n".join([header] + [",".join(row) for row in rows]) + "\n")
    assert_verify_problem(capsys, report, f"envelope_trial_001.csv:2: {message}")


def test_usage_errors_exit_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["invert"])  # --config is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:  # one output layout: no --format
        main(["invert", "--config", "c.json", "--format", "csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["invert", "wiener"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
def test_an_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, command, below):
    cfg = (write_config if command == "invert" else wiener_config)(tmp_path / "c.json")
    blocker = tmp_path / "f"
    blocker.write_text("")
    out = blocker / "x" if below else blocker
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: cannot make output directory" in err and "Traceback" not in err


def test_a_bad_thread_count_makes_no_output_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DECAYALG_THREADS", "abc")
    cfg = write_config(tmp_path / "cfg.json")
    assert_config_error(tmp_path, capsys, ["invert", "--config", str(cfg)])


@pytest.mark.parametrize("command", ["invert", "wiener"])
def test_output_dir_is_an_unknown_config_key(tmp_path, capsys, command):
    cfg = (write_config if command == "invert" else wiener_config)(tmp_path / "c.json",
                                                                    output_dir="runs")
    assert_config_error(tmp_path, capsys, [command, "--config", str(cfg)])
    assert not (tmp_path / "runs").exists()


def write_raw_config(path, profile_text):
    """A config whose envelope_profile is spliced in as raw JSON text."""
    write_config(path, envelope_profile="PROFILE")
    path.write_text(path.read_text().replace('"PROFILE"', profile_text))
    return path


@pytest.mark.parametrize("edit", [
    lambda op: op["blocks"][0].update(k=[3.4]),
    lambda op: op["blocks"][0].update(m=["0"]),
    lambda op: op.update(N=3.9),
    lambda op: op.update(c=True),
    lambda op: op["blocks"][0]["block"]["re"][0].__setitem__(0, "0.5"),
], ids=["fractional-index", "string-index", "fractional-size", "boolean-size",
        "string-entry"])
def test_verify_report_operator_number_of_the_wrong_type_exits_4(tmp_path, capsys, edit):
    """int() and float() would have read each edit as a number and passed the file."""
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "operator_trial_000.json"
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    assert_verify_problem(capsys, out / "report.json", "operator_trial_000.json: not an operator")


@pytest.mark.parametrize("field, value", [("c", True), ("N", "3"), ("q", 2.5)])
def test_verify_report_grid_header_number_of_the_wrong_type_exits_4(tmp_path, capsys,
                                                                    field, value):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["kernel", "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "input_trial_000.grid"
    header, payload = path.read_bytes().split(b"\n", 1)
    edited = {**json.loads(header), field: value}
    path.write_bytes(json.dumps(edited, sort_keys=True).encode("ascii") + b"\n" + payload)
    assert_verify_problem(capsys, out / "report.json",
                          "input_trial_000.grid: differs from its re-derivation")


def assert_config_error(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert not out.exists()  # rejected before any work


@pytest.mark.parametrize("profile", [
    '{"kind": "exponential", "rate": "fast"}',
    '{"kind": "polynomial", "power": [2]}',
    '{"kind": "exponential", "rate": 1.0, "l1": "half"}',
    '{"kind": "table", "values": [0.1, "x", 0.1]}',
    # strings and booleans that float() would have read as 0.5 and 1.0
    '{"kind": "table", "values": [true, 0.5, 0.1]}',
    '{"kind": "table", "values": [0.1, "0.5", 0.1]}',
    '{"kind": "exponential", "rate": 1.0, "l1": "0.5"}',
    '{"kind": "polynomial", "power": true}',
])
def test_non_numeric_profile_parameter_exits_2(tmp_path, capsys, profile):
    cfg = write_raw_config(tmp_path / "cfg.json", profile)
    assert_config_error(tmp_path, capsys, ["invert", "--config", str(cfg)])


@pytest.mark.parametrize("profile", [
    '{"kind": "exponential", "rate": 1e400}',
    '{"kind": "polynomial", "power": 1e400}',
    '{"kind": "exponential", "rate": 1.0, "l1": 1e400}',
    '{"kind": "table", "values": [0.1, 1e400, 0.1]}',
])
def test_infinite_profile_parameter_exits_2(tmp_path, capsys, profile):
    cfg = write_raw_config(tmp_path / "cfg.json", profile)
    assert_config_error(tmp_path, capsys, ["kernel", "--config", str(cfg)])


@pytest.mark.parametrize("command", ["gen", "invert", "kernel"])
def test_a_profile_that_rescales_to_non_finite_values_exits_2(tmp_path, capsys, command):
    """l1 / sum overflows on a subnormal table: the rescaled values would be
    [nan nan inf nan nan]."""
    cfg = write_config(tmp_path / "cfg.json", N=4, W=2, d=2, block_rank=1, trials=2,
                       envelope_profile={"kind": "table", "values": [0, 0, 1e-310, 0, 0],
                                         "l1": 0.5})
    assert_config_error(tmp_path, capsys, [command, "--config", str(cfg)])


def test_an_underflowed_inverse_bound_refuses_the_trial(tmp_path, capsys):
    """At l1 1e300 the inverse is about 1e-300, so ||X||_1 ||X||_inf underflows
    to 0 and sigma_min_lower cannot be bounded: each trial is refused."""
    cfg = write_config(tmp_path / "cfg.json", N=4, W=2, d=2, block_rank=1, trials=2,
                       envelope_profile={"kind": "exponential", "rate": 1, "l1": 1e300})
    out = tmp_path / "o"
    assert main(["invert", "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    records = json.loads((out / "report.json").read_text())["records"]
    assert [r["error"] for r in records] == ["condition inf exceeds 1.0e+12"] * 2
    assert verify_report(out / "report.json") == []


@pytest.mark.parametrize("field", ["seed", "c", "N", "trials"])
def test_infinite_integer_field_exits_2(tmp_path, capsys, field):
    cfg = write_config(tmp_path / "cfg.json", **{field: float("inf")})
    assert_config_error(tmp_path, capsys, ["invert", "--config", str(cfg)])


@pytest.mark.parametrize("field, value", [
    ("seed", 7.9), ("trials", 2.5), ("trials", True), ("N", "4"), ("W", None),
    ("output_dir", 5), ("output_dir", ["x"])])
def test_non_integer_integer_field_exits_2(tmp_path, capsys, field, value):
    # int() alone would have run the first four as seed 7, 2 trials, 1 trial and N = 4;
    # output_dir is no config key at all, whatever its value: --out sets the directory
    cfg = write_config(tmp_path / "cfg.json", **{field: value})
    assert_config_error(tmp_path, capsys, ["invert", "--config", str(cfg)])


@pytest.mark.parametrize("seed", [2**64, 2**64 + 7, 2**70])
def test_seed_of_2_to_the_64_or_more_exits_2(tmp_path, capsys, seed):
    # the stream counter takes the seed mod 2^64: 2^64 + 7 would rerun seed 7
    cfg = write_config(tmp_path / "cfg.json")
    assert_config_error(tmp_path, capsys, ["invert", "--config", str(cfg),
                                           "--seed", str(seed)])


def test_largest_seed_runs(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", trials=1)
    out = tmp_path / "o"
    assert main(["gen", "--config", str(cfg), "--seed", str(2**64 - 1), "--out", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["config"]["seed"] == 2**64 - 1


def test_one_parser_and_independent_main_calls(tmp_path):
    assert build_parser() is build_parser()
    cfg = write_config(tmp_path / "cfg.json")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["kernel", "--config", str(cfg), "--out", str(a), "--seed", "5",
                 "--trials", "1"]) == 0
    assert main(["kernel", "--config", str(cfg), "--out", str(b)]) == 0
    first = json.loads((a / "report.json").read_text())
    second = json.loads((b / "report.json").read_text())
    assert (first["config"]["seed"], first["config"]["trials"]) == (5, 1)
    assert (second["config"]["seed"], second["config"]["trials"]) == (21, 2)
    assert [r["trial"] for r in second["records"]] == [0, 1]
    assert (b / second["records"][0]["kernel_block_csv"]).exists()
    args = build_parser().parse_args(["gen", "--config", str(cfg)])
    assert (args.seed, args.trials, args.out) == (None, None, None)

def wiener_config(path, **fields):
    """The default wiener config with `fields` set; a field set to None is left out."""
    obj = {"symbol": "3+u+u^{-1}", "grid": 256, "out_radius": 20}
    obj.update(fields)
    path.write_text(json.dumps({key: value for key, value in obj.items() if value is not None}))
    return path


@pytest.mark.parametrize("weight", [{"b": 2.0}, "heavy", {"a": "x"}, {"a": "0.5"}, {"s": True}])
def test_wiener_bad_weight_exits_2(tmp_path, capsys, weight):
    cfg = wiener_config(tmp_path / "w.json", weight=weight)
    assert_config_error(tmp_path, capsys, ["wiener", "--config", str(cfg)])


@pytest.mark.parametrize("weight", [{"b": 2.0}, "heavy", None, {"a": "0.5"}, {"b": False}])
def test_invert_bad_weight_exits_2(tmp_path, capsys, weight):
    cfg = write_config(tmp_path / "cfg.json", weight=weight)
    assert_config_error(tmp_path, capsys, ["invert", "--config", str(cfg)])


@pytest.mark.parametrize("seq", [
    {"radius": 1, "entries": []},
    {"c": 1, "radius": 1, "entries": [{"index": [0], "re": 1.0}]},
    {"c": 1, "radius": 1, "entries": [{"index": [3], "re": 1.0, "im": 0.0}]},
    {"c": 0, "radius": 1, "entries": []},
    "2+u",
    # indices, sizes and parts that int() and complex() would have read
    {"c": 1, "radius": 1, "entries": [{"index": [0.5], "re": 2.0, "im": 0.0}]},
    {"c": 1, "radius": 1, "entries": [{"index": [0], "re": 2.0, "im": 0.0},
                                      {"index": [1.9], "re": 1.0, "im": 0.0}]},
    {"c": 1, "radius": 1, "entries": [{"index": ["0"], "re": 2.0, "im": 0.0}]},
    {"c": 1.7, "radius": 1, "entries": [{"index": [0], "re": 2.0, "im": 0.0}]},
    {"c": 1, "radius": True, "entries": [{"index": [0], "re": 2.0, "im": 0.0}]},
    {"c": 1, "radius": 1, "entries": [{"index": [0], "re": "2.0", "im": 0.0}]},
    {"c": 1, "radius": 1, "entries": [{"index": [0], "re": 2.0, "im": False}]},
])
def test_wiener_malformed_seq_exits_2(tmp_path, capsys, seq):
    cfg = tmp_path / "w.json"
    cfg.write_text(json.dumps({"seq": seq, "grid": 64, "out_radius": 5}))
    assert_config_error(tmp_path, capsys, ["wiener", "--config", str(cfg)])


@pytest.mark.parametrize("config", [
    '{"symbol": "nan+u", "grid": 64, "out_radius": 5}',
    '{"symbol": "inf+u", "grid": 64, "out_radius": 5}',
    '{"seq": {"c": 1, "radius": 1, "entries": [{"index": [0], "re": NaN, "im": 0.0}]},'
    ' "grid": 64, "out_radius": 5}',
])
def test_wiener_non_finite_coefficient_exits_2(tmp_path, capsys, config):
    cfg = tmp_path / "w.json"
    cfg.write_text(config)
    assert_config_error(tmp_path, capsys, ["wiener", "--config", str(cfg)])


# 16 is too short for R' = 20; 64.5, true and "64" are no integers
@pytest.mark.parametrize("grid", [0, -4, 100, 16, 64.5, True, "64"])
def test_wiener_bad_grid_exits_2(tmp_path, capsys, grid):
    cfg = wiener_config(tmp_path / "w.json", grid=grid)
    assert_config_error(tmp_path, capsys, ["wiener", "--config", str(cfg)])


def test_wiener_negative_out_radius_exits_2(tmp_path, capsys):
    cfg = wiener_config(tmp_path / "w.json", out_radius=-1)
    assert_config_error(tmp_path, capsys, ["wiener", "--config", str(cfg)])


@pytest.mark.parametrize("fields", [
    {"grdi": 3},  # an unknown key
    {"seed": 5},  # wiener draws nothing
    {"out_radius": True},  # would run as 1
    {"out_radius": 20.5},
    {"c": 1.5},
    {"output_dir": ["x"]},  # no config key: --out sets the directory
    {"output_dir": 5},
    # a seq beside the symbol: the run would compute from one and echo the other
    {"seq": {"c": 1, "radius": 1, "entries": [{"index": [0], "re": 2.0, "im": 0.0},
                                              {"index": [1], "re": 1.0, "im": 0.0}]}},
    # keys a nested object would leave unread, and the report would echo
    {"weight": {"a": 0.5, "bb": 0.5}},  # would run with b = 0
    {"weight": {"s": 1.0, "t ": 0.5}},
    {"symbol": None, "seq": {"c": 1, "radius": 1, "raduis": 3,
                             "entries": [{"index": [0], "re": 2.0, "im": 0.0}]}},
    {"symbol": None, "seq": {"c": 1, "radius": 1,
                             "entries": [{"index": [0], "re": 2.0, "im": 0.0, "imag": 5}]}},
])
def test_wiener_rejects_what_it_would_ignore(tmp_path, capsys, fields):
    cfg = wiener_config(tmp_path / "w.json", **fields)
    assert_config_error(tmp_path, capsys, ["wiener", "--config", str(cfg)])


@pytest.mark.parametrize("source", [
    {"symbol": "2+u"},
    {"seq": {"c": 1, "radius": 0, "entries": [{"index": [0], "re": 2.0, "im": 0.0}]}},
])
def test_wiener_c_is_an_unknown_key(tmp_path, capsys, source):
    # a symbol string is one-dimensional and a seq carries its own c
    cfg = tmp_path / "w.json"
    cfg.write_text(json.dumps({**source, "c": 1, "grid": 256, "out_radius": 20}))
    assert_config_error(tmp_path, capsys, ["wiener", "--config", str(cfg)])


@pytest.mark.parametrize("flag", ["--seed", "--trials"])
def test_wiener_has_no_seed_or_trials_flag(tmp_path, flag):
    cfg = wiener_config(tmp_path / "w.json")
    with pytest.raises(SystemExit) as exc:
        main(["wiener", "--config", str(cfg), flag, "3", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def run_and_edit(tmp_path, command, edit):
    """Run `command` on the default config of its kind, edit its report in place; the report's path."""
    cfg = (wiener_config if command == "wiener" else write_config)(tmp_path / "c.json")
    path = tmp_path / "out" / "report.json"
    assert main([command, "--config", str(cfg), "--out", str(path.parent)]) == 0
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))
    return path


def drop_sidecar_names(report):
    """The report as the deleted `--format json` layout wrote it: no record or
    report names a table file (its tables were embedded instead)."""
    for rec in report.get("records", []):
        for key in ("envelope_csv", "kernel_block_csv", "grid_file"):
            rec.pop(key, None)
    report.pop("inverse_json", None)
    report.pop("partial_sums_csv", None)


@pytest.mark.parametrize("command, message", [
    ("invert", "trial 0: no envelope table"),
    ("kernel", "trial 0: names no grid_file"),
    ("wiener", "wiener inverse not reconstructible"),
])
def test_a_version_4_report_of_the_json_layout_exits_4(tmp_path, capsys, command, message):
    assert_verify_problem(capsys, run_and_edit(tmp_path, command, drop_sidecar_names), message)


@pytest.mark.parametrize("command", ["gen", "invert", "kernel"])
def test_a_report_whose_config_names_output_dir_exits_4(tmp_path, capsys, command):
    path = run_and_edit(tmp_path, command, lambda r: r["config"].update(output_dir="runs"))
    assert_verify_problem(capsys, path, "unknown config fields: ['output_dir']")


@pytest.mark.parametrize("command, edit", [
    ("invert", lambda cfg: cfg["weight"].update(bb=0.5)),
    ("kernel", lambda cfg: cfg["envelope_profile"].update(power=7)),
    ("wiener", lambda cfg: cfg["weight"].update({"t ": 0.5})),
], ids=["invert-weight", "kernel-profile", "wiener-weight"])
def test_a_report_whose_config_holds_an_unread_key_exits_4(tmp_path, capsys, command, edit):
    path = run_and_edit(tmp_path, command, lambda r: edit(r["config"]))
    assert_verify_problem(capsys, path, "config not reconstructible: bad ")


def test_verify_report_retyped_envelope_row_exits_4(tmp_path, capsys):
    """int() and float() read ' +0_0 ' as 0 and a trailing zero as the same float;
    the runner writes repr text, so a re-typed row is no row it wrote."""
    report = invert_report(tmp_path)
    csv_path = report.parent / "envelope_trial_000.csv"
    header, first, *rest = csv_path.read_text().splitlines()
    m, beta, *cells = first.split(",")
    assert m == "0" and float(beta + "0") == float(beta)
    first = ",".join([" +0_0 ", beta + "0", *cells])
    csv_path.write_text("\n".join([header, first, *rest]) + "\n")
    assert verify_report(report) == ["envelope_trial_000.csv:2: m_1 mismatch",
                                      "envelope_trial_000.csv:2: beta mismatch"]
    assert_verify_problem(capsys, report, "envelope_trial_000.csv:2: beta mismatch")


def kernel_report(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["kernel", "--config", str(cfg), "--out", str(out)]) == 0
    return out / "report.json"


def test_verify_report_flipped_grid_payload_byte_exits_4(tmp_path, capsys):
    report = kernel_report(tmp_path)
    path = report.parent / "input_trial_000.grid"
    raw = path.read_bytes()
    path.write_bytes(raw[:-1] + bytes([raw[-1] ^ 0xFF]))
    assert verify_report(report) == ["input_trial_000.grid: differs from its re-derivation"]
    assert_verify_problem(capsys, report, "input_trial_000.grid: differs from its re-derivation")


@pytest.mark.parametrize("edit, message", [
    (lambda row: row.__setitem__(slice(2, 3), [row[2]] * 3), "wrong column count"),
    (lambda row: row.__setitem__(2, " " + row[2]), "re mismatch"),
], ids=["tripled", "leading-space"])
def test_verify_report_edited_kernel_block_cell_exits_4(tmp_path, capsys, edit, message):
    """The block is re-rendered from its own re, im columns, so this checks its text,
    not its values."""
    report = kernel_report(tmp_path)
    path = report.parent / "kernel_block_trial_000.csv"
    header, *lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines]
    edit(rows[1])
    path.write_text("\n".join([header] + [",".join(row) for row in rows]) + "\n")
    assert verify_report(report) == [f"kernel_block_trial_000.csv:3: {message}"]
    assert_verify_problem(capsys, report, f"kernel_block_trial_000.csv:3: {message}")


def test_verify_report_unindented_operator_file_exits_4(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    path = out / "operator_trial_000.json"
    path.write_text(json.dumps(json.loads(path.read_text())))
    assert verify_report(out / "report.json") == [
        "operator_trial_000.json: differs from its re-derivation"]
    assert_verify_problem(capsys, out / "report.json",
                          "operator_trial_000.json: differs from its re-derivation")


def recompute_aggregates(report):
    report["aggregates"] = harness._aggregates(report["kind"], report["records"])


@pytest.mark.parametrize("edit", [
    lambda r: r.pop("records"),
    lambda r: r.pop("records") and r.update(aggregates={}),
    lambda r: r.update(records=[]) or recompute_aggregates(r),
    lambda r: r["records"].pop(1) and recompute_aggregates(r),
    lambda r: r["records"].reverse() or recompute_aggregates(r),
], ids=["no-records", "no-records-no-aggregates", "empty-records", "record-1-dropped",
        "records-reversed"])
def test_verify_report_without_every_record_exits_4(tmp_path, capsys, edit):
    path = run_and_edit(tmp_path, "invert", edit)  # two trials
    capsys.readouterr()
    assert main(["verify-report", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.strip() and "Traceback" not in err


@pytest.mark.parametrize("command, edit", [
    ("invert", lambda r: r.update(records=["x"])),
    ("invert", lambda r: r.update(records={"0": {"trial": 0}})),
    ("invert", lambda r: r.update(aggregates=[])),
    ("invert", lambda r: r["config"].update(weight="w")),
    ("invert", lambda r: r["records"][0].update(residual="x")),
    ("gen", lambda r: r["records"][0].update(operator_json=5)),
    ("invert", lambda r: [r]),  # a top-level array
], ids=["string-records", "dict-records", "list-aggregates", "string-weight",
        "string-residual", "integer-operator-json", "array-report"])
def test_verify_report_wrongly_shaped_report_exits_4(tmp_path, capsys, command, edit):
    cfg = write_config(tmp_path / "cfg.json")
    path = tmp_path / "out" / "report.json"
    assert main([command, "--config", str(cfg), "--out", str(path.parent)]) == 0
    report = json.loads(path.read_text())
    edited = edit(report)
    path.write_text(json.dumps(report if edited is None else edited))
    capsys.readouterr()
    assert main(["verify-report", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.strip() and "Traceback" not in err


@pytest.mark.parametrize("command, edit, message", [
    ("invert", lambda rec: rec.update(envelope_dominates="no"),
     "trial 0: envelope domination violated"),
    ("invert", lambda rec: rec.update(envelope_dominates=1),
     "trial 0: envelope domination violated"),
    ("kernel", lambda rec: rec.update(round_trip_exact="no"),
     "aggregate all_round_trips_exact does not match records"),
    ("kernel", lambda rec: rec["isometry_exact"].update({"1": "no"}),
     "aggregate all_isometries_exact does not match records"),
], ids=["envelope-dominates-string", "envelope-dominates-1", "round-trip-string",
        "isometry-string"])
def test_verify_report_flag_of_the_wrong_type_exits_4(tmp_path, capsys, command, edit, message):
    # a flag holds only when it is JSON true: "no" and 1 are truthy, but no flag the runner writes
    path = run_and_edit(tmp_path, command, lambda r: edit(r["records"][0]))
    assert_verify_problem(capsys, path, message)


@pytest.mark.parametrize("command, weight", [
    ("invert", {"a": "HUGE", "b": 0.5}),
    ("invert", {"s": "HUGE"}),
    ("wiener", {"t": "HUGE"}),
], ids=["invert-a", "invert-s", "wiener-t"])
def test_a_weight_parameter_that_reads_as_infinite_exits_2(tmp_path, capsys, command, weight):
    # JSON 1e400 reads as inf, which passes every ">= 0" check
    cfg = (wiener_config if command == "wiener" else write_config)(tmp_path / "c.json",
                                                                   weight=weight)
    cfg.write_text(cfg.read_text().replace('"HUGE"', "1e400"))
    assert float("inf") in json.loads(cfg.read_text())["weight"].values()
    assert_config_error(tmp_path, capsys, [command, "--config", str(cfg)])
