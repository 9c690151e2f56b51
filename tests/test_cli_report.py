import json
import math

import numpy as np
import pytest

from ucgl.cli import main
from ucgl.errors import PreconditionError, SearchFailureError, UcglError
from ucgl import report
from ucgl.report import Check, run_suite
from ucgl.stokes import derive_root_sets


def test_run_suite_unknown_name():
    with pytest.raises(UcglError):
        run_suite({"n": 1, "suite": "bogus"})


def test_run_suite_small_config():
    rep = run_suite({"n": 1, "suite": "connection", "samples": 10, "seed": 3})
    assert rep.all_passed
    data = json.loads(rep.to_json())
    assert data["n"] == 1 and data["suite"] == "connection"
    assert all(c["pass"] == (c["max_residual"] < c["tol"]) for c in data["checks"])


def test_symplectic_suite_has_named_checks():
    rep = run_suite({"n": 1, "suite": "symplectic", "samples": 10, "seed": 3})
    assert len(rep.checks) >= 8
    assert rep.all_passed


def test_report_markdown_format():
    rep = run_suite({"n": 1, "suite": "stokes", "samples": 5, "seed": 3})
    md = rep.to_markdown()
    assert "| check |" in md and "stokes.round_trip" in md


def test_cli_verify_exit_codes(tmp_path, monkeypatch):
    out = tmp_path / "rep.json"
    code = main(["verify", "--n", "1", "--suite", "connection", "--samples", "5",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["all_pass"]
    # a suite that reports a failing check makes the command exit 1
    failing = lambda rs, rng, samples=100: [Check("connection.forced", samples, 1.0, 0.5)]
    monkeypatch.setitem(report._SUITE_FUNCS, "connection", failing)
    code = main(["verify", "--n", "1", "--suite", "connection", "--samples", "5",
                 "--out", str(out)])
    assert code == 1
    assert not json.loads(out.read_text())["all_pass"]


def test_readme_rank_one_example_exits_zero(tmp_path):
    """README's `ucgl verify --n 1 --suite all --seed 42` passes every check."""
    out = tmp_path / "rep.json"
    assert main(["verify", "--n", "1", "--suite", "all", "--seed", "42", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["all_pass"]


def test_suite_alone_draws_what_it_draws_inside_all():
    """Each suite has its own stream, so --suite groupoid repeats its checks from 'all'."""
    config = {"n": 2, "seed": 5, "samples": 10}
    alone = run_suite(config | {"suite": "groupoid"}).to_dict()["checks"]
    within = [c for c in run_suite(config | {"suite": "all"}).to_dict()["checks"]
              if c["name"].startswith("groupoid.")]
    assert alone and alone == within


def test_cli_derive_roots_search_failure_exit_code():
    assert main(["derive-roots", "--n", "3", "--budget", "0"]) == 3


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "1", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_cli_derive_roots(tmp_path):
    out = tmp_path / "roots_n2.json"
    code = main(["derive-roots", "--n", "2", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["n"] == 2 and data["survivor_count"] >= 1
    assert sorted(map(tuple, data["R1"])) == [(1, 0)]


def test_cli_report_determinism(tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--n", "1", "--suite", "stokes", "--samples", "10", "--seed", "5"]
    assert main(args + ["--out", str(f1)]) == 0
    assert main(args + ["--out", str(f2)]) == 0
    a = json.loads(f1.read_text())
    b = json.loads(f2.read_text())
    a.pop("timing")
    b.pop("timing")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1, "suite": "stokes", "samples": 5, "seed": 1}))
    out = tmp_path / "rep.json"
    # the explicit --suite flag overrides the config file entry
    code = main(["verify", "--n", "1", "--suite", "connection", "--config", str(cfg),
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["suite"] == "connection"
    assert data["checks"][0]["samples"] == 5  # samples came from the file


def test_cli_sample_slocal(tmp_path):
    out = tmp_path / "pts.json"
    code = main(["sample-slocal", "--n", "1", "--seed", "4", "--count", "3",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["points"]) == 3
    for rec in data["points"]:
        assert rec["flags"]["fixed_route"] and rec["flags"]["direct_route"]
        B = np.array([[complex(re, im) for re, im in row] for row in rec["B"]])
        assert B.shape == (2, 2)


@pytest.mark.parametrize("count", [0, -2])
def test_sample_count_below_one_is_a_usage_error(capsys, count):
    assert main(["sample-slocal", "--n", "1", "--seed", "4", "--count", str(count)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def _raise_precondition(rs, rng, samples=100):
    raise PreconditionError("det B differs from 1 beyond tolerance")


def test_raising_suite_becomes_error_record(monkeypatch):
    monkeypatch.setitem(report._SUITE_FUNCS, "stokes", _raise_precondition)
    rep = run_suite({"n": 1, "suite": "all", "samples": 5, "seed": 3})
    errors = [c for c in rep.checks if c.name.endswith(".error")]
    assert [c.name for c in errors] == ["stokes.error"]
    (err,) = errors
    assert err.samples == 0 and math.isfinite(err.max_residual) and not err.passed
    assert err.details == {"type": "PreconditionError",
                           "message": "det B differs from 1 beyond tolerance"}
    # the suites after the raising one still ran
    names = {c.name for c in rep.checks}
    assert {"connection.symmetry_anti", "involutions.involutivity", "bondal.axioms"} <= names
    assert not rep.all_passed
    json.loads(rep.to_json())  # the record serializes as strict JSON


def test_cli_verify_writes_report_when_a_suite_raises(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(report._SUITE_FUNCS, "connection", _raise_precondition)
    out = tmp_path / "rep.json"
    code = main(["verify", "--n", "1", "--suite", "connection", "--samples", "5",
                 "--out", str(out)])
    assert code == 1
    assert "error: det B differs from 1" in capsys.readouterr().err
    data = json.loads(out.read_text())
    assert [c["name"] for c in data["checks"]] == ["connection.error"]
    assert not data["all_pass"]


def test_cli_verify_search_failure_still_exits_3(monkeypatch):
    def no_survivor(n, time_budget=60.0):
        raise SearchFailureError("budget exhausted")

    monkeypatch.setattr(report, "derive_root_sets", no_survivor)
    assert main(["verify", "--n", "1", "--suite", "connection", "--samples", "5"]) == 3


def test_nan_residual_fails_checks_and_controls(monkeypatch):
    monkeypatch.setattr(report, "alpha_symmetry_residual", lambda *a, **k: math.nan)
    rs = derive_root_sets(1)
    checks = {c.name: c for c in report.suite_connection(rs, np.random.default_rng(3), samples=5)}
    assert all(math.isnan(c.max_residual) for c in checks.values())
    assert not checks["connection.symmetry_anti"].passed
    assert not checks["connection.negative_control"].passed


@pytest.mark.parametrize("samples", [0, -3])
def test_samples_below_one_is_a_usage_error(tmp_path, samples):
    with pytest.raises(UcglError):
        run_suite({"n": 1, "suite": "connection", "samples": samples})
    assert main(["verify", "--n", "1", "--suite", "connection", "--samples", str(samples)]) == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": samples}))
    assert main(["verify", "--n", "1", "--suite", "connection", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("content", [None, "[1, 2]", "{not json", '{"seed": "abc"}',
                                     '{"samples": null}', '{"time_budget": "x"}'])
def test_bad_config_file_is_a_usage_error(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    assert main(["verify", "--n", "1", "--suite", "connection", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_abbreviated_flag_overrides_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1, "suite": "connection", "samples": 5, "seed": 1}))
    out = tmp_path / "rep.json"
    # argparse accepts --sample for --samples; the flag must still win over the file
    assert main(["verify", "--n", "1", "--config", str(cfg), "--sample", "7",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    samples = {c["name"]: c["samples"] for c in data["checks"]}
    assert samples["connection.symmetry_anti"] == 7 and data["seed"] == 1


def test_cli_rank_from_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "suite": "connection", "samples": 3}))
    out = tmp_path / "rep.json"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n"] == 2 and data["seed"] == 42
    assert main(["verify", "--n", "1", "--config", str(cfg), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n"] == 1


@pytest.mark.parametrize("config", [None, {"suite": "connection", "samples": 3}])
def test_cli_no_rank_is_a_usage_error(tmp_path, capsys, config):
    args = ["verify", "--suite", "connection", "--samples", "3"]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args += ["--config", str(cfg)]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("config", [{"n": 2.7}, {"n": True}, {"n": 1, "samples": 10.9},
                                    {"n": 1, "seed": 1.5}, {"n": 1, "samples": False},
                                    {"n": 1, "time_budget": True}])
def test_config_values_are_not_truncated(tmp_path, config):
    with pytest.raises(UcglError):
        run_suite({"suite": "connection", "samples": 3, **config})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["verify", "--suite", "connection", "--config", str(cfg)]) == 2


def test_integral_float_config_values_are_accepted():
    rep = run_suite({"n": 1.0, "suite": "connection", "samples": 3.0, "seed": 5.0})
    samples = {c.name: c.samples for c in rep.checks}["connection.symmetry_anti"]
    assert (rep.n, rep.seed, samples) == (1, 5, 3)
    assert all(type(v) is int for v in (rep.n, rep.seed, samples))
