import json

import numpy as np
import pytest

from ucgl.cli import main
from ucgl.errors import UcglError
from ucgl import report
from ucgl.report import Check, run_suite


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
