import json
import math

import numpy as np
import pytest

from ucgl.cli import main
from ucgl.core import encode_matrix
from ucgl.errors import PreconditionError, SearchFailureError, UcglError
from ucgl import cli, groupoid, report, stokes
from ucgl.groupoid import draw_seed, random_slocal_points, sample_slocal_fiber
from ucgl.involutions import GroupoidPoint, slocal_membership
from ucgl.report import Check, run_suite
from ucgl.stokes import build_M, derive_root_sets, rand_palindromic_s


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


@pytest.mark.parametrize("n", [2, 3])
def test_memos_leave_the_report_unchanged(monkeypatch, n):
    """The same report, timing aside, from a cold memo, a warm one and none."""

    def checks():
        return run_suite({"n": n, "seed": 42, "samples": 10}).to_dict()["checks"]

    cold = checks()
    assert stokes._section_fit.cache_info().hits > 0
    assert groupoid._centralizer_basis.cache_info().hits > 0
    assert checks() == cold
    monkeypatch.setattr(stokes, "_section_fit", stokes._section_fit.__wrapped__)
    monkeypatch.setattr(groupoid, "_centralizer_basis", groupoid._centralizer_basis.__wrapped__)
    assert checks() == cold


def test_laws_trial_applies_sigma_five_times(roots, monkeypatch):
    """sigma(p) and theta(p) are reused: sp, sigma(sp), sigma(tp), sigma(pq), sigma(q),
    counted per point of each stacked call."""
    calls = []
    apply_sigma = report.apply_sigma

    def counted(rs, p, *args, **kwargs):
        calls.extend([None] * len(p.B))
        return apply_sigma(rs, p, *args, **kwargs)

    monkeypatch.setattr(report, "apply_sigma", counted)
    report.suite_involutions(roots[2], np.random.default_rng(42), samples=5)
    assert len(calls) == 25


def test_cli_derive_roots_search_failure_exit_code(monkeypatch):
    monkeypatch.setattr(stokes, "_candidate_passes", lambda *args: False)
    assert main(["derive-roots", "--n", "3"]) == 3


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "1", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_cli_derive_roots(tmp_path):
    out = tmp_path / "roots_n2.json"
    code = main(["derive-roots", "--n", "2", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["n"] == 2 and data["survivor_count"] == 2
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
    """sample-slocal draws its points' s, then their seeds, and samples and
    tests the points as one stack; its JSON equals the records built one
    point at a time from the primitives on those draws, at n = 1..4."""
    out = tmp_path / "pts.json"
    for n in (1, 2, 3, 4):
        code = main(["sample-slocal", "--n", str(n), "--seed", "4", "--count", "3",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["points"]) == 3
        for rec in data["points"]:
            assert rec["flags"]["fixed_route"] and rec["flags"]["direct_route"]
            B = np.array([[complex(re, im) for re, im in row] for row in rec["B"]])
            assert B.shape == (n + 1, n + 1)
        rs, rng = derive_root_sets(n), np.random.default_rng(4)
        s, seeds = rand_palindromic_s(rng, (3, n)), draw_seed(rng, 3)
        points = []
        for si, seed in zip(s, seeds):
            p = sample_slocal_fiber(rs, build_M(rs, si), seed)
            points.append({"B": encode_matrix(p.B), "A": encode_matrix(p.A),
                           "s": [[float(z.real), float(z.imag)] for z in p.s],
                           "flags": slocal_membership(rs, p, tol=1e-8)})
        assert data == {"n": n, "seed": 4, "points": points}


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("count", [1, 5, 2 * cli.SLOCAL_CHUNK + 1])
def test_cli_sample_slocal_text_is_json_dumps(tmp_path, capsys, n, count):
    """sample-slocal writes each record as it is encoded, and samples in
    chunks; the bytes, to a file and to stdout, are those of json.dumps of
    the whole document of one stack."""
    rs = derive_root_sets(n)
    p = random_slocal_points(rs, np.random.default_rng(7), count)
    member = slocal_membership(rs, p, tol=1e-8)
    points = [{"B": encode_matrix(q.B), "A": encode_matrix(q.A),
               "s": [[float(z.real), float(z.imag)] for z in q.s],
               "flags": {key: bool(flag[i]) for key, flag in member.items()}}
              for i, q in enumerate(p)]
    text = json.dumps({"n": n, "seed": 7, "points": points}, sort_keys=True, indent=2)
    argv = ["sample-slocal", "--n", str(n), "--seed", "7", "--count", str(count)]
    out = tmp_path / "pts.json"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == text.encode()
    assert main(argv) == 0
    assert capsys.readouterr().out == text + "\n"


def test_cli_sample_slocal_error_in_a_later_chunk(tmp_path, monkeypatch, capsys):
    """A chunk that raises stops sample-slocal with exit code 2 and removes
    the partial --out file; on stdout the earlier chunks' records stay."""
    real, calls = cli.sample_slocal_fiber, []

    def second_chunk_raises(rs, A, seed):
        calls.append(len(A))
        if len(calls) == 2:
            raise PreconditionError("det B differs from 1 beyond tolerance")
        return real(rs, A, seed)

    monkeypatch.setattr(cli, "sample_slocal_fiber", second_chunk_raises)
    argv = ["sample-slocal", "--n", "2", "--seed", "4", "--count", str(2 * cli.SLOCAL_CHUNK)]
    out = tmp_path / "pts.json"
    assert main(argv + ["--out", str(out)]) == 2
    assert calls == [cli.SLOCAL_CHUNK] * 2 and not out.exists()
    assert capsys.readouterr().err == "error: det B differs from 1 beyond tolerance\n"
    calls.clear()
    assert main(argv) == 2
    assert capsys.readouterr().out.count('"flags"') == cli.SLOCAL_CHUNK


@pytest.mark.parametrize("argv", [
    ["verify", "--n", "1", "--seed", "-1"],
    ["verify", "--config", "{config}"],
    ["sample-slocal", "--n", "1", "--seed", "-1"],
])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 1, "seed": -1}))
    assert main([a.format(config=config) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be at least 0, got -1\n"
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["derive-roots", "--n", "1"],
    ["verify", "--n", "1", "--suite", "connection", "--samples", "5"],
    ["sample-slocal", "--n", "1", "--seed", "4", "--count", "2"],
])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out.json"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


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


def test_cli_verify_writes_report_when_an_svd_fails(tmp_path, monkeypatch, capsys):
    """A NaN base makes np.linalg.svd raise LinAlgError in centralizer_basis, in
    the groupoid suite's tangent trial: the report is still written, with
    groupoid.error, and the exit code is 1, as for a UcglError."""
    real = report.random_points

    def nan_points(rs, rng, count):
        p = real(rs, rng, count)
        return GroupoidPoint(B=p.B, A=np.full_like(p.A, np.nan), s=p.s)

    monkeypatch.setattr(report, "random_points", nan_points)
    out = tmp_path / "rep.json"
    with np.errstate(invalid="ignore"):
        code = main(["verify", "--n", "2", "--suite", "groupoid", "--samples", "5",
                     "--out", str(out)])
    assert code == 1
    assert "error: SVD did not converge" in capsys.readouterr().err
    data = json.loads(out.read_text())
    checks = {c["name"]: c for c in data["checks"]}
    assert checks["groupoid.error"]["details"] == {"type": "LinAlgError",
                                                   "message": "SVD did not converge"}
    assert not data["all_pass"]


def test_cli_verify_search_failure_still_exits_3(monkeypatch):
    def no_survivor(n, cache_dir=None, force=False):
        raise SearchFailureError("no closed-form root-set orientation confirmed")

    monkeypatch.setattr(report, "derive_root_sets", no_survivor)
    assert main(["verify", "--n", "1", "--suite", "connection", "--samples", "5"]) == 3


def test_cli_sample_slocal_search_failure_exits_3(monkeypatch):
    def no_survivor(n, cache_dir=None, force=False):
        raise SearchFailureError("no closed-form root-set orientation confirmed")

    monkeypatch.setattr(cli, "derive_root_sets", no_survivor)
    assert main(["sample-slocal", "--n", "1", "--seed", "0", "--count", "2"]) == 3


def test_max_checks_read_the_largest_entry():
    """A trial's (count, k) residual array gives count samples and its largest
    entry; a NaN anywhere in an array gives NaN, which fails."""
    runs = {"a": np.array([[1e-3, 2e-3], [5e-3, 4e-3], [0.0, 1e-4]]),
            "b": np.array([[1e-3, math.nan], [0.0, 1e-4]]), "c": np.array([0.5, math.nan, 0.25])}
    a, b, c = report._max_checks(runs, {"a": 1e-2, "b": 1.0, "c": 1.0})
    assert (a.name, a.samples, a.max_residual, a.passed) == ("a", 3, 5e-3, True)
    assert (b.samples, c.samples) == (2, 3)
    assert all(math.isnan(x.max_residual) and not x.passed for x in (b, c))


def test_nan_residual_fails_checks_and_controls(monkeypatch):
    # one NaN residual per sample of the stacked input
    monkeypatch.setattr(report, "alpha_symmetry_residual",
                        lambda kind, inp, **k: np.full(np.shape(inp.zeta), math.nan))
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
                                     '{"samples": null}'])
def test_bad_config_file_is_a_usage_error(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    assert main(["verify", "--n", "1", "--suite", "connection", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("suite", [["stokes"], {"stokes": 1}, 3])
def test_non_string_suite_in_config_is_a_usage_error(tmp_path, capsys, suite):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 1, "suite": suite}))
    assert main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: unknown suite {suite!r}\n"


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
                                    {"n": 1, "seed": 1.5}, {"n": 1, "samples": False}])
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
