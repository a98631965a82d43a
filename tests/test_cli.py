"""Command-line interface: envelopes, precedence, exit codes, CSV output.

Everything runs in-process through run(argv) so exit codes and file
side effects can be asserted without spawning subprocesses.
"""

import contextlib
import io
import json
import math
import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from critshe import cli
from critshe.cli import _OPTIONS, build_parser, canonical_json, config_hash, run

MIX_F = '[[1.0,[0.3,-0.2],0.8]]'
MIX_Z = '[[1.0,[0.0,0.1],0.5]]'


def run_to_file(tmp_path, argv, name="env.json"):
    out = tmp_path / name
    code = run(argv + ["--output", str(out)])
    env = json.loads(out.read_text()) if out.exists() else None
    return code, env


class TestEnvelope:
    def test_diagrams_count(self, tmp_path):
        code, env = run_to_file(tmp_path, ["diagrams", "--n", "3", "--m", "2", "--count"])
        assert code == 0
        assert env["schema_version"] == "1"
        assert env["command"] == "diagrams"
        assert env["results"]["count"] == {"value": 6, "error": "exact"}
        assert "diagrams" not in env["results"]

    def test_config_echo_and_hash(self, tmp_path):
        code, env = run_to_file(tmp_path, ["diagrams", "--n", "3", "--m", "1"])
        assert code == 0
        assert env["config"]["command"] == "diagrams"
        for hidden in ("output", "csv_path", "stable_output", "func"):
            assert hidden not in env["config"]
        assert len(env["config_hash"]) == 40
        assert all(c in "0123456789abcdef" for c in env["config_hash"])
        # the hash is over the canonical config: recomputable from the echo
        assert env["config_hash"] == config_hash(env["config"])

    def test_hash_tracks_config_changes(self, tmp_path):
        _, env1 = run_to_file(tmp_path, ["diagrams", "--n", "3", "--m", "1"], "a.json")
        _, env2 = run_to_file(tmp_path, ["diagrams", "--n", "4", "--m", "1"], "b.json")
        assert env1["config_hash"] != env2["config_hash"]

    def test_stable_output_byte_identical(self, tmp_path):
        argv = ["moment", "--n", "2", "--t", "0.5", "--beta-star", "0.0",
                "--f", MIX_F, "--z-ic", MIX_Z, "--stable-output"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(argv + ["--output", str(a)]) == 0
        assert run(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["timings"]["total_seconds"] == 0.0

    def test_stdout_default(self, capsys):
        assert run(["diagrams", "--n", "2", "--m", "1", "--count"]) == 0
        env = json.loads(capsys.readouterr().out)
        assert env["results"]["count"]["value"] == 1

    def test_every_numeric_result_carries_error_field(self, tmp_path):
        code, env = run_to_file(
            tmp_path,
            ["moment", "--n", "2", "--t", "0.5", "--beta-star", "0.0",
             "--f", MIX_F, "--z-ic", MIX_Z],
        )
        assert code == 0
        r = env["results"]
        assert r["beta_star"]["error"] == "exact"
        assert r["free_term"]["error"] == "exact"
        assert isinstance(r["total"]["error"], float)
        for d in r["diagrams"]:
            assert "error" in d

    def test_non_finite_serialized_as_string(self, tmp_path):
        # plateau regime: truncation refuses to extrapolate -> inf tail,
        # nonconvergence warning -> exit 3, envelope still valid JSON
        code, env = run_to_file(
            tmp_path,
            ["moment", "--n", "3", "--t", "8.0", "--beta-star", "2.0",
             "--m-max", "2", "--mode", "quasi-monte-carlo", "--samples", "4096",
             "--f", MIX_F, "--z-ic", MIX_Z, "--rel-tol", "0.1"],
        )
        assert code == 3
        assert env["results"]["truncation_tail_estimate"] == "Infinity"
        assert env["warnings"]

    def test_canonical_json_is_sorted_and_17g(self):
        text = canonical_json({"b": 1.0 / 3.0, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        # floats are normalized through 17 significant digits (a round-trip
        # no-op for doubles), then serialized as the shortest exact repr
        assert "0.3333333333333333" in text
        assert canonical_json({"b": 1.0 / 3.0, "a": 2}) == text
        # non-finite floats become strings so the JSON stays standard
        assert '"Infinity"' in canonical_json({"x": math.inf})
        assert '"NaN"' in canonical_json({"x": math.nan})


class TestCsv:
    def test_moment_rows_are_diagrams_plus_one(self, tmp_path):
        csv_path = tmp_path / "m.csv"
        code, env = run_to_file(
            tmp_path,
            ["moment", "--n", "2", "--t", "0.5", "--beta-star", "0.0",
             "--f", MIX_F, "--z-ic", MIX_Z, "--csv", str(csv_path)],
        )
        assert code == 0
        raw = csv_path.read_bytes()
        assert b"\r\n" in raw  # RFC-4180 line endings
        lines = raw.decode().split("\r\n")
        lines = [ln for ln in lines if ln]
        assert lines[0] == "kind,m,pairs,value,error"
        assert len(lines) - 1 == len(env["results"]["diagrams"]) + 1
        assert lines[1].startswith("free,0,,")
        assert lines[1].endswith(",exact")

    def test_diagrams_listing(self, tmp_path):
        csv_path = tmp_path / "d.csv"
        code, env = run_to_file(
            tmp_path, ["diagrams", "--n", "3", "--m", "1", "--csv", str(csv_path)]
        )
        assert code == 0
        lines = [ln for ln in csv_path.read_bytes().decode().split("\r\n") if ln]
        assert lines[0] == "pairs,degenerate,particles_used"
        assert len(lines) == 1 + 3
        assert lines[1] == "12,true,1 2"


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


class TestPrecedence:
    def test_defaults_cover_exactly_the_flags(self):
        # each table row is one flag of its subcommand, stored under its own
        # key, and its default passes its own converter and choices
        parser = build_parser()
        for command, options in _OPTIONS.items():
            dests = [opt.dest for opt in options]
            assert len(set(dests)) == len(dests), command
            argv = [command]
            for opt in options:
                argv += [opt.flag] if opt.convert is cli._bool else [opt.flag, "x"]
            given = vars(parser.parse_args(argv))
            assert set(given) - {"command", "func"} == set(dests), command
            assert set(cli._resolve(command, {})) == set(dests), command

    # pinned echo and hash of one default-valued run per subcommand: a table
    # row that shifts a default, or a converter that changes its type, fails here
    PINNED = {
        "moment": (["--n", "1", "--t", "1", "--beta-star", "0"],
                   "7c0df70e6dc94186d618046672703de39db1ec99"),
        "simulate": (["--epsilon", "0.25", "--times", "0"],
                     "effa8effecf73820170aa705d905c0c9c5f982a7"),
        "diagrams": (["--n", "3", "--m", "2"], "8e3ba8f5eef4fb016b42fd025074e7cc9ba8c1db"),
        "verify": ([], "4767ed984ed3dd47aecf12fa712da31b03840252"),
        "betaconst": ([], "8ca7d32822f01e55ccac0f16f7efe577ba6593e1"),
    }
    UNIT = [[1.0, [0.0, 0.0], 0.5]]
    ECHO = {
        "moment": {"beta0": None, "beta_star": 0.0, "f": UNIT, "m_max": 6,
                   "mode": "adaptive-quadrature", "mollifier": "bump", "n": 1,
                   "rel_tol": 0.001, "samples": 65536, "seed": 2026, "t": 1.0, "z_ic": UNIT},
        "simulate": {"beta0": 0.0, "domain": 8.0, "dt": None, "epsilon": 0.25, "f": UNIT,
                     "grid": 256, "mollifier": "bump", "n": 2, "replicas": 2000,
                     "seed": 2026, "times": [0.0], "z_ic": UNIT},
        "diagrams": {"count_only": False, "m": 2, "n": 3},
        "verify": {"suite": "identities"},
        "betaconst": {"beta0": 0.0, "mollifier": "bump"},
    }

    @pytest.mark.parametrize("command", sorted(PINNED))
    def test_default_echo_pinned(self, command, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_verify_identities", lambda: [
            {"identity": "stub", "residual": 0.0, "tolerance": 1.0}])
        argv, digest = self.PINNED[command]
        code, env = run_to_file(tmp_path, [command] + argv)
        assert code == 0
        assert env["config"] == {**self.ECHO[command], "command": command,
                                 "config": None, "threads": None}
        assert env["config_hash"] == digest

    def test_config_values_typed_like_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": "3", "m": 1}))
        code, env = run_to_file(tmp_path, ["diagrams", "--config", str(cfg)])
        assert code == 0 and env["config"]["n"] == 3

    def test_flag_beats_config_beats_default(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "m": 1}))
        # config file alone
        code, env = run_to_file(
            tmp_path, ["diagrams", "--config", str(cfg)], "a.json"
        )
        assert code == 0 and env["results"]["count"]["value"] == 6
        # flag overrides the file
        code, env = run_to_file(
            tmp_path, ["diagrams", "--config", str(cfg), "--n", "3"], "b.json"
        )
        assert code == 0 and env["results"]["count"]["value"] == 3
        assert env["config"]["n"] == 3
        assert env["config"]["m"] == 1

    def test_unknown_config_key_rejected_before_compute(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "m": 1, "banana": True}))
        assert run(["diagrams", "--config", str(cfg)]) == 2
        assert "banana" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["count_only", "stable_output"])
    @pytest.mark.parametrize("value", ["no", "yes", 0, 1, None, [True]])
    def test_switches_take_only_json_booleans(self, key, value, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 3, "m": 1, key: value}))
        assert run(["diagrams", "--config", str(cfg)]) == 2
        assert repr(key) in assert_one_error_line(capsys)
        cfg.write_text(json.dumps({"n": 3, "m": 1, key: True}))
        assert run(["diagrams", "--config", str(cfg), "--output", str(tmp_path / "e.json")]) == 0

    def test_choices_checked_for_flags_and_config(self, tmp_path, capsys):
        base = ["moment", "--n", "1", "--t", "1", "--beta-star", "0"]
        assert run(base + ["--mollifier", "foo"]) == 2
        assert "foo" in assert_one_error_line(capsys)
        assert run(base + ["--mode", "simpson"]) == 2
        assert_one_error_line(capsys)
        cfg = tmp_path / "cfg.json"
        for command, extra in (("moment", {"n": 1, "t": 1, "beta_star": 0, "mollifier": "foo"}),
                               ("simulate", {"epsilon": 0.5, "times": "0", "mollifier": "foo"}),
                               ("betaconst", {"mollifier": "foo"}),
                               ("verify", {"suite": "everything"})):
            cfg.write_text(json.dumps(extra))
            assert run([command, "--config", str(cfg)]) == 2, command
            assert_one_error_line(capsys)

    def test_config_mixture_as_text_or_data(self, tmp_path):
        argv = ["moment", "--n", "2", "--t", "0.5", "--beta-star", "0", "--stable-output"]
        envs = []
        for i, f in enumerate((MIX_F, json.loads(MIX_F))):
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(json.dumps({"f": f, "z_ic": MIX_Z}))
            envs.append(run_to_file(tmp_path, argv + ["--config", str(cfg)], f"e{i}.json"))
        envs.append(run_to_file(tmp_path, argv + ["--f", MIX_F, "--z-ic", MIX_Z], "e2.json"))
        assert [code for code, _ in envs] == [0, 0, 0]
        assert envs[0][1] == envs[1][1] == envs[2][1]
        assert envs[0][1]["config"]["f"] == json.loads(MIX_F)

    def test_malformed_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["diagrams", "--config", str(cfg), "--n", "2", "--m", "1"]) == 2


class TestExitCodes:
    def test_usage_errors_exit_two(self, capsys, tmp_path):
        assert run(["moment", "--t", "1.0"]) == 2  # missing --n
        assert "--n" in capsys.readouterr().err
        assert run(["nonsense"]) == 2  # unknown command (argparse)
        capsys.readouterr()
        assert run(["moment", "--n", "2", "--t", "1.0", "--beta-star", "0",
                    "--mode", "monte-carlo", "--samples", "999"]) == 2
        capsys.readouterr()
        assert run(["moment", "--n", "2", "--t", "1.0", "--beta-star", "0",
                    "--f", "not-json"]) == 2
        capsys.readouterr()
        assert run(["simulate", "--epsilon", "0.1", "--grid", "64",
                    "--domain", "8.0", "--times", "0.1"]) == 2  # under-resolved
        capsys.readouterr()
        assert run(["simulate", "--epsilon", "0.25", "--grid", "128",
                    "--domain", "8.0", "--times", "a,b"]) == 2
        assert_one_error_line(capsys)
        # config values pass through the flag's own type
        for command, cfg in (("moment", {"n": "abc", "t": 1, "beta_star": 0}),
                             ("moment", {"n": 2, "t": [1], "beta_star": 0}),
                             ("moment", {"n": 2, "t": 1, "beta_star": 0, "seed": True}),
                             ("moment", {"n": 2.5, "t": 1, "beta_star": 0}),
                             ("diagrams", {"n": 3, "m": [1]}),
                             ("diagrams", {"n": {"k": 3}, "m": 1})):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            assert run([command, "--config", str(path)]) == 2, cfg
            assert_one_error_line(capsys)
        # path keys must be strings: a number would be taken as a file descriptor
        for key in ("output", "csv_path", "config"):
            for bad in (["x.json"], {"a": 1}, 7):
                path.write_text(json.dumps({"n": 3, "m": 1, key: bad}))
                assert run(["diagrams", "--config", str(path)]) == 2, (key, bad)
                assert repr(key) in assert_one_error_line(capsys)

    def test_accuracy_warning_exits_three(self, tmp_path):
        code, env = run_to_file(
            tmp_path,
            ["moment", "--n", "2", "--t", "1.0", "--beta-star", "0.0",
             "--mode", "monte-carlo", "--samples", "1024",
             "--f", MIX_F, "--z-ic", MIX_Z],
        )
        assert code == 3
        assert any("error estimate" in w for w in env["warnings"])

    def test_numerical_failure_exits_four_without_envelope(self, tmp_path, capsys):
        out = tmp_path / "never.json"
        code = run(["moment", "--n", "2", "--t", "1000.0", "--beta-star", "0.0",
                    "--output", str(out)])
        assert code == 4
        assert not out.exists()
        assert "numerical failure" in capsys.readouterr().err

    def test_version_exits_zero(self, capsys):
        assert run(["--version"]) == 0
        assert "critshe" in capsys.readouterr().out


class TestThreads:
    def test_bad_thread_count_rejected(self, capsys):
        for bad in ("0", "x"):
            argv = ["moment", "--n", "2", "--t", "0.5", "--beta-star", "0.0", "--threads", bad]
            assert run(argv) == 2, bad
            assert_one_error_line(capsys)


class TestVerify:
    def test_identity_suite_passes(self, tmp_path):
        csv_path = tmp_path / "v.csv"
        code, env = run_to_file(tmp_path, ["verify", "--csv", str(csv_path)])
        assert code == 0
        checks = env["results"]["checks"]
        assert len(checks) == 6
        assert env["results"]["all_pass"] is True
        names = {c["identity"] for c in checks}
        assert names == {
            "gamma-recursion-moment",
            "interaction-weight-laplace",
            "interaction-weight-convolution",
            "resolvent-bessel-match",
            "mollifier-unit-mass",
            "pair-profile-unit-mass",
        }
        for c in checks:
            assert c["status"] == "pass"
            assert c["residual"] <= c["tolerance"]
        lines = [ln for ln in csv_path.read_bytes().decode().split("\r\n") if ln]
        assert len(lines) == 1 + 6

    def test_unknown_suite(self, capsys):
        assert run(["verify", "--suite", "everything"]) == 2
        capsys.readouterr()


class TestBetaconst:
    def test_frozen_constants(self, tmp_path):
        code, env = run_to_file(tmp_path, ["betaconst"])
        assert code == 0
        r = env["results"]
        assert r["euler_gamma"]["value"] == pytest.approx(0.5772156649015329, abs=0)
        # the converged beta_phi and its beta_star = 2 (log 2 - beta_phi - gamma)
        assert r["beta_phi"]["value"] == pytest.approx(-0.2500630075714149, abs=1e-12)
        assert r["beta_star"]["value"] == pytest.approx(0.7319890464596546, abs=1e-12)
        assert r["pair_profile_at_zero"]["value"] == pytest.approx(
            0.5418154448231021, abs=1e-10
        )

    def test_beta0_shifts_beta_star(self, tmp_path):
        _, env0 = run_to_file(tmp_path, ["betaconst"], "a.json")
        _, env1 = run_to_file(tmp_path, ["betaconst", "--beta0", "0.5"], "b.json")
        shift = env1["results"]["beta_star"]["value"] - env0["results"]["beta_star"]["value"]
        assert shift == pytest.approx(1.0, abs=1e-12)


class TestSimulate:
    def test_time_series_envelope_and_csv(self, tmp_path):
        csv_path = tmp_path / "s.csv"
        code, env = run_to_file(
            tmp_path,
            ["simulate", "--epsilon", "0.5", "--grid", "64", "--domain", "8.0",
             "--replicas", "100", "--times", "0,0.05", "--seed", "7",
             "--f", MIX_F, "--z-ic", MIX_Z, "--threads", "2",
             "--csv", str(csv_path)],
        )
        assert code == 0
        moments = env["results"]["moments"]
        assert [m["t"] for m in moments] == [0.0, 0.05]
        assert moments[0]["stderr"] == 0.0
        assert env["results"]["beta_eps"]["error"] == "exact"
        assert env["config"]["times"] == [0.0, 0.05]
        lines = [ln for ln in csv_path.read_bytes().decode().split("\r\n") if ln]
        assert lines[0] == "t,estimate,stderr"
        assert len(lines) == 1 + 2

    def test_deterministic_across_thread_counts(self, tmp_path):
        argv = ["simulate", "--epsilon", "0.5", "--grid", "64", "--domain", "8.0",
                "--replicas", "100", "--times", "0.05", "--seed", "7",
                "--f", MIX_F, "--z-ic", MIX_Z, "--stable-output"]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(argv + ["--threads", "1", "--output", str(a)]) == 0
        assert run(argv + ["--threads", "3", "--output", str(b)]) == 0
        ea, eb = json.loads(a.read_text()), json.loads(b.read_text())
        assert ea["results"] == eb["results"]


# Candidate values per option of the fast commands: valid ones, and ones a
# check must reject.  "{tmp}" is the example's scratch directory.
MIXTURES = (MIX_F, "[[0.4,[0,0],0.5],[0.6,[1,-1],0.2]]", "[]", "[[1,2,3]]", "not-json",
            "[[1.0,[0.0,0.0],-0.5]]", "[[NaN,[0.0,0.0],0.5]]")
FUZZ_VALUES = {
    "n": (1, 2, 0, -1, "x", 2.5), "m": (0, 1, 2, 3, -1, "x"),
    "t": (0.5, 1.0, 0.0, -1.0, 1000.0, "nan", "inf", "x"),
    "beta_star": (0.0, -1.0, 1.5, "nan", "x"), "beta0": (0.0, 0.5, "nan", "-inf"),
    "mollifier": ("bump", "gauss"), "f": MIXTURES, "z_ic": MIXTURES,
    "m_max": (0, 1, 2, -1, "x"),
    "mode": ("adaptive-quadrature", "quasi-monte-carlo", "monte-carlo", "simpson"),
    "samples": (1024, 999, 0, -5), "rel_tol": (1e-3, 0.0, -1.0, "nan"),
    "seed": (0, 7, -3, 2**70), "suite": ("identities", "everything"),
    "count_only": (True, False, "yes"), "stable_output": (True, False, "no"),
    "threads": (1, 2, 0, "x"),
    "output": ("-", "{tmp}/env.json", "{tmp}/missing/env.json"),
    "csv_path": ("{tmp}/t.csv", "{tmp}/missing/t.csv"),
}
CONFIG_TEXTS = ("{cfg}", "{cfg_extra}", "{{not json", "[1, 2]")


def _flags(command: str) -> dict:
    """dest -> flag of every option of ``command`` except --config."""
    return {opt.dest: opt.flag for opt in _OPTIONS[command] if opt.dest != "config"}


class TestContractOverGeneratedInput:
    """Every input ends in exit 0/2/3/4 and writes either one envelope or
    exactly one error line, as the README's exit-code contract says."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_code_and_one_report(self, data, monkeypatch):
        # verify's suite takes seconds and TestVerify runs it; here its
        # option handling is what is under test
        monkeypatch.setattr(cli, "_verify_identities", lambda: [
            {"identity": "stub", "residual": 0.0, "tolerance": 1.0}])
        command = data.draw(st.sampled_from(("diagrams", "betaconst", "verify", "moment")))
        flags = _flags(command)
        keys = data.draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
        with tempfile.TemporaryDirectory() as tmp:
            argv, file_cfg = [command], {}
            if command == "moment":  # tiny budgets: n and m_max stay <= 2
                argv += ["--n", str(data.draw(st.sampled_from((1, 2)))), "--m-max", "2"]
            for key in keys:
                value = data.draw(st.sampled_from(FUZZ_VALUES[key]), label=key)
                if isinstance(value, str):
                    value = value.format(tmp=tmp)
                if data.draw(st.booleans(), label=f"{key} in config"):
                    file_cfg[key] = value
                elif value is True:
                    argv.append(flags[key])
                elif value is not False:
                    argv += [flags[key], str(value)]
            if file_cfg or data.draw(st.booleans(), label="config file"):
                text = data.draw(st.sampled_from(CONFIG_TEXTS), label="config text").format(
                    cfg=json.dumps(file_cfg), cfg_extra=json.dumps({**file_cfg, "banana": 1}))
                path = pathlib.Path(tmp) / "cfg.json"
                path.write_text(text)
                argv += ["--config", str(path)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            env_file = pathlib.Path(tmp) / "env.json"
            envelopes = [text for text in (out.getvalue(),
                                           env_file.read_text() if env_file.exists() else "")
                         if text]
        reports = [ln for ln in err.getvalue().splitlines()
                   if "error:" in ln or ln.startswith("numerical failure:")]
        assert code in (0, 2, 3, 4), (argv, code)
        if envelopes:
            assert len(envelopes) == 1 and not reports, (argv, envelopes, reports)
            assert json.loads(envelopes[0])["command"] == command
        else:
            assert code in (2, 4) and len(reports) == 1, (argv, code, err.getvalue())
