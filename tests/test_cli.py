import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasivar import ExponentConfig, cli
from quasivar.cli import (ConfigError, RunConfig, json_line, main,
                          parse_config)

COUPLED_TEXT = """\
# coupled supercritical reference configuration
N = 2
p1 = 1.5
p2 = 1.5
s1 = 1
s2 = 1
q1 = 8
q2 = 8
gamma1 = 4
gamma2 = 4
theta1 = 1/8
theta2 = 1/8
c_star = 1
dimension = 2
n = 17
"""

DECOUPLED_TEXT = """\
N = 2
p1 = 2
p2 = 2
s1 = 0
s2 = 0
q1 = 4
q2 = 4
theta1 = 0.25
theta2 = 0.25
c_star = 0
dimension = 2
n = 17
"""


@pytest.fixture
def coupled_path(tmp_path):
    p = tmp_path / "coupled.txt"
    p.write_text(COUPLED_TEXT)
    return str(p)


@pytest.fixture
def decoupled_path(tmp_path):
    p = tmp_path / "decoupled.txt"
    p.write_text(DECOUPLED_TEXT)
    return str(p)


def with_values(text: str, values: dict) -> str:
    """Config text with the given keys set, replacing their lines."""
    kept = [line for line in text.splitlines()
            if line.split("=")[0].strip() not in values]
    return "\n".join(kept + [f"{k} = {v}" for k, v in values.items()]) + "\n"


def run_cli(capsys, *argv) -> tuple[int, list[dict]]:
    code = main(list(argv))
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.strip().splitlines()]
    return code, records


class TestConfigParsing:
    def test_parses_values_and_comments(self, coupled_path):
        rc = parse_config(coupled_path)
        assert rc.p1 == 1.5 and rc.theta1 == 0.125 and rc.n == 17

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("p3 = 2\n")
        with pytest.raises(ConfigError):
            parse_config(str(p))

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "dup.txt"
        p.write_text("p1 = 2\np1 = 3\n")
        with pytest.raises(ConfigError):
            parse_config(str(p))

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("just some words\n")
        with pytest.raises(ConfigError):
            parse_config(str(p))

    @pytest.mark.parametrize("key, value", [
        ("tol", "nan"), ("r0", "inf"), ("p1", "-inf"), ("n", "2"),
        ("dimension", "3"), ("dimension", "0"), ("path_points", "2"),
        ("r0", "-1"), ("r0", "0"), ("count", "0"), ("n_geo_samples", "0"),
        ("tol", "0"), ("epsilon_reg", "-1"), ("gradcheck_runs", "0"),
        ("p1", "1"), ("s1", "-0.5"), ("q1", "0.5"), ("theta1", "0"),
        ("c_star", "-1"), ("N", "0"), ("seed", "-1"), ("max_iters", "-1"),
        ("nontrivial_floor", "0"), ("nontrivial_floor", "-1")])
    def test_out_of_range_value_exits_two(self, capsys, tmp_path, key,
                                          value):
        p = tmp_path / "bad.txt"
        p.write_text(with_values(DECOUPLED_TEXT, {key: value}))
        with pytest.raises(ConfigError):
            parse_config(str(p))
        code, records = run_cli(capsys, "solve", "--config", str(p))
        assert code == 2
        assert [r["record"] for r in records] == ["error"]

    def test_unreadable_file_exits_two(self, capsys, tmp_path):
        code, records = run_cli(capsys, "check", "--config",
                                str(tmp_path / "missing.txt"))
        assert code == 2
        assert [r["record"] for r in records] == ["error"]
        assert records[0]["message"].startswith("cannot read config file: ")

    @pytest.mark.parametrize("key, value, option, flag", [
        ("n", "2", "--grid-n", "9"), ("tol", "0", "--tol", "1e-6")])
    def test_override_replaces_file_value_before_checks(
            self, capsys, tmp_path, key, value, option, flag):
        p = tmp_path / "cfg.txt"
        p.write_text(with_values(DECOUPLED_TEXT, {key: value}))
        code, records = run_cli(capsys, "certify", "--config", str(p),
                                option, flag)
        assert code == 0
        assert [r["record"] for r in records] == ["header",
                                                  "geometry_certificate"]

    def test_out_of_range_override_exits_two(self, capsys, decoupled_path):
        code, records = run_cli(capsys, "solve", "--config", decoupled_path,
                                "--grid-n", "2")
        assert code == 2
        assert [r["record"] for r in records] == ["error"]

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_out_of_range_seed_override_exits_two(self, capsys,
                                                  decoupled_path, seed):
        # README documents --seed U64; outside it the run must not start
        code, records = run_cli(capsys, "certify", "--config",
                                decoupled_path, "--seed", seed)
        assert code == 2
        assert [r["record"] for r in records] == ["error"]

    def test_non_boolean_value_exits_two(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text(DECOUPLED_TEXT + "quiet = maybe\n")
        code, records = run_cli(capsys, "check", "--config", str(p))
        assert code == 2
        assert records == [{"record": "error", "message":
                            "key 'quiet': expected boolean, got 'maybe'"}]

    def test_defaults_documented_in_dataclass(self):
        rc = RunConfig()
        assert rc.tol == 1e-6 and rc.path_points == 33 and rc.seed == 0
        # the decoupled p = 2 config that the README states
        assert rc.model.cfg == ExponentConfig(
            N=2, p1=2.0, p2=2.0, s1=0.0, s2=0.0, q1=4.0, q2=4.0, gamma1=2.0,
            gamma2=2.0, theta1=0.25, theta2=0.25, c_star=0.0)


class TestCommandLine:
    """A command-line value is parsed by a file value's rules, and every
    malformed command line is one error record with exit 2."""

    @pytest.mark.parametrize("flags, values", [
        (("--tol", "1/8"), {"tol": "1/8"}),
        (("--quiet", "--grid-n", "9"), {"quiet": "true", "n": "9"})])
    def test_flag_dumps_as_the_file_value(self, capsys, tmp_path,
                                          decoupled_path, flags, values):
        p = tmp_path / "cfg.txt"
        p.write_text(with_values(DECOUPLED_TEXT, values))
        _, by_file = run_cli(capsys, "dump", "--config", str(p))
        code, by_flag = run_cli(capsys, "dump", "--config", decoupled_path,
                                *flags)
        assert code == 0
        assert by_flag[0]["config_hash"] == by_file[0]["config_hash"]
        assert by_flag[-1] == by_file[-1]

    @pytest.mark.parametrize("option, value, key, expected", [
        ("--seed", "x", "seed", "integer"),
        ("--grid-n", "1.5", "n", "integer"),
        ("--tol", "a/b", "tol", "number")])
    def test_malformed_flag_value_exits_two(self, capsys, decoupled_path,
                                            option, value, key, expected):
        code, records = run_cli(capsys, "check", "--config", decoupled_path,
                                option, value)
        assert code == 2
        message = f"key '{key}': expected {expected}, got '{value}'"
        assert records == [{"record": "error", "message": message}]

    @pytest.mark.parametrize("argv", [
        ("check",), ("frob", "--config", "{config}"),
        ("check", "--config", "{config}", "--bogus"),
        ("check", "--config", "{config}", "--tol")],
        ids=["missing-config", "unknown-command", "unknown-flag",
             "flag-without-value"])
    def test_malformed_command_line_exits_two(self, capsys, decoupled_path,
                                              argv):
        code = main([arg.format(config=decoupled_path) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["record"] for r in records] == ["error"]

    def test_non_utf8_file_exits_two(self, capsys, tmp_path):
        p = tmp_path / "latin1.txt"
        p.write_bytes(b"n = 9\n# \xff\n")
        code, records = run_cli(capsys, "check", "--config", str(p))
        assert code == 2
        assert [r["record"] for r in records] == ["error"]
        assert records[0]["message"].startswith(
            "cannot read config file: 'utf-8' codec can't decode byte 0xff")


class TestSerializer:
    def test_seventeen_digit_round_trip(self):
        x = 0.1234567890123456789
        line = json_line({"x": x})
        assert json.loads(line)["x"] == x

    def test_special_floats(self):
        line = json_line({"a": math.inf, "b": -math.inf, "c": math.nan})
        parsed = json.loads(line)
        assert parsed["a"] == math.inf and parsed["b"] == -math.inf
        assert math.isnan(parsed["c"])

    def test_nested(self):
        line = json_line({"xs": [1, 2.5, "s", True, None]})
        assert json.loads(line) == {"xs": [1, 2.5, "s", True, None]}


class TestCheckCommand:
    def test_admissible_exits_zero(self, capsys, coupled_path):
        code, records = run_cli(capsys, "check", "--config", coupled_path)
        assert code == 0
        assert records[0]["record"] == "header"
        assert records[0]["tool"] == "quasivar"
        summary = records[-1]
        assert summary["admissible"] is True

    def test_gamma_five_exits_one_naming_failures(self, capsys, tmp_path):
        p = tmp_path / "gamma5.txt"
        p.write_text(COUPLED_TEXT.replace("gamma1 = 4", "gamma1 = 5")
                     .replace("gamma2 = 4", "gamma2 = 5"))
        code, records = run_cli(capsys, "check", "--config", str(p))
        assert code == 1
        failing = records[-1]["failing"]
        assert any(name.startswith("exj02") for name in failing)

    @pytest.mark.parametrize("literal", ["true", "false"])
    def test_literal_gamma_theta(self, capsys, tmp_path, literal):
        # gamma = (4, 2), theta = 1/8: gamma_1 theta_1 + gamma_2 theta_2
        # falls 1/4 short of 1, the literal gamma_1 (theta_1 + theta_2)
        # meets it exactly
        p = tmp_path / "literal.txt"
        p.write_text(with_values(COUPLED_TEXT, {"gamma2": "2",
                                                "exj01_literal": literal}))
        code, records = run_cli(capsys, "check", "--config", str(p))
        rec = next(r for r in records if r.get("id") == "exj01_gamma_theta")
        if literal == "true":
            assert code == 0
            assert (rec["satisfied"], rec["margin"]) == (True, 0.0)
            assert rec["note"].endswith("(literal form)")
        else:
            assert code == 1
            assert (rec["satisfied"], rec["margin"]) == (False, -0.25)
            assert records[-1]["failing"] == ["exj01_gamma_theta"]

    def test_quiet_drops_detail_records(self, capsys, decoupled_path):
        code, records = run_cli(capsys, "check", "--config", decoupled_path,
                                "--quiet")
        assert code == 0
        assert [r["record"] for r in records] == ["header", "check_summary"]

    def test_unknown_key_exits_two(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("p3 = 2\n")
        code, records = run_cli(capsys, "check", "--config", str(p))
        assert code == 2
        assert records[-1]["record"] == "error"


class TestDeriveConstants:
    def test_derive(self, capsys, coupled_path):
        code, records = run_cli(capsys, "derive", "--config", coupled_path)
        assert code == 0
        rec = records[-1]
        assert rec["t1"] == 7.0 and rec["t3"] == 8.25 and rec["qbar1"] == 8.25

    def test_derive_q1_equal_gamma1_exits_one(self, capsys, tmp_path):
        p = tmp_path / "q1_gamma1.txt"
        p.write_text(with_values(COUPLED_TEXT, {"q1": "4"}))
        code, records = run_cli(capsys, "derive", "--config", str(p))
        assert code == 1
        assert [r["record"] for r in records] == ["header", "error"]
        assert records[-1]["message"] == (
            "coupled case requires q_i > gamma_i for the cross-growth "
            "exponents")

    def test_constants(self, capsys, decoupled_path):
        code, records = run_cli(capsys, "constants", "--config", decoupled_path)
        assert code == 0
        assert records[-1]["mu2_1"] == 0.25

    def test_constants_inadmissible_exits_one(self, capsys, tmp_path):
        p = tmp_path / "gamma5.txt"
        p.write_text(COUPLED_TEXT.replace("gamma1 = 4", "gamma1 = 5")
                     .replace("gamma2 = 4", "gamma2 = 5"))
        code, _ = run_cli(capsys, "constants", "--config", str(p))
        assert code == 1


class TestGradcheck:
    def test_slopes_pass(self, capsys, decoupled_path):
        code, records = run_cli(capsys, "gradcheck", "--config", decoupled_path)
        assert code == 0
        slopes = [r["slope"] for r in records if r["record"] == "gradcheck"]
        assert len(slopes) >= 5
        assert all(1.8 <= s <= 2.2 for s in slopes)


class TestEigenCommand:
    def test_lambda1_1d(self, capsys, tmp_path):
        p = tmp_path / "eig.txt"
        p.write_text(DECOUPLED_TEXT.replace("dimension = 2", "dimension = 1")
                     .replace("n = 17", "n = 1025"))
        code, records = run_cli(capsys, "eigen", "--config", str(p))
        assert code == 0
        rec = [r for r in records if r["record"] == "eigenpair"][0]
        assert abs(rec["lambda1"] - math.pi ** 2) < 1e-3 * math.pi ** 2
        assert abs(rec["rayleigh_quotient"] - rec["lambda1"]) < 1e-10

    def test_unregularized_even_grid(self, capsys, tmp_path):
        p = tmp_path / "eig.txt"
        p.write_text(with_values(COUPLED_TEXT, {"epsilon_reg": 0}))
        code = main(["eigen", "--config", str(p), "--grid-n", "18"])
        lines = capsys.readouterr().out.strip().splitlines()

        def reject(name):
            raise ValueError(f"non-finite JSON value {name}")

        records = [json.loads(line, parse_constant=reject) for line in lines]
        assert code == 0
        rec = [r for r in records if r["record"] == "eigenpair"][0]
        assert rec["converged"] is True and rec["lambda1"] > 0.0

    def test_field_dump_written(self, capsys, tmp_path, decoupled_path):
        out = tmp_path / "out"
        code, _ = run_cli(capsys, "eigen", "--config", decoupled_path,
                          "--out", str(out))
        assert code == 0
        assert (out / "phi1.txt").exists()

    def test_unwritable_out_exits_one_with_error_record(self, capsys,
                                                        tmp_path,
                                                        decoupled_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, records = run_cli(capsys, "eigen", "--config", decoupled_path,
                                "--out", str(blocker / "out"))
        assert code == 1
        assert records[-1]["record"] == "error"
        assert records[-1]["type"] == "NotADirectoryError"


class TestSolveAndMulti:
    def test_solve_1d(self, capsys, tmp_path):
        p = tmp_path / "solve.txt"
        p.write_text(DECOUPLED_TEXT.replace("dimension = 2", "dimension = 1")
                     .replace("n = 17", "n = 257"))
        code, records = run_cli(capsys, "solve", "--config", str(p))
        assert code == 0
        cand = [r for r in records if r["record"] == "candidate"][0]
        assert cand["converged"] is True
        assert cand["level"] > 0.0
        # the bubble start keeps v = 0
        assert cand["semitrivial"] is True

    def test_solve_with_sp_below_one_is_strict_json(self, capsys, tmp_path):
        # s p = 0.75 < 1 makes |t|^{sp-1} in A_t singular at t = 0, which
        # every semitrivial point has; the loads there must stay finite
        p = tmp_path / "solve.txt"
        p.write_text(with_values(COUPLED_TEXT, {"s1": "0.5", "s2": "0.5",
                                                "n_geo_samples": "64"}))
        code = main(["solve", "--config", str(p)])

        def reject(name):
            raise ValueError(f"non-finite JSON constant {name}")

        records = [json.loads(line, parse_constant=reject)
                   for line in capsys.readouterr().out.strip().splitlines()]
        assert code == 0
        cand = [r for r in records if r["record"] == "candidate"][0]
        assert cand["converged"] is True and cand["semitrivial"] is True
        assert 6.41 <= cand["level"] <= 6.42

    def test_unconverged_solve_exits_one_with_json_lines(self, capsys,
                                                          tmp_path):
        p = tmp_path / "solve.txt"
        p.write_text(DECOUPLED_TEXT.replace("N = 2", "N = 1")
                     .replace("dimension = 2", "dimension = 1")
                     + "max_iters = 20\ntol = 1e-30\n")
        code, records = run_cli(capsys, "solve", "--config", str(p))
        assert code == 1
        cand = [r for r in records if r["record"] == "candidate"][0]
        assert cand["converged"] is False

    def test_unvalidated_geometry_exits_one(self, capsys, tmp_path):
        # at r0 = 50 rho0 is about 1234.6, but the bubble endpoint (the
        # first scaling with J < -1) lies inside the sphere ell = r0
        p = tmp_path / "solve.txt"
        p.write_text(with_values(DECOUPLED_TEXT, {"n": "9", "r0": "50",
                                                  "n_geo_samples": "4"}))
        code, records = run_cli(capsys, "solve", "--config", str(p))
        assert code == 1
        cert = records[1]
        assert cert["record"] == "geometry_certificate"
        assert cert["validated"] is False
        assert round(cert["rho0"], 1) == 1234.6
        assert records[-1] == {"record": "error",
                               "message": "geometry not validated"}
        assert not any(r["record"] == "candidate" for r in records)

    def test_multi_1d(self, capsys, tmp_path):
        p = tmp_path / "multi.txt"
        p.write_text(DECOUPLED_TEXT.replace("dimension = 2", "dimension = 1")
                     .replace("n = 17", "n = 257") + "count = 4\n")
        code, records = run_cli(capsys, "multi", "--config", str(p))
        assert code == 0
        levels = [r["level"] for r in records if r["record"] == "candidate"]
        assert len(levels) >= 2
        assert all(b > a for a, b in zip(levels, levels[1:]))

    @pytest.mark.parametrize("command", ["solve", "multi"])
    def test_out_dumps_follow_their_candidate(self, capsys, tmp_path,
                                              decoupled_path, command):
        out = tmp_path / "out"
        code, records = run_cli(capsys, command, "--config", decoupled_path,
                                "--out", str(out))
        assert code == 0
        cands = [r for r in records if r["record"] == "candidate"]
        assert cands
        if command == "solve":
            names = [("u.txt", "v.txt")]
            tail = []
        else:
            names = [(f"u_{m}.txt", f"v_{m}.txt") for m in range(len(cands))]
            tail = ["multi_summary"]
        expected = []
        for pair in names:
            expected += ["candidate"] + [("field_dump", n) for n in pair]
        kinds = [(r["record"], r["name"]) if r["record"] == "field_dump"
                 else r["record"] for r in records
                 if r["record"] not in ("header", "geometry_certificate")]
        assert kinds == expected + tail
        assert sorted(os.listdir(out)) == sorted(n for p in names for n in p)
        for cand, pair in zip(cands, names):
            for name, linf in zip(pair, (cand["linf_u"], cand["linf_v"])):
                lines = (out / name).read_text().splitlines()
                assert len(lines) == 17 ** 2
                assert max(abs(float(line.split()[-1]))
                           for line in lines) == linf

    @pytest.mark.parametrize("samples", [None, 100])
    def test_multi_passes_n_geo_samples(self, capsys, monkeypatch, tmp_path,
                                        samples):
        # multi certifies with the configured n_geo_samples (default 256)
        seen = []
        monkeypatch.setattr(cli, "multiplicity_search", lambda *a, **kw: (
            seen.append(kw["n_geo_samples"]) or []))
        p = tmp_path / "multi.txt"
        p.write_text(DECOUPLED_TEXT + (f"n_geo_samples = {samples}\n"
                                       if samples else ""))
        run_cli(capsys, "multi", "--config", str(p))
        assert seen == [samples or 256]


class TestCertifyDump:
    def test_certify(self, capsys, decoupled_path):
        code, records = run_cli(capsys, "certify", "--config", decoupled_path)
        assert code == 0
        rec = records[-1]
        assert rec["validated"] is True and rec["rho0"] > 0.0

    def test_dump_echoes_config(self, capsys, coupled_path):
        code, records = run_cli(capsys, "dump", "--config", coupled_path)
        assert code == 0
        assert records[-1]["p1"] == 1.5 and records[-1]["theta1"] == 0.125


class TestReproducibility:
    def _stream(self, capsys, *argv) -> str:
        main(list(argv))
        out = capsys.readouterr().out
        lines = []
        for line in out.strip().splitlines():
            rec = json.loads(line)
            rec.pop("timestamp", None)
            lines.append(json_line(rec))
        return "\n".join(lines)

    def test_identical_streams_after_timestamp_strip(self, capsys,
                                                     decoupled_path):
        a = self._stream(capsys, "certify", "--config", decoupled_path,
                         "--seed", "3")
        b = self._stream(capsys, "certify", "--config", decoupled_path,
                         "--seed", "3")
        assert a == b

    def test_seed_override_changes_hash_not_determinism(self, capsys,
                                                        decoupled_path):
        a = self._stream(capsys, "certify", "--config", decoupled_path,
                         "--seed", "3")
        c = self._stream(capsys, "certify", "--config", decoupled_path,
                         "--seed", "4")
        assert a != c


_CLI_BASES = {
    "decoupled": DECOUPLED_TEXT.replace("N = 2", "N = 1"),
    "coupled": COUPLED_TEXT,
}


@given(base=st.sampled_from(sorted(_CLI_BASES)),
       command=st.sampled_from(("check", "certify", "solve", "multi",
                                "eigen")),
       values=st.fixed_dictionaries({
           "n": st.integers(3, 17),
           "max_iters": st.integers(0, 20),
           "path_points": st.integers(3, 9),
           "count": st.integers(1, 3),
           "n_geo_samples": st.integers(1, 16),
           "tol": st.sampled_from((1e-6, 1e-30, 1.0)),
           "r0": st.sampled_from((0.1, 1e-12, 1e3))}),
       bad=st.none() | st.sampled_from((
           ("n", 2), ("dimension", 3), ("tol", math.nan), ("r0", math.inf),
           ("r0", -1.0), ("path_points", 2), ("count", 0),
           ("n_geo_samples", 0), ("tol", 0.0), ("epsilon_reg", -1.0),
           ("gradcheck_runs", 0), ("p1", 1.0), ("s1", -0.5), ("q1", 0.5),
           ("theta1", 0.0), ("c_star", -1.0), ("N", 0), ("seed", -1),
           ("max_iters", -1), ("nontrivial_floor", 0.0))))
@settings(max_examples=20, deadline=10_000)
def test_cli_emits_json_lines_with_documented_exit_code(base, command,
                                                        values, bad):
    # small 1D runs, at most one value out of range
    values = {**values, "dimension": 1}
    if bad is not None:
        values[bad[0]] = bad[1]
    text = with_values(_CLI_BASES[base],
                       {k: repr(v) for k, v in values.items()})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([command, "--config", path])
    assert code == 2 if bad else code in (0, 1)
    lines = out.getvalue().splitlines()
    assert lines
    for line in lines:
        json.loads(line)
