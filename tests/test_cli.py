"""CLI exit codes, output formats, and the bench/check subcommands."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, WALK

from prefhtn import cli
from prefhtn.cli import (EXIT_LIMIT, EXIT_MISMATCH, EXIT_NOPLAN, EXIT_OK,
                         EXIT_TIMEOUT, EXIT_USAGE, RECORD_FIELDS, main)
from prefhtn.oracle import CheckReport, cross_check, enumerate_all

TRAVEL = FIXTURES / "travel"

def write_walk(path):
    for name, text in WALK.items():
        (path / name).write_text(text)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def solve_args(k, *extra):
    return ("solve", "--domain", TRAVEL / "travel.htn",
            "--problem", TRAVEL / f"travel-{k}.prob",
            "--prefs", TRAVEL / f"travel-{k}.pref") + extra


class TestSolveCommand:
    def test_plan_and_stats_output(self, capsys):
        code, out, _ = run(capsys, *solve_args(1))
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        plan_lines = [l for l in lines if l.startswith("(")]
        assert plan_lines and all(l.startswith("(!") for l in plan_lines)
        assert not any("mastercard" in l for l in plan_lines)
        tail_keys = [l.split(":")[0] for l in lines[len(plan_lines):]]
        assert tail_keys == ["weight", "NE", "NC", "duplicates",
                             "frontierPeak", "seconds", "PL"]
        assert f"PL: {len(plan_lines)}" in lines

    def test_json_record_fields_and_stability(self, capsys):
        code1, out1, _ = run(capsys, *solve_args(2, "--json"))
        code2, out2, _ = run(capsys, *solve_args(2, "--json"))
        assert code1 == code2 == EXIT_OK
        rec1, rec2 = json.loads(out1), json.loads(out2)
        assert tuple(rec1) == RECORD_FIELDS
        drop = lambda r: {k: v for k, v in r.items() if k != "seconds"}
        assert drop(rec1) == drop(rec2)
        assert rec1["weight"] == "0"
        assert rec1["status"] == "ok"

    def test_noplan_exit_code(self, tmp_path, capsys):
        prob = tmp_path / "bad.prob"
        prob.write_text(
            "(problem bad :init () :tasks ((arrange-trans rocket)))")
        code, out, _ = run(capsys, "solve", "--domain", TRAVEL / "travel.htn",
                           "--problem", prob)
        assert code == EXIT_NOPLAN
        assert "no plan" in out

    def test_timeout_exit_code(self, capsys):
        code, _, err = run(capsys,
                           *solve_args(3, "--timeout", "0"))
        assert code == EXIT_TIMEOUT
        assert "timeout" in err
        code, out, err = run(capsys,
                             *solve_args(3, "--timeout", "0", "--json"))
        assert code == EXIT_TIMEOUT and err == "timeout\n"
        assert json.loads(out)["status"] == "timeout"

    def test_bruteforce_timeout_zero_is_a_timeout(self, capsys):
        code, out, err = run(capsys, *solve_args(3, "--mode", "bruteforce",
                                                 "--timeout", "0", "--json"))
        assert code == EXIT_TIMEOUT and err == "timeout\n"
        rec = json.loads(out)
        assert rec["status"] == "timeout" and rec["mode"] == "bruteforce"

    @pytest.mark.parametrize("value", ["-1", "nan", "inf", "-inf", "soon"])
    def test_timeout_must_be_finite_and_not_negative(self, capsys, value):
        for mode in ("bestfirst", "bruteforce"):
            code, out, err = run(capsys, *solve_args(3, "--mode", mode,
                                                     f"--timeout={value}"))
            assert code == EXIT_USAGE, mode
            assert out == "" and "--timeout" in err
        code, out, err = run(capsys, "bench", "--suite", TRAVEL,
                             f"--timeout={value}")
        assert code == EXIT_USAGE
        assert out == "" and "--timeout" in err

    def test_depth_limit_exit_code(self, tmp_path, capsys):
        write_walk(tmp_path)
        walk = ("solve", "--domain", tmp_path / "walk.htn",
                "--problem", tmp_path / "walk-1.prob",
                "--prefs", tmp_path / "walk-1.pref")
        for mode in ("bestfirst", "bruteforce"):
            code, out, err = run(capsys, *walk, "--mode", mode)
            assert code == EXIT_LIMIT, mode
            assert out == "" and err == "limit: depth\n"
            # --json still prints the partial record on stdout
            code, out, err = run(capsys, *walk, "--mode", mode, "--json")
            assert code == EXIT_LIMIT, mode
            assert err == "limit: depth\n"
            rec = json.loads(out)
            assert rec["status"] == "depth" and rec["mode"] == mode
        out_path = tmp_path / "records.jsonl"
        code, _, _ = run(capsys, "bench", "--suite", tmp_path,
                         "--out", out_path)
        assert code == EXIT_OK
        records = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert [r["status"] for r in records] == ["depth", "depth"]

    @pytest.mark.parametrize("n", [65, 200])
    def test_flat_network_is_under_the_depth_cap(self, n, tmp_path, capsys):
        # n one-level tasks nest one deep, whatever their number
        (tmp_path / "flat.htn").write_text("""(domain flat
          (:operator (!a) :pre () :del () :add ())
          (:method (t) :name m :pre () :tasks ((!a))))""")
        (tmp_path / "flat.prob").write_text(
            f"(problem flat :init () :tasks ({'(t) ' * n}))")
        for mode in ("bestfirst", "bruteforce"):
            code, out, _ = run(capsys, "solve", "--domain",
                               tmp_path / "flat.htn", "--problem",
                               tmp_path / "flat.prob", "--mode", mode)
            assert code == EXIT_OK, mode
            assert out.count("(!a)") == n

    def test_bruteforce_mode_reports_plan_count(self, capsys):
        code, out, _ = run(capsys, *solve_args(1, "--mode", "bruteforce",
                                               "--json"))
        assert code == EXIT_OK
        assert json.loads(out)["planCount"] == 13

    def test_bruteforce_mode_enumerates_once(self, capsys, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return enumerate_all(*args, **kwargs)

        monkeypatch.setattr(cli, "enumerate_all", counting)
        code, out, _ = run(capsys, *solve_args(1, "--mode", "bruteforce"))
        assert code == EXIT_OK
        assert out.startswith("(!")
        assert len(calls) == 1

    def test_bruteforce_with_tiebreak_lex_is_usage_error(self, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(cli, "enumerate_all", None)  # never reached
        code, out, err = run(capsys, *solve_args(
            1, "--mode", "bruteforce", "--tiebreak-lex"))
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "usage: --tiebreak-lex needs --mode bestfirst\n"

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "solve", "--domain", "/nonexistent.htn",
                           "--problem", TRAVEL / "travel-1.prob")
        assert code == EXIT_USAGE
        assert "missing file" in err

    @pytest.mark.parametrize("flag", ["--domain", "--problem", "--prefs"])
    def test_directory_path_is_usage_error(self, capsys, flag):
        # an unreadable path is not a problem without a plan (exit 1)
        argv = list(solve_args(1))
        argv[argv.index(flag) + 1] = FIXTURES
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == "" and err == f"cannot open {FIXTURES}: Is a directory\n"

    def test_parse_error_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.htn"
        bad.write_text("(domain broken (:operator")
        code, _, err = run(capsys, "solve", "--domain", bad,
                           "--problem", TRAVEL / "travel-1.prob")
        assert code == EXIT_USAGE
        assert "parse error" in err

    def test_bad_usage(self, capsys):
        assert run(capsys, "solve")[0] == EXIT_USAGE
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE


def write_suites(tmp_path):
    """A suite path per way of holding no problem: missing, an empty
    directory, a file."""
    (tmp_path / "empty").mkdir()
    (tmp_path / "file.prob").write_text("(problem p :init () :tasks ())")
    return [tmp_path / name for name in ("missing", "empty", "file.prob")]


class TestBenchCommand:
    def test_table_and_jsonl(self, tmp_path, capsys):
        out_path = tmp_path / "records.jsonl"
        code, out, _ = run(capsys, "bench", "--suite", TRAVEL,
                           "--out", out_path)
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0].startswith("problem")
        data_rows = lines[2:]
        assert len(data_rows) == len(list(TRAVEL.glob("*.prob")))
        # rows sorted by brute-force plan count ascending
        counts = [int(r.split("|")[0].split()[-1]) for r in data_rows]
        assert counts == sorted(counts)

        records = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert len(records) == 2 * len(data_rows)
        assert all(tuple(r) == RECORD_FIELDS for r in records)
        assert {r["mode"] for r in records} == {"bruteforce", "bestfirst"}

    def test_suite_without_problems_is_usage_error(self, tmp_path, capsys):
        for suite in write_suites(tmp_path):
            code, out, err = run(capsys, "bench", "--suite", suite)
            assert code == EXIT_USAGE, suite
            assert out == "" and f"--suite: {suite} " in err

    def test_out_directory_is_usage_error(self, tmp_path, capsys,
                                          monkeypatch):
        """--out is opened before the first problem, so a suite whose every
        problem would mismatch stops at the bad path without running one."""
        real, calls = cli.enumerate_all, []

        def off_by_one(problem, *args, **kwargs):
            calls.append(problem.name)
            oracle = real(problem, *args, **kwargs)
            oracle.best_weight += 1
            return oracle

        monkeypatch.setattr(cli, "enumerate_all", off_by_one)
        code, out, err = run(capsys, "bench", "--suite", TRAVEL,
                             "--out", tmp_path)
        assert code == EXIT_USAGE and calls == []
        assert out == "" and err == f"cannot open {tmp_path}: Is a directory\n"
        # with a writable --out the same suite mismatches at once
        code, _, err = run(capsys, "bench", "--suite", TRAVEL,
                           "--out", tmp_path / "records.jsonl")
        assert code == EXIT_MISMATCH and calls == ["travel-1"]
        assert "weight mismatch on travel-1" in err

    def test_weight_mismatch_exit_code(self, tmp_path, capsys, monkeypatch):
        """A mismatch on travel-3 stops the suite there, but the table and
        the records of travel-1 to travel-3 still come out."""
        real = cli.enumerate_all

        def off_by_one_on_travel_3(problem, *args, **kwargs):
            oracle = real(problem, *args, **kwargs)
            if problem.name == "travel-3":
                oracle.best_weight += 1
            return oracle

        monkeypatch.setattr(cli, "enumerate_all", off_by_one_on_travel_3)
        out_path = tmp_path / "records.jsonl"
        code, out, err = run(capsys, "bench", "--suite", TRAVEL,
                             "--out", out_path)
        assert code == EXIT_MISMATCH
        assert "weight mismatch on travel-3" in err
        rows = out.strip().splitlines()[2:]
        assert sorted(r.split()[0] for r in rows) == \
            ["travel-1", "travel-2", "travel-3"]
        records = [json.loads(l) for l in out_path.read_text().splitlines()]
        assert [(r["problem"], r["mode"]) for r in records] == [
            (f"travel-{k}", mode) for k in (1, 2, 3)
            for mode in ("bruteforce", "bestfirst")]


class TestCheckCommand:
    @pytest.mark.parametrize("suite", ["travel", "zeno", "logistics"])
    def test_all_fixture_suites_pass(self, suite, capsys):
        code, out, _ = run(capsys, "check", "--suite", FIXTURES / suite)
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "pass" in out

    def test_suite_without_problems_is_usage_error(self, tmp_path, capsys):
        for suite in write_suites(tmp_path):
            code, out, err = run(capsys, "check", "--suite", suite)
            assert code == EXIT_USAGE, suite
            assert out == "" and f"--suite: {suite} " in err

    def test_enumeration_cap_exit_code(self, tmp_path, capsys):
        write_walk(tmp_path)
        code, out, _ = run(capsys, "check", "--suite", tmp_path)
        assert code == EXIT_LIMIT
        assert out == "walk-1: enumeration cap hit (depth)\n"

    def test_failed_check_exit_code(self, tmp_path, capsys, monkeypatch):
        failing = CheckReport("p", 1, 0, 1, {"weight-match": False})
        monkeypatch.setattr(cli, "cross_check", lambda problem: failing)
        code, out, _ = run(capsys, "check", "--suite", TRAVEL)
        assert code == EXIT_MISMATCH
        assert "weight-match: FAIL" in out
        # a failed check wins over a cap hit on an earlier problem
        write_walk(tmp_path)
        (tmp_path / "walk-2.prob").write_text(
            "(problem walk-2 :init ((at n2)) :tasks ((go n2)))")
        monkeypatch.setattr(cli, "cross_check", lambda problem: (
            cross_check(problem) if problem.name == "walk-1" else failing))
        code, out, _ = run(capsys, "check", "--suite", tmp_path)
        assert code == EXIT_MISMATCH
        assert "walk-1: enumeration cap hit (depth)" in out


class TestModuleEntryPoint:
    @pytest.mark.parametrize("args", [["--help"],
                                      ["check", "--suite", str(TRAVEL)]],
                             ids=["help", "check"])
    def test_python_m_prefhtn_runs_from_a_checkout(self, args):
        # the checkout's src/ on PYTHONPATH, no installed console script
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-m", "prefhtn", *args],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout
