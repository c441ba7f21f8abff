"""CLI exit codes, output formats, and the bench/check subcommands."""

import json

import pytest

from conftest import FIXTURES

from prefhtn import cli
from prefhtn.cli import (EXIT_LIMIT, EXIT_NOPLAN, EXIT_OK, EXIT_TIMEOUT,
                         EXIT_USAGE, RECORD_FIELDS, main)
from prefhtn.oracle import enumerate_all

TRAVEL = FIXTURES / "travel"

# A recursive walk: (go ?g) either stops at ?g or steps and recurses. The
# n0-n1 cycle never reaches n2, so its optimistic weight stays 0 and both
# best-first search and the enumerator descend it until the depth cap.
WALK = {
    "walk.htn": """(domain walk
      (:operator (!step ?a ?b) :pre ((at ?a) (edge ?a ?b))
        :del ((at ?a)) :add ((at ?b)))
      (:method (go ?g) :name done :pre ((at ?g)) :tasks ())
      (:method (go ?g) :name move :pre ((at ?a) (edge ?a ?b))
        :tasks ((!step ?a ?b) (go ?g))))""",
    "walk-1.prob": """(problem walk-1
      :init ((at n0) (edge n0 n1) (edge n1 n0) (edge n1 n2))
      :tasks ((go n2)))""",
    "walk-1.pref": "(>> ((always (not (at n2))) 0) ((and) 0.5))",
}


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
        assert tail_keys == ["weight", "NE", "NC", "seconds", "PL"]
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

    def test_depth_limit_exit_code(self, tmp_path, capsys):
        for name, text in WALK.items():
            (tmp_path / name).write_text(text)
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

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "solve", "--domain", "/nonexistent.htn",
                           "--problem", TRAVEL / "travel-1.prob")
        assert code == EXIT_USAGE
        assert "missing file" in err

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


class TestCheckCommand:
    @pytest.mark.parametrize("suite", ["travel", "zeno", "logistics"])
    def test_all_fixture_suites_pass(self, suite, capsys):
        code, out, _ = run(capsys, "check", "--suite", FIXTURES / suite)
        assert code == EXIT_OK
        assert "FAIL" not in out
        assert "pass" in out
