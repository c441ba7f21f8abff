"""Tests of the benchmark itself. Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import bench_gen  # noqa: E402
import prefhtn  # noqa: E402
import run  # noqa: E402
from bench_trace import Tracer  # noqa: E402


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def copy_checkout(dest: Path, with_src: bool = True) -> None:
    """The files a checkout of the benchmark holds, without build output."""
    skip = shutil.ignore_patterns("__pycache__", "out", ".pytest_cache")
    shutil.copytree(HERE, dest / "perfbench", ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_src:
        shutil.copytree(ROOT / "src" / "prefhtn", dest / "src" / "prefhtn",
                        ignore=skip)


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = bench_gen.workload_instances(workload, 7)
    assert first == bench_gen.workload_instances(workload, 7)
    other = bench_gen.workload_instances(workload, 8)
    assert [i.problem_text for i in first] != [i.problem_text for i in other]
    # a seed renames and reorders; it never changes which patterns run
    assert sorted(i.pattern for i in first) == sorted(i.pattern
                                                      for i in other)


def test_seed_leaves_the_search_unchanged():
    # logistics-3-1 took 538 or 1,769 expansions under renamings that did
    # not keep the constants' order
    counts = set()
    for seed in (1, 2, 3):
        [inst] = [i for i in bench_gen.workload_instances("pref-logistics",
                                                          seed)
                  if i.pattern == "logistics-3-1"]
        [problem] = run.parse_instances(prefhtn, [inst])
        stats = prefhtn.solve(problem).stats
        counts.add((stats.nodes_expanded, stats.nodes_considered))
    assert len(counts) == 1


def test_every_pattern_has_a_stored_weight():
    reference = run.load_reference()
    for workload in run.WORKLOADS:
        for inst in bench_gen.workload_instances(workload, 1):
            assert inst.pattern in reference


def test_gate_trips_on_a_corrupted_stored_weight(tmp_path):
    copy_checkout(tmp_path)
    ok = bench(tmp_path, "--workload", "check-logistics", "--seconds", "0")
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout.splitlines()[-1])["correct"] is True

    ref_path = tmp_path / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["weights"]["logistics-2-0"] = "1/3"
    ref_path.write_text(json.dumps(ref))
    bad = bench(tmp_path, "--workload", "check-logistics", "--seconds", "0")
    assert bad.returncode == 1
    result = json.loads(bad.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert "logistics-2-0" in bad.stderr


def test_best_first_gate_checks_weight_and_returned_plan():
    [inst] = [i for i in bench_gen.workload_instances("pref-logistics", 1)
              if i.pattern == "logistics-3-0"]
    [problem] = run.parse_instances(prefhtn, [inst])
    expected = run.load_reference()[inst.pattern]
    result, error = run.solve_one(prefhtn, "pref-logistics", problem,
                                  expected)
    assert error is None
    assert run.audit_plan(prefhtn, problem, result, expected) is None
    wrong = expected + 1
    assert run.solve_one(prefhtn, "pref-logistics", problem, wrong)[1]
    assert run.audit_plan(prefhtn, problem, result, wrong)


def test_refuses_to_run_without_the_sources(tmp_path):
    copy_checkout(tmp_path, with_src=False)
    proc = bench(tmp_path, "--workload", "check-logistics", "--seconds", "1")
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""


def _attribute_snapshot(pkg) -> dict:
    owners = [pkg.search, pkg.oracle, pkg.progression, pkg.model,
              pkg.formulas, pkg.semantics, pkg.parser, pkg.model.Trace,
              pkg.search._Expander]
    return {(id(o), name): value for o in owners
            for name, value in vars(o).items()}


def test_traced_pass_restores_every_wrapped_attribute():
    instances = bench_gen.workload_instances("check-logistics", 1)[:2]
    work = run.Run("check-logistics", instances, run.load_reference())
    work.set_up()
    before = _attribute_snapshot(work.prefhtn)

    tracer, residuals = Tracer(), Tracer()
    tracer.install(work.prefhtn)
    residuals.install_residual_counter(work.prefhtn)
    assert _attribute_snapshot(work.prefhtn) != before
    try:
        work.one_pass(tracer)
    finally:
        residuals.restore()
        tracer.restore()
    after = _attribute_snapshot(work.prefhtn)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert work.failed == 0
    inclusive, _ = tracer.totals()
    for layer in ("search.expand", "model.trace_extend", "progression.step",
                  "progression.progress_trace", "oracle.enumerate",
                  "semantics.weight_gpf", "search.heap"):
        assert inclusive[layer] > 0, layer
    assert 0 < len(residuals.residuals) < residuals.counts[
        "progression.progress_bdf.calls"]


def test_metric_names_match_benchmark_json():
    spec = benchmark_spec()
    assert set(run.E2E_UNITS) == {m["name"] for m in spec["end_to_end"]}
    tracer = Tracer()
    layers = run.per_layer(tracer, Tracer(), Tracer(), 1.0, 1.0)
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[name] == unit for name, (_, unit) in layers.items())


COUNTS = """
import hashlib, random, sys
sys.path[:0] = sys.argv[1:3]
import bench_gen, prefhtn, run
texts = hashlib.sha256()
for workload in run.WORKLOADS:
    for inst in bench_gen.workload_instances(workload, 5):
        texts.update((inst.problem_text + inst.preference_text).encode())
print(texts.hexdigest())
for build, pattern, legs in [
        (bench_gen.logistics_instance, *bench_gen.logistics_patterns(3, 1)[0]),
        (bench_gen.zeno_instance, *bench_gen.zeno_patterns(3, 1)[0])]:
    [problem] = run.parse_instances(
        prefhtn, [build(pattern, legs, random.Random(5))])
    stats = prefhtn.solve(problem).stats
    print(pattern, stats.nodes_expanded, stats.nodes_considered)
"""


def test_counts_repeat_across_hash_seeds():
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", COUNTS, str(HERE), str(ROOT / "src")],
            capture_output=True, text=True, env=env, timeout=180, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 3
