"""Self-tests of the benchmark: small runs, failure reporting, the contract.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_repro()

import workloads  # noqa: E402

WORKLOAD_NAMES = ("jit_compile", "paper_grid", "serve_run")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_small_run_prints_every_metric_with_its_unit(name, trace):
    result = _result(_bench("--workload", name, "--seconds", "1",
                            "--seed", "7", "--trace", trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.END_TO_END if trace == "0" else run.layer_units()
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_wrong_expected_output_is_a_failed_operation(name, tmp_path,
                                                     monkeypatch):
    cls = workloads.WORKLOADS[name]
    real_expected = cls.expected

    def corrupted(self):
        expected = real_expected(self)
        victim = sorted(expected)[0]
        checksum, ret_value = expected[victim]
        expected[victim] = (checksum + 1, ret_value)
        return expected

    monkeypatch.setattr(cls, "expected", corrupted)
    workload = cls(3, 1.0, src=run.SRC, workdir=tmp_path)
    try:
        result = run.measure(workload, trace=False)
    finally:
        workload.close()
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]


def test_same_seed_same_inputs_other_seed_same_set_in_another_order():
    programs = workloads.programs
    first = programs.jit_population(11, 6, 40, 120)
    assert first == programs.jit_population(11, 6, 40, 120)
    other = programs.jit_population(12, 6, 40, 120)
    assert [p["name"] for p in first] != [p["name"] for p in other]
    assert (sorted(p["source"] for p in first)
            == sorted(p["source"] for p in other))

    assert programs.serve_programs(8) == programs.serve_programs(8)
    assert sorted(programs.paper_order(5)) == sorted(programs.paper_order(6))


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer_units == run.layer_units()
    assert any(m["name"] == "setup_s" and m["better"] == "lower"
               for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_without_the_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "jit_compile", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
