"""Fast smoke test of the benchmark harness at tiny corpus sizes.

Runs every workload untraced and traced, with all correctness checks, and
checks that the printed metrics match BENCHMARK.json. Run from the root of
the repository:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import pqgrams  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def run_tiny(workload, trace, runs_dir):
    return bench.run(workload, SEED, 0.01, trace, runs_dir, ROOT, tiny=True)


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert SPEC["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in bench.END_TO_END
    ]
    assert SPEC["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in bench.per_layer_metrics()
    ]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_workload_runs_with_checks(workload, trace, tmp_path):
    result, detail = run_tiny(workload, trace, tmp_path)
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 1
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in group}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("text, cells", [("a", 1), ("a(b(c))", 3), ("a(b,c)", 4), ("a(b(d,e),c)", 5 + 1 + 1)])
def test_keyroot_cells(text, cells):
    assert bench.keyroot_cells(pqgrams.parse_tree(text)) == cells


def test_second_run_is_compared_with_the_first(tmp_path):
    first, _ = run_tiny("deep-query", False, tmp_path)
    second, _ = run_tiny("deep-query", True, tmp_path)
    assert second["failed"] == 0
    (record,) = tmp_path.glob("record-*.json")
    data = json.loads(record.read_text())
    data["model_sha256"] = "0" * 64
    record.write_text(json.dumps(data))
    third, detail = run_tiny("deep-query", False, tmp_path)
    assert third["failed"] == 1
    assert detail["failures"][0].startswith("determinism across runs")


def test_wrong_votes_are_counted_as_failures(tmp_path, monkeypatch):
    real = pqgrams.knn_classify

    def off_by_one(train, query, dist, k):
        return (real(train, query, dist, k) + 1) % 2

    monkeypatch.setattr(pqgrams, "knn_classify", off_by_one)
    result, detail = run_tiny("strings", False, tmp_path)
    assert not result["correct"]
    assert any(f.startswith("tie ladder") for f in detail["failures"])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "strings", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
