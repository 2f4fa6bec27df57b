"""``--smoke`` scale of all four workloads, both trace modes, end to end.

Also the agreement between ``BENCHMARK.json`` and what the command
prints: names, units, and the shape of the result line.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
    MANIFEST = json.load(fp)
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]


def run(*args):
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )


def test_manifest_names_the_benchmark_and_the_specs():
    from streams import SPECS

    assert MANIFEST["paths"] == ["bench"]
    assert MANIFEST["command"][-1] == "bench/run.py"
    assert WORKLOADS == [spec.name for spec in SPECS]
    assert {w["name"]: w["why"] for w in MANIFEST["workloads"]} == {
        spec.name: spec.why for spec in SPECS
    }
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in MANIFEST["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_declared_metric(workload, trace, section):
    done = run("--workload", workload, "--seed", "7", "--smoke", "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 300
    declared = {m["name"]: m["unit"] for m in MANIFEST[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name in declared:
        assert any(line.startswith(name + " ") for line in lines), name
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert os.path.exists(os.path.join(BENCH, "out", f"trace_{workload}.json"))
    leftovers = [n for n in os.listdir(os.path.join(BENCH, "out")) if n.startswith("tmp-")]
    assert leftovers == []


def test_timings_are_scaled_to_the_reference_machine_in_the_right_direction():
    out = run("--workload", "engine_risk", "--seed", "7", "--smoke").stdout
    scaled = {k: v["value"] for k, v in json.loads(out.splitlines()[-1])["metrics"].items()}
    raw = dict(re.findall(r"(\w+)=([0-9.e+-]+)", next(
        line for line in out.splitlines() if line.strip().startswith("as measured:")
    )))
    slow = float(re.search(r"= ([0-9.]+)x the reference", out).group(1))
    # A slow machine (slow > 1) reads fewer jobs/s and more us: undo both.
    assert scaled["jobs_per_s"] == pytest.approx(float(raw["jobs_per_s"]) * slow, rel=2e-3)
    assert scaled["request_p50_us"] == pytest.approx(float(raw["request_p50_us"]) / slow, rel=2e-3)
    assert scaled["setup_s"] == pytest.approx(float(raw["setup_s"]) / slow, rel=2e-3)


def test_same_seed_same_decisions_other_seed_other_inputs():
    def digests(seed):
        out = run("--workload", "engine_risk", "--seed", seed, "--smoke").stdout
        return [line for line in out.splitlines() if line.startswith("decision_digest")]
    assert digests("7") == digests("7")
    assert digests("7") != digests("8")


def test_unknown_workload_is_refused_without_a_result():
    done = run("--workload", "nope")
    assert done.returncode == 2 and not done.stdout.strip().startswith("{")
