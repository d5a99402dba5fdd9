"""Tests of the benchmark itself, at a size that runs in under two minutes:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from donkey_ray import synth
from perfbench import checks, traced

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = [w["name"] for w in
             json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["workloads"]]


def _bench(workload: str, trace: int) -> dict:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--docs", "300"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr[-3000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


def _spec(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_emitted(workload):
    out = _bench(workload, 0)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    want = _spec("end_to_end")
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_swapped_doc_id_fails_search_check():
    corpus = synth.make_corpus(60, seed=5)
    oracle = checks.SearchOracle(corpus)
    text = "commontoken " + synth._vocab()[0]
    want = oracle.expected(text, 10)
    hits = [{"rank": r, "doc_id": d, "score": s}
            for r, (d, s) in enumerate(want, start=1)]
    assert len(hits) == 10 and checks.hits_match(hits, want)
    hits[3]["doc_id"], hits[4]["doc_id"] = hits[4]["doc_id"], hits[3]["doc_id"]
    assert not checks.hits_match(hits, want)


def test_traced_build_stages_add_up_to_build_wall():
    out = _bench("build", 1)
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(m) == set(_spec("per_layer"))
    stages = sum(m[k] for k in traced.STAGES) + m["build.unattributed_s"]
    assert stages == pytest.approx(m["build.wall_s"], abs=1e-9)
    assert all(m[k] > 0 for k in traced.STAGES if k != "build.exchange_s")


def test_exits_nonzero_without_the_engine(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            (bench / name).write_bytes(
                open(os.path.join(ROOT, "perfbench", name), "rb").read())
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert p.returncode != 0 and not p.stdout.strip()
