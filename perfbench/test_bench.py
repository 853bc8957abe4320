"""Checks on the benchmark itself; about two minutes on two cores.

    python3 -m pytest -q perfbench/test_bench.py

Traced runs repeat exactly in their counts for one seed, change their
inputs but not their metric names for another seed, and show the layer
separation that the workloads were chosen for. One short untraced run per
workload prints every end-to-end metric named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# metrics derived from library return values and call counts, never timers
EXACT = [
    "linalg.rref_calls",
    "grs.decode_calls_per_word",
    "grs.syndromes_calls_per_word",
    "grs.decode_none_frac",
    "grs.decode_erasure_frac",
    "iterdec.rounds_mean",
    "iterdec.rounds_max",
    "iterdec.scheduled_per_word",
    "iterdec.decoder_hit_frac",
    "ltenc.d2_erased_frac",
    "gmd.outer_calls_per_word",
    "gmd.inner_failed_frac",
]


@functools.lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(meta, result) of one short run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(next(ln for ln in lines if ln.startswith("# meta "))[len("# meta "):])
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    return meta, result


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_units(workload):
    _, result = bench(workload, 1, 0)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_seed_changes_inputs(workload):
    meta_a, first = bench(workload, 1, 1)
    meta_b, again = bench(workload, 1, 1)
    meta_c, other = bench(workload, 2, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in (first, again, other):
        assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    a, b = values(first), values(again)
    assert {k: a[k] for k in EXACT} == {k: b[k] for k in EXACT}
    assert meta_a["inputs_sha256"] == meta_b["inputs_sha256"]
    assert meta_a["inputs_sha256"] != meta_c["inputs_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workloads_separate_the_layers(workload):
    m = values(bench(workload, 1, 1)[1])
    for prefix, owner in (("ltenc.", "lt-mixed"), ("gmd.", "gmd-budget")):
        stage = {k: v for k, v in m.items() if k.startswith(prefix)}
        if workload == owner:
            assert any(stage.values()), stage
        else:
            assert not any(stage.values()), stage
    if workload == "lt-mixed":
        assert m["linalg.rref_setup_frac"] <= 0.05
    else:
        assert m["linalg.rref_setup_frac"] >= 0.80
    decode_shares = [
        m["iterdec.self_ms_per_word"],
        m["grs.syndromes_self_ms_per_word"],
        m["ltenc.decode_self_ms"],
        m["gmd.decode_self_ms"],
    ]
    assert m["grs.decode_self_ms_per_word"] > max(decode_shares)
