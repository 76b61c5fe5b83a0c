"""The benchmark's own tests: shrunken workloads through the same reference checks.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def _run(workload, out, trace=False):
    return run.run_workload(workload, 0, trace, out)


def test_small_main_sweep(tmp_path):
    result = _run(wl.sweep_workload("main-sweep", tmp_path / "ms", wl.DEMO_WINDOW, run.SRC), tmp_path / "ms")
    assert (result["attempted"], result["failed"]) == (1, 0), result["problems"]
    m = result["metrics"]
    assert m["wall_s"] > 0 and m["wall_ref_s"] > 0 and m["setup_s"] > 0 and m["setup_wall_s"] > 0


def test_small_drop_halvable_rechecks_every_violation(tmp_path):
    out = tmp_path / "dh"
    workload = wl.sweep_workload("drop-halvable", out, wl.DEMO_WINDOW, run.SRC, drop_layer="halvable")
    check = workload.calls[0].check
    assert check.expected_violations() == 270
    result = _run(workload, out)
    assert result["failed"] == 0, result["problems"]
    assert len(check.verified.read_text().split()) == 1


def test_drop_halvable_check_rejects_a_tampered_violation(tmp_path):
    out = tmp_path / "dh"
    workload = wl.sweep_workload("drop-halvable", out, wl.DEMO_WINDOW, run.SRC, drop_layer="halvable")
    _run(workload, out)
    call = workload.calls[0]
    report = json.loads(call.report.read_text())
    report["triple_report"]["violations"][0]["b"] = "d:{};t:00;q:(0)"
    call.report.write_text(json.dumps(report))
    assert call.check(call.report)


def test_small_structure(tmp_path):
    workload = wl.structure_workload(tmp_path / "st", seed=3, sizes=range(6, 9), big_bits=(36,))
    result = _run(workload, tmp_path / "st")
    assert result["attempted"] == len(workload.calls) == 9
    assert result["failed"] == 0, result["problems"]


def test_small_search(tmp_path):
    result = _run(wl.search_workload(tmp_path / "se", cases=wl.SEARCH_CASES[:1]), tmp_path / "se")
    assert (result["attempted"], result["failed"]) == (1, 0), result["problems"]


def test_wrong_reference_counts_in_failed_frac(tmp_path):
    wrong = wl.SearchCase((4, 4), None, None, "ok", 4, nodes=12317)  # true count: 12316
    result = _run(wl.search_workload(tmp_path / "se", cases=(wrong,)), tmp_path / "se")
    assert result["failed"] == 1
    assert result["metrics"]["failed_frac"] == 1.0
    assert "nodes" in result["problems"][0]


def test_wrong_window_reference_is_caught(tmp_path):
    wrong = wl.Window((3, 5), 2, 1, 1, 1, 1, buckets=46, candidate_pairs=270)
    result = _run(wl.sweep_workload("main-sweep", tmp_path / "ms", wrong, run.SRC), tmp_path / "ms")
    assert result["failed"] == 1 and "n_buckets" in result["problems"][0]


def test_traced_run_reports_layers_and_spans(tmp_path):
    out = tmp_path / "st"
    workload = wl.structure_workload(out, seed=5, sizes=range(6, 8), big_bits=())
    result = _run(workload, out, trace=True)
    assert result["failed"] == 0, result["problems"]
    m = result["metrics"]
    # analyze runs SNF twice and embed three times
    assert m["presentation.snf_calls"] == 2 * 4 + 3 * 2
    assert m["presentation.decompose_s"] > 0 and m["embedding.build_s"] > 0
    assert "trace.overhead_s" in m
    spans = json.loads((out / "spans.json").read_text())
    assert {"name", "start", "end", "parent", "iteration", "call"} <= set(spans[0])
    assert set(result["detail"]["self_time_s"]) >= set(run.LAYERS)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0, 2.0, 3.0]) == {"value": 3.0, "percentile": 100, "beyond": 0, "samples": 3}
    t = run.tail([float(i) for i in range(1, 41)])
    assert (t["percentile"], t["beyond"], t["value"]) == (75, 10, 30.0)


def test_generator_oracle():
    rng = random.Random(0)
    pres = wl.generate_presentation(rng, 8, order_four=True)
    wl.mix(rng, pres)
    assert pres.order_four()
    assert sum(1 for p, e in pres.primary_factors() if (p, e) == (2, 2)) == 1
    factors = pres.invariant_factors()
    assert len(factors) == 8 - pres.free_rank
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


def test_big_prime_band():
    p = wl.big_prime(random.Random(1), 40)
    assert p.bit_length() == 40 and wl._is_probable_prime(p)
    assert all(p % d for d in range(3, 2000, 2))


def test_brute_force_scan_finds_constant_colouring_pair():
    orders = (3, 3)
    table = {e: 0 for e in wl._elements(orders)}
    assert wl.brute_force_mono_pair(orders, table) is not None
