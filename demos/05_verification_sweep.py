#!/usr/bin/env python3
"""Exhaustive sweeps over finite windows of the ambient group.

Every unordered pair a != b is checked for colour(2a) = colour(2b) =
colour(a+b).  Under the full three-layer colouring the violation list is
empty on every shipped sample; dropping any single layer produces violations
on its documented sample, so the checker is validated in both directions.
"""

import json
import time

from fourfree import SHIPPED_SAMPLES, check_coset_uniqueness, enumerate_sample, find_mono_triples

spec = SHIPPED_SAMPLES["demo-default"]
sample = enumerate_sample(spec)
start = time.perf_counter()
report = find_mono_triples(sample)
elapsed = time.perf_counter() - start
print("demo-default sample:", json.dumps(spec.describe()["signature"]))
print(f"  {report.size} elements, {report.pairs} pairs, "
      f"{report.candidate_pairs} bucket-filtered candidates, "
      f"{len(report.violations)} violations, {elapsed:.3f}s")

coset = check_coset_uniqueness(sample)
print(f"  coset check: {coset.n_cosets} cosets, {coset.n_halvable} halvable, ok={coset.ok}")

print("\nself-test: a constant colouring must light up violations:")
degenerate = find_mono_triples(sample, layers=set())
print(f"  constant colouring -> {len(degenerate.violations)} violations")

print("\neach layer is load-bearing on its documented sample:")
for layer, name in [("halvable", "t-block"), ("d", "d-layer"), ("y", "y-layer")]:
    s = enumerate_sample(SHIPPED_SAMPLES[name])
    dropped = find_mono_triples(s, layers=set("dyh") - {layer[0]})
    full = find_mono_triples(s)
    print(f"  {name:10s} drop {layer:8s}: {len(dropped.violations):3d} violations; "
          f"all layers: {len(full.violations)}")
    if dropped.violations:
        a, b, c = next(iter(dropped.violations))
        print(f"      e.g. a={a} b={b} shared key {c}")

print("\nsame window, same report:")
again = find_mono_triples(enumerate_sample(spec))
print(f"  swept again: {again == report}")
