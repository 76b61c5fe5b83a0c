"""Acceptance suite: one test per shipped criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The headline no-monochromatic-triple property concerns infinite
groups, so acceptance is property-based over finite windows: exhaustive
sweeps, brute-force oracles, and exact structure checks.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product

from fourfree.ambient import INTEGER, AmbientSignature, element
from fourfree.colouring import (
    DROPPED_LAYER_COLOURINGS,
    halve,
    is_halvable,
)
from fourfree.presentation import (
    CanonicalDecomposition,
    Presentation,
    adjoin_divisor,
    canonical_decomposition,
    element_order_in,
    has_order_four,
    smith_normal_form,
)
from fourfree.sumset import (
    FiniteGroupSpec,
    all_colourings_forced,
    find_mono_pair_sumset,
    find_order4_witness,
    min_colours_avoiding,
)
from fourfree.verifier import (
    SHIPPED_SAMPLES,
    SampleSpec,
    check_coset_uniqueness,
    enumerate_sample,
    find_mono_triples,
)

from conftest import det
from test_presentation import all_abelian_groups, brute_force_orders, mat_mul
from test_sumset import brute_force_forced

MAIN_SIG = AmbientSignature((3, 5), 2, 2)


def verdict(tag, ok, detail):
    line = f"ACCEPTANCE {tag} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_c01_main_exhaustive_sweep():
    spec = SHIPPED_SAMPLES["main-sweep"]
    assert spec.signature == MAIN_SIG
    start = time.perf_counter()
    sample = enumerate_sample(spec)
    report = find_mono_triples(sample)
    elapsed = time.perf_counter() - start
    ok = (
        report.size >= 1_000
        and report.pairs >= 500_000
        and not report.violations
        and elapsed < 60.0
    )
    verdict(
        "C1",
        ok,
        f"main sweep: {report.size} elements, {report.pairs} pairs, "
        f"{len(report.violations)} violations, {elapsed:.1f}s (< 60s)",
    )


def test_c02_every_layer_is_load_bearing():
    cases = {"halvable": "t-block", "d": "d-layer", "y": "y-layer"}
    details = []
    ok = True
    for layer, name in cases.items():
        sample = enumerate_sample(SHIPPED_SAMPLES[name])
        dropped = find_mono_triples(sample, DROPPED_LAYER_COLOURINGS[layer])
        full = find_mono_triples(sample)
        ok = ok and dropped.violations and not full.violations
        details.append(
            f"{name} drop-{layer}: {len(dropped.violations)}>0, full: {len(full.violations)}"
        )
    verdict("C2", ok, "layer necessity: " + "; ".join(details))


def test_c04_snf_property_suite():
    rng = random.Random(2024)
    passed = 0
    for _ in range(1_000):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        A = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        res = smith_normal_form(A)
        lhs = mat_mul(mat_mul([list(r) for r in res.U], A), [list(r) for r in res.V])
        assert lhs == [list(r) for r in res.S]
        assert abs(det(res.U)) == 1 and abs(det(res.V)) == 1
        diag = res.diagonal
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            assert (b % a == 0) if a else (b == 0)
        passed += 1
    verdict("C4", passed == 1_000, f"SNF properties on {passed}/1000 random matrices")


def test_c05_order_oracle_census():
    groups = 0
    for n in range(1, 65):
        for factors in all_abelian_groups(n):
            dec = CanonicalDecomposition(0, factors)
            orders = dec.factor_orders or (1,)
            census = brute_force_orders(orders)
            oracle = Counter(
                element_order_in(dec, coords)
                for coords in product(*(range(pe) for pe in dec.factor_orders))
            )
            assert census == oracle
            assert has_order_four(dec) == (census.get(4, 0) > 0)
            # per-element agreement, not just the multiset
            for coords in product(*(range(pe) for pe in dec.factor_orders)):
                acc, steps = coords, 1
                while any(acc):
                    acc = tuple(
                        (a + b) % pe for a, b, pe in zip(acc, coords, dec.factor_orders)
                    )
                    steps += 1
                assert steps == element_order_in(dec, coords)
            groups += 1
    verdict(
        "C5",
        groups > 0,
        f"order oracle matches brute-force census on all {groups} abelian groups "
        "of order <= 64",
    )


def test_c06_adjoin_divisor_preserves_four_freeness():
    rng = random.Random(4096)
    done = 0
    while done < 1_000:
        n = rng.randint(1, 4)
        m = rng.randint(0, 4)
        pres = Presentation(
            n, tuple(tuple(rng.randint(-12, 12) for _ in range(n)) for _ in range(m))
        )
        if has_order_four(canonical_decomposition(pres)):
            continue
        x = tuple(rng.randint(-6, 6) for _ in range(n))
        p = rng.choice([3, 5, 7])
        assert not has_order_four(canonical_decomposition(adjoin_divisor(pres, x, p)))
        done += 1

    adjoined = adjoin_divisor(Presentation(1, ((3,),)), (1,), 3)
    facs = smith_normal_form(adjoined.relations).invariant_factors
    dec = canonical_decomposition(adjoined)
    ok = facs == (1, 9) and dec == CanonicalDecomposition(0, ((3, 2),))
    verdict(
        "C6",
        done == 1_000 and ok,
        f"adjoin-divisor: 1000/1000 stay 4-free; Z3 + g/3 has invariant factors {facs}",
    )


def _halvability_grid(sig, depth, q_num, q_den):
    spec = SampleSpec(
        sig, prufer_depth=depth, q_numerator_bound=q_num, q_denominator_bound=q_den
    )
    return enumerate_sample(spec)


def _doubles_closure(sig, depth, q_num, q_den):
    # grid wide enough to contain the canonical half of every halvable sample
    # element: free denominators doubled, everything else unchanged
    if sig.free_mode == INTEGER:
        q_vals = [Fraction(v) for v in range(-q_num, q_num + 1)]
    else:
        q_vals = sorted(
            {
                Fraction(a, b)
                for a in range(-q_num, q_num + 1)
                for b in range(1, 2 * q_den + 1)
            }
        )
    per_factor = [
        [Fraction(j, p**depth) for j in range(p**depth)] for p in sig.prufer_factors
    ]
    doubles = set()
    for d_coords in product(*per_factor):
        d = {i: c for i, c in enumerate(d_coords) if c}
        for t in product((0, 1), repeat=sig.s):
            for q in product(q_vals, repeat=sig.r):
                doubles.add(element(sig, d=d, t=t, q=q).double())
    return doubles


def test_c07_halvability_oracle():
    cases = [
        (AmbientSignature((3,), 1, 2), 2, 3, 2),
        (AmbientSignature((3,), 1, 2, free_mode=INTEGER), 2, 4, 1),
    ]
    total = 0
    for sig, depth, q_num, q_den in cases:
        sample = _halvability_grid(sig, depth, q_num, q_den)
        assert len(sample) >= 1_000
        doubles = _doubles_closure(sig, depth, q_num, q_den)
        for a in sample:
            assert is_halvable(a) == (a in doubles)
            if is_halvable(a):
                assert halve(a).double() == a
            if not any(a.t):
                # doubling collapses the order-2 block, so inverting through
                # it is only defined on the t-free slice
                assert halve(a.double()) == a
        total += len(sample)

    t_free = AmbientSignature((3, 7), 0, 1)
    for a in _halvability_grid(t_free, 1, 2, 2):
        assert halve(a.double()) == a
        total += 1
    verdict(
        "C7",
        total >= 2_000,
        f"halvability closed form == brute-force pre-image search on {total} "
        "elements (both free modes); halve/double identities hold",
    )


def test_c08_coset_uniqueness_on_shipped_samples():
    names = []
    for name, spec in SHIPPED_SAMPLES.items():
        report = check_coset_uniqueness(enumerate_sample(spec))
        assert report.ok, f"coset uniqueness failed on {name}"
        names.append(name)
    verdict("C8", True, f"coset uniqueness holds on all shipped samples: {names}")


def test_c09_order4_obstruction():
    from fourfree.sumset import order4_obstruction_demo

    demo = order4_obstruction_demo((4, 4))
    group = demo.group
    g, h = demo.witness
    ok = (
        (g, h) == ((1, 0), (0, 1))
        and group.double(g) != group.double(h)
        and group.order_of(group.add(group.double(g), group.neg(group.double(h)))) == 2
        and group.order_of(group.add(g, group.neg(h))) == 4
    )
    four_free = [(2, 2), (3,), (6,), (2, 6), (2, 2, 2), (3, 3), (2, 18)]
    for orders in four_free:
        ok = ok and find_order4_witness(FiniteGroupSpec(orders)) is None
    verdict(
        "C9",
        ok,
        "order-4 demo: g=(1,0), h=(0,1) in Z4+Z4 with 2g != 2h, 2g-2h of order 2, "
        f"g-h of order 4; no witness in 4-free groups {four_free}",
    )


def test_c10_contrast_data_points():
    start = time.perf_counter()
    z4 = FiniteGroupSpec((4,))
    forced1 = all_colourings_forced(z4, 1)
    forced2 = all_colourings_forced(z4, 2)
    min_res = min_colours_avoiding(z4)
    elapsed = time.perf_counter() - start
    ok = (
        forced1.verdict == "forced"
        and forced2.verdict == "not_forced"
        and find_mono_pair_sumset(z4, forced2.witness_table()) is None
        and min_res.min_colours == 2
        and find_mono_pair_sumset(z4, min_res.witness_table()) is None
        and brute_force_forced(z4, 1) is True  # raw enumeration, 1 assignment
        and brute_force_forced(z4, 2) is False  # raw enumeration, 16 assignments
        and elapsed < 10.0
    )
    verdict(
        "C10",
        ok,
        f"Z4 contrast: forced at c=1, avoidable at c=2 (witness verified), "
        f"min colours = 2, exhaustive <= 2^16 assignments, {elapsed:.2f}s (< 10s)",
    )
