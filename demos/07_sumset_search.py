#!/usr/bin/env python3
"""Finite data points on the positive side: when are colourings forced?

In Z4, one colour is forced (any distinct pair works), but two colours
already suffice to avoid every monochromatic {2x, 2y, x+y}: separate 0 and 2
from the rest.  The searcher backtracks over canonical colourings, pruning
the moment a forbidden triple closes, and its verdicts are cross-checked
against explicit witness verification.
"""

from fourfree import all_colourings_forced, find_mono_pair_sumset, min_colours_avoiding
from fourfree.sumset import FiniteGroupSpec

z4 = FiniteGroupSpec((4,))

print("constant colouring of Z4 has a monochromatic pair:",
      find_mono_pair_sumset(z4, {e: 0 for e in z4.elements()}))

res1 = all_colourings_forced(z4, 1)
res2 = all_colourings_forced(z4, 2)
print(f"\nZ4 with 1 colour : {res1.verdict} ({res1.nodes} nodes)")
print(f"Z4 with 2 colours: {res2.verdict} ({res2.nodes} nodes)")
print("  avoiding witness:", res2.witness_table())
print("  witness verified, no mono pair:",
      find_mono_pair_sumset(z4, res2.witness_table()) is None)

print("\nminimum colours avoiding all monochromatic pairs:")
for orders in [(4,), (2,), (2, 2), (4, 2), (4, 4), (8,), (3,)]:
    res = min_colours_avoiding(FiniteGroupSpec(orders))
    print(f"  {str(orders):10s} -> {res.min_colours}")

print("\nbudget exhaustion is a verdict, never a wrong answer:")
starved = all_colourings_forced(FiniteGroupSpec((4, 4)), 3, budget=10)
print(f"  Z4+Z4 with 3 colours, budget 10 -> {starved.verdict}")
