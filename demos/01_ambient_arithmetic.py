#!/usr/bin/env python3
"""Tour of the ambient groups: Pruefer coordinates, order-2 bits, free parts.

The ambient group has the shape  (+)_i Z(p_i^inf) (+) (Z_2)^s (+) Q^r.
Elements of a quasicyclic factor Z(p^inf) are rationals with p-power
denominator taken mod 1: adding 1/9 three times gives 1/3, nine times gives
0.  Everything is exact; no floats anywhere.
"""

from fractions import Fraction

from fourfree import AmbientSignature, element, zero

sig = AmbientSignature(prufer_factors=(3, 5), s=2, r=2)
print("signature:", sig.describe())

a = element(sig, d={0: Fraction(1, 9), 1: Fraction(2, 5)}, t=(1, 0), q=(0, Fraction(3, 2)))
b = element(sig, d={0: Fraction(2, 9)}, t=(1, 1), q=(1, Fraction(1, 2)))

print("\na      =", a.canonical_text())
print("b      =", b.canonical_text())
print("a + b  =", (a + b).canonical_text(), "   (1/9 + 2/9 = 1/3; t bits add mod 2)")
print("-a     =", (-a).canonical_text(), "    (Pruefer negation is 1 - coordinate)")
print("2a     =", a.double().canonical_text(), "  (doubling kills the t part)")
print("0      =", zero(sig).canonical_text())

print("\norders:")
for x in [zero(sig), element(sig, d={0: Fraction(1, 9)}), element(sig, d={0: Fraction(1, 3)}, t=(1, 0)), a]:
    print(f"  order({x.canonical_text()}) = {x.order()}")

print("\nNo element of this group has order 4: the d part has odd order,")
print("the t part has order 2, the free part has infinite order, and the")
print("lcm of numbers from {odd, 1, 2} is never 4.")

print("\nprofiles discard indices, supports keep them:")
c = element(sig, d={0: Fraction(1, 9), 1: Fraction(2, 5)})
print("  d part of c:", dict(c.d))
print("  profile:", [str(v) for v in c.d_profile()])
print("  support:", [i for i, _ in c.d])

twin = AmbientSignature((3, 3))
left = element(twin, d={0: Fraction(1, 3)})
right = element(twin, d={1: Fraction(1, 3)})
print("\nwith repeated primes, different supports can share a profile:")
print("  ", left.canonical_text(), "vs", right.canonical_text())
print("  same profile?", left.d_profile() == right.d_profile(),
      "| same support?", [i for i, _ in left.d] == [i for i, _ in right.d])
