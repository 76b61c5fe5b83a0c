"""The three-layer countable colouring of ambient groups.

An element's colour is the triple

  (profile of its Pruefer block, profile of its free block, can it be halved?)

Under this colouring no distinct a, b in a 4-free ambient group ever make
{2a, 2b, a+b} monochromatic: equal first profiles force equal Pruefer parts,
equal second profiles force equal free parts, and then 2a is halvable while
a+b (which differs from 2a only by a nonzero order-2 part) is not, because
each coset of the order-2 block contains at most one halvable element.

Colour text encoding (stable, injective)::

    D[v1,v2,...]|Y[w1,...]|H<0|1>

with values as reduced fraction strings; the zero element encodes as
``D[]|Y[]|H1``.  A profile is a tuple of Fractions; ``verify --drop-layer``
writes a dropped-layer key, a plain tuple, as its repr.  ``LAYER_TEXTS`` holds
the text of a double's colour under each set of layers the verifier's sweep
compares, and the colourings of ``DROPPED_LAYER_COLOURINGS`` are its oracle.
"""

from __future__ import annotations

from fractions import Fraction

from .ambient import INTEGER, AmbientElement, element
from .arith import DROPPED_LAYERS, record

__all__ = [
    "Colour",
    "NotHalvable",
    "is_halvable",
    "halve",
    "colour",
    "colour_encode",
    "colour_drop_d",
    "colour_drop_y",
    "colour_drop_halvable",
    "DROPPED_LAYER_COLOURINGS",
    "LAYER_TEXTS",
]


class NotHalvable(ValueError):
    """No group element doubles to the given element."""


@record
class Colour:
    d_profile: tuple[Fraction, ...]
    y_profile: tuple[Fraction, ...]
    halvable: bool


def is_halvable(a: AmbientElement) -> bool:
    """True iff some g in the same ambient group has 2g = a.

    Doubling is an automorphism of each odd quasicyclic factor, so the
    Pruefer block never obstructs.  In rational free mode the condition is
    t = 0; in integer free mode additionally every free coordinate must be
    even.
    """
    if any(a.t):
        return False
    if a.signature.free_mode == INTEGER:
        return all(v.numerator % 2 == 0 for v in a.q)
    return True


def halve(a: AmbientElement) -> AmbientElement:
    """Canonical g with 2g = a (zero t part), or raise :class:`NotHalvable`.

    A Pruefer coordinate num/p^k maps to (num * inv2)/p^k mod 1 where inv2
    inverts 2 mod p^k.
    """
    if not is_halvable(a):
        raise NotHalvable(f"{a.canonical_text()} has no half")
    d = [
        (idx, Fraction(coord.numerator * pow(2, -1, coord.denominator), coord.denominator))
        for idx, coord in a.d
    ]
    return element(a.signature, d, a.t, [v / 2 for v in a.q])


def colour(a: AmbientElement) -> Colour:
    """The product colouring: d profile, free-part profile, halvability."""
    return Colour(a.d_profile(), a.q_profile(), is_halvable(a))


def _encode_values(values) -> str:
    return ",".join(str(v) for v in values)


def colour_encode(c: Colour) -> str:
    return f"D[{_encode_values(c.d_profile)}]|Y[{_encode_values(c.y_profile)}]|H{int(c.halvable)}"


# Diagnostic colourings with one layer removed; each layer is load-bearing,
# and dropping any of them admits monochromatic {2a, 2b, a+b} on documented
# samples.

def colour_drop_d(a: AmbientElement):
    return ("y+h", a.q_profile(), is_halvable(a))


def colour_drop_y(a: AmbientElement):
    return ("d+h", a.d_profile(), is_halvable(a))


def colour_drop_halvable(a: AmbientElement):
    return ("d+y", a.d_profile(), a.q_profile())


DROPPED_LAYER_COLOURINGS = dict(zip(DROPPED_LAYERS, (colour_drop_d, colour_drop_y, colour_drop_halvable)))

# The colour text of a double under each set of layers the sweep compares, from
# the texts of its d and y profiles, each written by the function beside the
# template; a double is always halvable.  With every layer it is colour_encode's
# text, with two the repr of the DROPPED_LAYER_COLOURINGS key, with one the repr
# of that layer's value, and with none the constant 0.
LAYER_TEXTS = {
    frozenset("dyh"): ("D[{d}]|Y[{y}]|H1", _encode_values),
    frozenset("dy"): ("('d+y', {d}, {y})", repr),
    frozenset("yh"): ("('y+h', {y}, True)", repr),
    frozenset("dh"): ("('d+h', {d}, True)", repr),
    frozenset("d"): ("{d}", repr),
    frozenset("y"): ("{y}", repr),
    frozenset("h"): ("True", repr),
    frozenset(): ("0", repr),
}
