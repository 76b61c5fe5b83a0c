"""Embedding a 4-free finitely presented group into its ambient group.

Each odd primary factor Z_{p^k} maps onto the subgroup of order p^k inside
its own quasicyclic factor Z(p^inf) (generator image 1/p^k); each factor
Z_2 maps onto one t bit; each free generator maps onto a unit free
coordinate.  The ambient is built factor by factor, so no splitting theorem
is needed at run time, and the ambient contains no element of order 4.

Generator images follow the canonical generator order of the decomposition:
primary factors first (sorted by prime then exponent), then free generators.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .ambient import RATIONAL, AmbientElement, AmbientSignature, element, zero
from .arith import describe_fields, record
from .presentation import CanonicalDecomposition, has_order_four

__all__ = ["EmbeddingMap", "OrderFourPresent", "build_embedding", "embed"]


class OrderFourPresent(ValueError):
    """The group has an element of order 4, so no 4-free ambient exists."""


@record
class EmbeddingMap:
    decomposition: CanonicalDecomposition
    signature: AmbientSignature
    generator_images: tuple[AmbientElement, ...]

    def describe(self) -> dict:
        images = [g.canonical_text() for g in self.generator_images]
        return {**describe_fields(self), "generator_images": images}


def build_embedding(
    dec: CanonicalDecomposition, free_mode: str = RATIONAL
) -> EmbeddingMap:
    """Ambient signature and generator images for a 4-free decomposition.

    Every odd factor gets its own quasicyclic factor even when primes repeat,
    keeping the embedding injective coordinatewise.  Raises
    :class:`OrderFourPresent` when the decomposition has a factor 2^k, k >= 2.
    """
    if has_order_four(dec):
        raise OrderFourPresent(
            "group contains an element of order 4; no 4-free ambient embedding"
        )
    prufer = tuple(p for p, _ in dec.primary_factors if p != 2)
    s = sum(1 for p, _ in dec.primary_factors if p == 2)
    sig = AmbientSignature(prufer, s, dec.free_rank, free_mode)

    images = []
    prufer_idx = 0
    t_idx = 0
    for p, e in dec.primary_factors:
        if p == 2:  # 4-freeness forces e == 1 here
            bits = [0] * s
            bits[t_idx] = 1
            images.append(element(sig, t=bits))
            t_idx += 1
        else:
            images.append(element(sig, d={prufer_idx: Fraction(1, p**e)}))
            prufer_idx += 1
    for j in range(dec.free_rank):
        unit = [0] * dec.free_rank
        unit[j] = 1
        images.append(element(sig, q=unit))
    return EmbeddingMap(dec, sig, tuple(images))


def embed(emap: EmbeddingMap, coeffs: Sequence[int]) -> AmbientElement:
    """Linear extension of the generator images: sum of coeff_i * image_i."""
    if len(coeffs) != len(emap.generator_images):
        raise ValueError(
            f"expected {len(emap.generator_images)} coefficients, got {len(coeffs)}"
        )
    acc = zero(emap.signature)
    for c, image in zip(coeffs, emap.generator_images):
        acc = acc + int(c) * image
    return acc
