"""Countable colourings of abelian groups without order-4 elements.

Exact arithmetic in ambient groups (+)_i Z(p_i^inf) (+) (Z_2)^s (+) F^r,
Smith normal form and structure data for finitely presented abelian groups,
the embedding of 4-free groups into such ambients, the three-layer colouring
under which no distinct a, b make {2a, 2b, a+b} monochromatic, exhaustive
finite verification of that property, and finite search on the order-4 side
of the contrast.

The package re-exports the names the demos and the README use, importing
each one's submodule on first access; everything else is imported from its
submodule.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "ambient": ("AmbientSignature", "element", "zero"),
    "colouring": ("colour", "colour_encode"),
    "embedding": ("build_embedding", "embed"),
    "presentation": ("Presentation", "adjoin_divisor", "canonical_decomposition",
                     "element_order_in", "has_order_four", "smith_normal_form"),
    "sumset": ("all_colourings_forced", "find_mono_pair_sumset", "min_colours_avoiding"),
    "verifier": ("SHIPPED_SAMPLES", "check_coset_uniqueness", "enumerate_sample",
                 "find_mono_triples", "find_order4_witness", "order4_obstruction_demo"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name: str):
    """Import a re-exported name's submodule on first access (PEP 562)."""
    for module, names in _EXPORTS.items():
        if name in names:
            value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
