"""Countable colourings of abelian groups without order-4 elements.

Exact arithmetic in ambient groups (+)_i Z(p_i^inf) (+) (Z_2)^s (+) F^r,
Smith normal form and structure data for finitely presented abelian groups,
the embedding of 4-free groups into such ambients, the three-layer colouring
under which no distinct a, b make {2a, 2b, a+b} monochromatic, exhaustive
finite verification of that property, and finite search on the order-4 side
of the contrast.

The package re-exports the names the demos and the README use; everything
else is imported from its submodule.
"""

from .ambient import AmbientSignature, element, zero
from .colouring import colour, colour_encode
from .embedding import build_embedding, embed
from .presentation import (
    Presentation,
    adjoin_divisor,
    canonical_decomposition,
    element_order_in,
    has_order_four,
    smith_normal_form,
)
from .sumset import all_colourings_forced, find_mono_pair_sumset, min_colours_avoiding
from .verifier import (
    SHIPPED_SAMPLES,
    check_coset_uniqueness,
    enumerate_sample,
    find_mono_triples,
    find_order4_witness,
    order4_obstruction_demo,
)

__version__ = "0.1.0"
