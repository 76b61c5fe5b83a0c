"""Group-core tests: exact ambient arithmetic, orders, profiles, text form."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fourfree
from fourfree.ambient import (
    INTEGER,
    AmbientElement,
    AmbientSignature,
    ElementParseError,
    SignatureMismatch,
    element,
    zero,
)

from conftest import random_element

SIG = AmbientSignature((3, 5), s=2, r=2)


class TestSignature:
    def test_rejects_even_prime(self):
        with pytest.raises(ValueError):
            AmbientSignature((2,))

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            AmbientSignature((9,))

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            AmbientSignature((), s=-1)

    def test_repeated_primes_allowed(self):
        sig = AmbientSignature((3, 3, 5))
        assert sig.prufer_factors == (3, 3, 5)


class TestAddNegate:
    def test_identity(self):
        a = element(SIG, d={0: Fraction(1, 9)}, t=(1, 0), q=(2, Fraction(1, 2)))
        assert a + zero(SIG) == a

    def test_prufer_addition_mod_one(self):
        a = element(SIG, d={0: Fraction(1, 9)})
        b = element(SIG, d={0: Fraction(2, 9)})
        assert (a + b).d == ((0, Fraction(1, 3)),)

    def test_t_addition_mod_two(self):
        a = element(SIG, t=(1, 0))
        b = element(SIG, t=(1, 1))
        assert (a + b).t == (0, 1)

    def test_negate_zero(self):
        assert -zero(SIG) == zero(SIG)

    def test_negate_prufer(self):
        a = element(SIG, d={0: Fraction(1, 9)})
        assert (-a).d == ((0, Fraction(8, 9)),)
        assert (a + -a).is_zero

    def test_negate_t_and_q(self):
        a = element(SIG, t=(1, 0), q=(Fraction(3, 2), 0))
        n = -a
        assert n.t == (1, 0) and n.q == (Fraction(-3, 2), 0)
        assert (a + n).is_zero

    def test_signature_mismatch(self):
        other = AmbientSignature((3, 5), s=2, r=1)
        with pytest.raises(SignatureMismatch):
            zero(SIG) + zero(other)


class TestScalarMul:
    def test_zero_scalar(self):
        a = element(SIG, d={0: Fraction(1, 9)}, t=(1, 1), q=(1, 2))
        assert (0 * a).is_zero

    def test_triple_of_ninth(self):
        a = element(SIG, d={0: Fraction(1, 9)})
        assert (3 * a).d == ((0, Fraction(1, 3)),)

    def test_double_kills_t(self):
        a = element(SIG, t=(1, 0), q=(1, 0))
        assert (2 * a) == element(SIG, t=(0, 0), q=(2, 0))

    def test_matches_repeated_addition(self, rng):
        sig = AmbientSignature((3, 7), s=1, r=1)
        for _ in range(50):
            a = random_element(rng, sig)
            acc = zero(sig)
            for n in range(21):
                assert n * a == acc
                acc = acc + a

    def test_negative_scalar(self, rng):
        for _ in range(50):
            a = random_element(rng, SIG)
            assert (-3) * a == -(3 * a)


class TestOrder:
    def test_zero_order_one(self):
        assert zero(SIG).order() == 1

    def test_prufer_order_is_denominator(self):
        assert element(SIG, d={0: Fraction(1, 9)}).order() == 9

    def test_mixed_order_lcm(self):
        # order 6 = lcm(3, 2); confirmed by repeated addition below
        a = element(SIG, d={0: Fraction(1, 3)}, t=(1, 0))
        assert a.order() == 6

    def test_order_matches_repeated_addition(self, rng):
        sig = AmbientSignature((3, 5), s=2, r=0)
        for _ in range(100):
            a = random_element(rng, sig)
            n = a.order()
            acc = a
            steps = 1
            while not acc.is_zero:
                acc = acc + a
                steps += 1
            assert steps == n

    def test_infinite_order(self):
        assert element(SIG, q=(Fraction(1, 2), 0)).order() == math.inf
        assert element(SIG, q=(0, 3)).order() == math.inf


class TestGroupLaws:
    def test_laws_on_random_triples(self, rng):
        sig = AmbientSignature((3, 5, 3), s=2, r=2)
        z = zero(sig)
        for _ in range(10_000):
            a = random_element(rng, sig, depth=2, q_num=4, q_den=3)
            b = random_element(rng, sig, depth=2, q_num=4, q_den=3)
            c = random_element(rng, sig, depth=2, q_num=4, q_den=3)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a + z == a
            assert (a + -a) == z

    def test_no_order_four(self, rng):
        # ambient analogue of the 4-free hypothesis: 4a = 0 implies 2a = 0
        sig = AmbientSignature((3, 5), s=3, r=1)
        for _ in range(5_000):
            a = random_element(rng, sig)
            if (4 * a).is_zero:
                assert (2 * a).is_zero

    def test_doubling_preserves_d_support(self, rng):
        sig = AmbientSignature((3, 5, 7, 3), s=0, r=0)
        for _ in range(2_000):
            a = random_element(rng, sig)
            assert [i for i, _ in a.double().d] == [i for i, _ in a.d]


class TestProfileSupport:
    def test_profile_of_zero(self):
        assert zero(SIG).d_profile() == ()
        assert zero(SIG).q_profile() == ()

    def test_profile_of_d_map(self):
        a = element(SIG, d={1: Fraction(2, 5), 0: Fraction(1, 9)})
        assert a.d_profile() == (Fraction(1, 9), Fraction(2, 5))

    def test_profile_skips_zeros(self):
        sig = AmbientSignature((), r=3)
        prof = element(sig, q=(0, Fraction(3, 2), -1)).q_profile()
        assert prof == (Fraction(3, 2), Fraction(-1))

    def test_same_profile_different_support(self):
        # indices are discarded, so profiles can coincide across supports
        sig = AmbientSignature((3, 3))
        a = element(sig, d={0: Fraction(1, 3)})
        b = element(sig, d={1: Fraction(1, 3)})
        assert a.d_profile() == b.d_profile()
        assert [i for i, _ in a.d] != [i for i, _ in b.d]


class TestCanonicalText:
    def test_documented_form(self):
        a = element(SIG, d={0: Fraction(1, 9), 1: Fraction(2, 5)}, t=(1, 0), q=(0, Fraction(3, 2)))
        assert a.canonical_text() == "d:{0=1/9,1=2/5};t:10;q:(0,3/2)"

    def test_zero_form(self):
        assert zero(SIG).canonical_text() == "d:{};t:00;q:(0,0)"

    def test_round_trip_random(self, rng):
        for _ in range(500):
            a = random_element(rng, SIG)
            assert AmbientElement.parse(SIG, a.canonical_text()) == a

    def test_injective_on_sample(self, rng):
        elems = {random_element(rng, SIG) for _ in range(2_000)}
        texts = {a.canonical_text() for a in elems}
        assert len(texts) == len(elems)

    def test_profile_support_survive_round_trip(self, rng):
        for _ in range(200):
            a = random_element(rng, SIG)
            b = AmbientElement.parse(SIG, a.canonical_text())
            assert b.d_profile() == a.d_profile()
            assert [i for i, _ in b.d] == [i for i, _ in a.d]
            assert b.q_profile() == a.q_profile()

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "d:{};t:00",
            "d:{0=1/9};t:2;q:(0,0)",
            "d:{0:1/9};t:00;q:(0,0)",
            "d:{0=1/9};t:00;q:(0)",
            "d:{9=1/9};t:00;q:(0,0)",
            "d:{0=1/4};t:00;q:(0,0)",
            "d:{0=x};t:00;q:(0,0)",
            "d:{0=1/3,0=2/3};t:00;q:(0,0)",
            "d:{+0=1/3};t:00;q:(0,0)",
            "d:{0=1e0/3};t:00;q:(0,0)",
            "d:{};t:00;q:(1e3,0)",
            "d:{};t:00;q:(0.5,0)",
            "d:{};t:00;q:(+1,0)",
            "d:{};t:00;q:(1_0,0)",
            "d:{};t:00;q:( 1,0)",
            "d:{};t:00;q:(1/-2,0)",
        ],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ElementParseError):
            AmbientElement.parse(SIG, bad)


class TestNormalization:
    def test_zero_coords_dropped(self):
        a = element(SIG, d={0: Fraction(0), 1: Fraction(2, 5)}, q=(0, 0))
        assert a.d == ((1, Fraction(2, 5)),)

    def test_mod_one_reduction(self):
        a = element(SIG, d={0: Fraction(10, 9)})
        assert a.d == ((0, Fraction(1, 9)),)

    def test_wrong_prime_denominator_rejected(self):
        with pytest.raises(ValueError):
            element(SIG, d={0: Fraction(1, 5)})

    def test_integer_mode_rejects_fraction(self):
        sig = AmbientSignature((), 0, 1, free_mode=INTEGER)
        with pytest.raises(ValueError):
            element(sig, q=(Fraction(1, 2),))
        assert element(sig, q=(4,)).q == (Fraction(4),)

    def test_operations_normalize_through_element(self):
        """Only element() and Sample.element, whose decoded parts are canonical
        by construction, call the AmbientElement constructor in the package."""

        class Callers(ast.NodeVisitor):
            def __init__(self, module):
                self.scope = [module]
                self.found = set()

            def visit_scope(self, node):
                self.scope.append(node.name)
                self.generic_visit(node)
                self.scope.pop()

            visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = visit_scope

            def visit_Call(self, node):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "AmbientElement":
                    self.found.add(".".join(self.scope))
                self.generic_visit(node)

        found = set()
        for path in Path(fourfree.__file__).parent.glob("*.py"):
            callers = Callers(path.stem)
            callers.visit(ast.parse(path.read_text(encoding="utf-8")))
            found |= callers.found
        assert found == {"ambient.element", "verifier.Sample.element"}


@st.composite
def elements_st(draw):
    d = {}
    for i, p in enumerate(SIG.prufer_factors):
        den = p ** draw(st.integers(0, 2))
        d[i] = Fraction(draw(st.integers(0, den - 1)), den)
    t = draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))
    q = [
        Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        for _ in range(SIG.r)
    ]
    return element(SIG, d=d, t=t, q=q)


class TestHypothesisProperties:
    @settings(max_examples=200)
    @given(elements_st(), elements_st())
    def test_commutative(self, a, b):
        assert a + b == b + a

    @settings(max_examples=200)
    @given(elements_st())
    def test_text_round_trip(self, a):
        assert AmbientElement.parse(SIG, a.canonical_text()) == a

    @settings(max_examples=200)
    @given(elements_st(), st.integers(-6, 6))
    def test_scalar_distributes(self, a, n):
        assert n * a == (n * a + zero(SIG))
        assert (n + 1) * a == n * a + a


TAIL_SIG = AmbientSignature((3, 5, 3, 7), s=1, r=3)


@st.composite
def tail_elements(draw):
    """Elements whose supports vary: each coordinate is zero about half the time."""
    d = {
        i: Fraction(draw(st.one_of(st.just(0), st.integers(1, p**2 - 1))), p**2)
        for i, p in enumerate(TAIL_SIG.prufer_factors)
    }
    q = [
        Fraction(draw(st.one_of(st.just(0), st.integers(-3, 3))), draw(st.integers(1, 3)))
        for _ in range(TAIL_SIG.r)
    ]
    return element(TAIL_SIG, d=d, t=[draw(st.integers(0, 1))], q=q)


class TestProfileTail:
    """Zeroing the first coordinate of the support of a block drops exactly the
    first value of that block's profile and leaves the other profile alone:
    two profiles are equal when their first values and their tails are."""

    @settings(max_examples=300)
    @given(tail_elements())
    def test_d_profile_drops_its_first_value(self, a):
        assume(a.d)
        first = a.d[0][0]
        rest = element(TAIL_SIG, d={i: v for i, v in a.d if i != first}, t=a.t, q=a.q)
        assert rest.d_profile() == a.d_profile()[1:]
        assert rest.q_profile() == a.q_profile()

    @settings(max_examples=300)
    @given(tail_elements())
    def test_q_profile_drops_its_first_value(self, a):
        first = next((j for j, v in enumerate(a.q) if v), None)
        assume(first is not None)
        rest = element(TAIL_SIG, d=a.d, t=a.t, q=[0 if j == first else v for j, v in enumerate(a.q)])
        assert rest.q_profile() == a.q_profile()[1:]
        assert rest.d_profile() == a.d_profile()

    @settings(max_examples=300)
    @given(tail_elements())
    def test_profiles_hold_no_zero(self, a):
        # element() drops zero coordinates, so a profile is exactly the support's values
        assert 0 not in a.d_profile()
        assert 0 not in a.q_profile()
