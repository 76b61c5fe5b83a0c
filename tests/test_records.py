"""Frozen records (``arith.record``) against ``dataclasses`` as the oracle.

Each of the package's record classes must behave as the
``dataclasses.dataclass(frozen=True)`` it replaces: the same repr, the same
hash, equality within one class only, frozen fields, keyword construction
with the same defaults, and ``__post_init__``.
A record's report block is its own fields, written by ``arith.describe_fields``.
"""

import dataclasses
from fractions import Fraction

import pytest

from fourfree.ambient import AmbientElement, AmbientSignature, element
from fourfree.arith import describe_fields, record
from fourfree.colouring import Colour, colour
from fourfree.embedding import EmbeddingMap, build_embedding
from fourfree.presentation import (
    CanonicalDecomposition,
    Presentation,
    SNFResult,
    canonical_decomposition,
    smith_normal_form,
)
from fourfree.sumset import (
    FiniteGroupSpec,
    MinColoursResult,
    ObstructionDemo,
    SearchResult,
    all_colourings_forced,
    min_colours_avoiding,
    order4_obstruction_demo,
)
from fourfree.verifier import (
    SHIPPED_SAMPLES,
    CosetReport,
    Sample,
    SampleSpec,
    TripleReport,
    check_coset_uniqueness,
    enumerate_sample,
    find_mono_triples,
)

SIG = AmbientSignature((3, 5), 2, 1)
Z2_Z6 = Presentation(2, ((2, 0), (0, 6)))
A = element(SIG, d={0: Fraction(1, 3)}, t=[1, 0], q=[Fraction(-1, 2)])
WINDOW = enumerate_sample(SHIPPED_SAMPLES["demo-default"])
HALVES = enumerate_sample(SampleSpec(SIG, q_denominator_bound=2))


def instances():
    """One instance of each record class."""
    return [
        SIG,
        A,
        colour(A),
        build_embedding(canonical_decomposition(Z2_Z6)),
        smith_normal_form(Z2_Z6.relations),
        Z2_Z6,
        canonical_decomposition(Z2_Z6),
        FiniteGroupSpec((4,)),
        all_colourings_forced(FiniteGroupSpec((4,)), 2),
        min_colours_avoiding(FiniteGroupSpec((4,))),
        SHIPPED_SAMPLES["depth-two"],
        HALVES,
        find_mono_triples(WINDOW),
        check_coset_uniqueness(WINDOW),
        order4_obstruction_demo((4, 4)),
    ]


RECORDS = [
    AmbientSignature, AmbientElement, Colour, EmbeddingMap, SNFResult, Presentation,
    CanonicalDecomposition, FiniteGroupSpec, SearchResult, MinColoursResult, SampleSpec, Sample,
    TripleReport, CosetReport, ObstructionDemo,
]


def names(cls):
    return list(cls.__dict__["__annotations__"])


def twin_class(cls):
    """The frozen dataclass with the same name, fields and defaults."""
    fields = [
        (n, object, dataclasses.field(default=cls.__dict__[n])) if n in cls.__dict__ else n
        for n in names(cls)
    ]
    return dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True)


def values(obj):
    return [getattr(obj, n) for n in names(type(obj))]


def test_every_record_class_has_an_instance():
    assert [type(obj) for obj in instances()] == RECORDS


@pytest.mark.parametrize("obj", instances(), ids=[cls.__name__ for cls in RECORDS])
class TestParityWithDataclass:
    def test_repr_and_hash(self, obj):
        twin = twin_class(type(obj))(*values(obj))
        assert repr(obj) == repr(twin)
        assert hash(obj) == hash(twin)

    def test_equality_within_one_class_only(self, obj):
        cls = type(obj)
        same = cls(*values(obj))
        assert same == obj and not same != obj and hash(same) == hash(obj)
        twin = twin_class(cls)(*values(obj))
        assert obj != twin and twin != obj
        assert obj.__eq__(twin) is NotImplemented
        assert obj != object()

    def test_fields_are_frozen(self, obj):
        first = names(type(obj))[0]
        with pytest.raises(AttributeError):
            setattr(obj, first, getattr(obj, first))
        with pytest.raises(AttributeError):
            delattr(obj, first)
        with pytest.raises(AttributeError):
            obj.unknown_field = 1
        assert getattr(obj, first) == values(obj)[0]

    def test_keyword_construction(self, obj):
        cls = type(obj)
        assert cls(**dict(zip(names(cls), values(obj)))) == obj
        with pytest.raises(TypeError):
            cls(*values(obj), None)


@pytest.mark.parametrize("cls, args, kwargs", [
    (AmbientSignature, [], {}),
    (AmbientSignature, [], {"r": 2}),
    (AmbientElement, [AmbientSignature((3,))], {}),
    (Presentation, [2], {}),
    (CanonicalDecomposition, [1], {}),
    (SampleSpec, [SIG], {}),
], ids=["signature", "signature-r", "element", "presentation", "decomposition",
        "spec"])
def test_defaults(cls, args, kwargs):
    assert repr(cls(*args, **kwargs)) == repr(twin_class(cls)(*args, **kwargs))


@pytest.mark.parametrize("build", [
    lambda: AmbientSignature((4,)),
    lambda: AmbientSignature((3,), -1),
    lambda: AmbientElement(SIG, d=((0, Fraction(1, 2)),)),
    lambda: Presentation(-1),
    lambda: Presentation(2, ((1, 2, 3),)),
    lambda: CanonicalDecomposition(0, ((4, 1),)),
    lambda: FiniteGroupSpec((1,)),
    lambda: SampleSpec(SIG, prufer_depth=0),
], ids=["signature-prime", "signature-count", "element-denominator",
        "presentation-count", "presentation-row", "decomposition-prime", "group-order",
        "spec-depth"])
def test_post_init_rejects_bad_input(build):
    with pytest.raises(ValueError):
        build()


def test_post_init_normalises_fields():
    assert AmbientSignature([3, 5]).prufer_factors == (3, 5)
    assert Presentation(1, [[2]]).relations == ((2,),)
    assert CanonicalDecomposition(0, [(5, 1), (3, 2)]).primary_factors == ((3, 2), (5, 1))
    assert HALVES.coset_texts((HALVES.M // 3, 0), (-HALVES.L // 2,), [0b10]) == {0b10: A.canonical_text()}


@record
class _Leaf:
    value: int

    def describe(self):
        return {"leaf": self.value}


class _Base:
    tag: str = "a base class's annotation is not a field"


@record
class _Node(_Base):
    name: str
    leaf: _Leaf
    rows: tuple = ()
    missing: object = None


def test_describe_fields():
    node = _Node("n", _Leaf(1), ((1, _Leaf(2)), ()))
    block = describe_fields(node)
    assert block == {"name": "n", "leaf": {"leaf": 1}, "rows": [[1, {"leaf": 2}], []], "missing": None}
    assert list(block) == ["name", "leaf", "rows", "missing"]


# the key each report block adds or re-renders on top of describe_fields, or None
DESCRIBED = {
    AmbientSignature: None, SampleSpec: None, ObstructionDemo: None,
    FiniteGroupSpec: "size", CanonicalDecomposition: "torsion_order",
    EmbeddingMap: "generator_images", SearchResult: "witness",
}


@pytest.mark.parametrize("obj", [o for o in instances() if type(o) in DESCRIBED],
                         ids=[cls.__name__ for cls in RECORDS if cls in DESCRIBED])
def test_report_block_is_the_fields(obj):
    key = DESCRIBED[type(obj)]
    block, fields = obj.describe(), describe_fields(obj)
    assert (type(obj).describe is describe_fields) == (key is None)
    assert list(block) == names(type(obj)) + ([key] if key and key not in fields else [])
    assert {k: v for k, v in block.items() if k != key} == {k: v for k, v in fields.items() if k != key}
