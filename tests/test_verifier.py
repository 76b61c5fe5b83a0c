"""Verifier tests: sampling, the pair sweep, coset checks."""

import ast
import hashlib
import inspect
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fourfree.ambient import INTEGER, AmbientSignature, element
from fourfree.colouring import (
    DROPPED_LAYER_COLOURINGS,
    Colour,
    colour,
    colour_encode,
    is_halvable,
    reads_layers,
)
from fourfree.verifier import (
    SHIPPED_SAMPLES,
    Sample,
    SampleCapExceeded,
    SampleSpec,
    check_coset_uniqueness,
    constant_colour,
    enumerate_sample,
    find_mono_triples,
)


@reads_layers("d")
def d_only(a):
    return a.d_profile()


@reads_layers("y")
def y_only(a):
    return a.q_profile()


class TestEnumerateSample:
    def test_t_block_has_four_elements(self):
        spec = SampleSpec(AmbientSignature((), 2, 0))
        assert len(enumerate_sample(spec)) == 4

    def test_prufer_depth_two_gives_nine(self):
        spec = SampleSpec(AmbientSignature((3,)), prufer_depth=2)
        sample = enumerate_sample(spec)
        assert len(sample) == 9
        assert len(set(sample)) == 9
        assert all(coord.denominator in (1, 3, 9) for a in sample for _, coord in a.d)

    def test_q_box(self):
        spec = SampleSpec(
            AmbientSignature((), 0, 1), q_numerator_bound=2, q_denominator_bound=2
        )
        assert spec.q_values() == tuple(
            Fraction(x)
            for x in sorted([-2, -1, Fraction(-1, 2), 0, Fraction(1, 2), 1, 2])
        )
        assert spec.cardinality() == 7

    def test_integer_mode_box(self):
        spec = SampleSpec(
            AmbientSignature((), 0, 1, free_mode=INTEGER),
            q_numerator_bound=3,
            q_denominator_bound=5,  # ignored in integer mode
        )
        assert spec.q_values() == tuple(Fraction(n) for n in range(-3, 4))

    def test_cardinality_matches_enumeration(self):
        spec = SHIPPED_SAMPLES["demo-default"]
        assert spec.cardinality() == len(enumerate_sample(spec)) == 180

    def test_cap_enforced(self):
        spec = SampleSpec(AmbientSignature((3, 5), 2, 2), prufer_depth=3)
        with pytest.raises(SampleCapExceeded):
            enumerate_sample(spec, cap=1000)

    def test_negative_cap_rejected(self):
        spec = SampleSpec(AmbientSignature((3,), 1, 1))
        with pytest.raises(ValueError, match="cap must be >= 0") as info:
            enumerate_sample(spec, cap=-5)
        assert not isinstance(info.value, SampleCapExceeded)

    @pytest.mark.parametrize("free_mode", ["rational", INTEGER])
    def test_q_box_size_counts_the_box(self, free_mode):
        sig = AmbientSignature((), 0, 1, free_mode=free_mode)
        for b in range(1, 9):
            for d in range(1, 9):
                spec = SampleSpec(sig, q_numerator_bound=b, q_denominator_bound=d)
                assert spec.q_box_size() == len(spec.q_values()), (b, d)
                assert spec.cardinality() == len(spec.q_values())

    def test_huge_box_counted_without_building_it(self):
        spec = SampleSpec(
            AmbientSignature((), 0, 2), q_numerator_bound=10**6, q_denominator_bound=10**6
        )
        start = time.perf_counter()
        with pytest.raises(SampleCapExceeded):
            enumerate_sample(spec)
        assert time.perf_counter() - start < 5.0
        # 1 + 2 * #coprime pairs in [1, 10^6]^2 (OEIS A018805)
        assert spec.q_box_size() == 1 + 2 * 607927104783


class TestFindMonoTriples:
    def test_constant_colouring_self_test(self):
        sample = enumerate_sample(SHIPPED_SAMPLES["t-block"])
        report = find_mono_triples(sample, constant_colour)
        assert report.violations
        assert report.pairs == 6

    def test_t_block_clean_under_full_colouring(self):
        # 2a = 2b = 0 is halvable; a+b != 0 lies in T and is not halvable
        sample = enumerate_sample(SHIPPED_SAMPLES["t-block"])
        report = find_mono_triples(sample)
        assert report.ok and report.pairs == 6

    def test_demo_default_sweep_clean(self):
        spec = SHIPPED_SAMPLES["demo-default"]
        report = find_mono_triples(enumerate_sample(spec))
        assert report.ok
        assert report.size == 180 and report.pairs == 16110

    @pytest.mark.parametrize("layer,sample_name", [
        ("halvable", "t-block"),
        ("d", "d-layer"),
        ("y", "y-layer"),
    ])
    def test_each_layer_is_load_bearing(self, layer, sample_name):
        sample = enumerate_sample(SHIPPED_SAMPLES[sample_name])
        dropped = find_mono_triples(sample, DROPPED_LAYER_COLOURINGS[layer])
        full = find_mono_triples(sample)
        assert dropped.violations
        assert full.ok

    def test_depth_two_sweep_clean(self):
        spec = SHIPPED_SAMPLES["depth-two"]
        report = find_mono_triples(enumerate_sample(spec))
        assert report.ok and report.size == 9 * 25 * 4 * 7

    def test_single_layer_colourings_also_violate(self):
        # degenerate colourings made of one layer alone are caught too
        sample = enumerate_sample(SHIPPED_SAMPLES["demo-default"])
        assert find_mono_triples(sample, d_only).violations
        assert find_mono_triples(sample, y_only).violations
        assert find_mono_triples(sample, colour).ok

    def test_undeclared_colouring_rejected(self):
        sample = enumerate_sample(SHIPPED_SAMPLES["t-block"])
        with pytest.raises(TypeError, match="reads_layers"):
            find_mono_triples(sample, lambda a: a.d_profile())

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError, match="unknown colour layers"):
            reads_layers("x")

    def test_all_shipped_samples_clean(self):
        for name, spec in SHIPPED_SAMPLES.items():
            if name == "main-sweep":  # exercised in the acceptance suite
                continue
            report = find_mono_triples(enumerate_sample(spec))
            assert report.ok, f"violations in shipped sample {name}"

    def test_violation_records_are_canonical(self):
        sample = enumerate_sample(SHIPPED_SAMPLES["t-block"])
        report = find_mono_triples(sample, constant_colour)
        assert report.violations == tuple(sorted(report.violations))
        for a_text, b_text, colour_text in report.violations:
            assert a_text < b_text
            assert colour_text == "0"

    def test_report_independent_of_input_order(self):
        """The report depends only on the set of elements: a Sample holding the
        same d codes and q codes in another order sweeps to the same report."""
        sample = enumerate_sample(SHIPPED_SAMPLES["demo-default"])
        rng = random.Random(3)
        ds, qs = list(sample.d_codes), list(sample.q_codes)
        rng.shuffle(ds)
        rng.shuffle(qs)
        shuffled = Sample(sample.signature, sample.M, sample.L, tuple(ds), tuple(qs))
        assert shuffled != sample and set(shuffled) == set(sample)
        for fn_name, fn in ORACLE_COLOURINGS.items():
            assert find_mono_triples(sample, fn) == find_mono_triples(shuffled, fn), fn_name
        assert check_coset_uniqueness(sample) == check_coset_uniqueness(shuffled)

    def test_violations_independent_of_input_order(self):
        sample = enumerate_sample(SHIPPED_SAMPLES["d-layer"])
        backward = Sample(sample.signature, sample.M, sample.L, sample.d_codes[::-1], sample.q_codes[::-1])
        forward = find_mono_triples(sample, DROPPED_LAYER_COLOURINGS["d"])
        assert forward.violations == find_mono_triples(backward, DROPPED_LAYER_COLOURINGS["d"]).violations
        assert forward.violations

    @pytest.mark.parametrize("fn", [find_mono_triples, check_coset_uniqueness])
    def test_only_a_window_is_swept(self, fn):
        sample = enumerate_sample(SHIPPED_SAMPLES["t-block"])
        for elements in (list(sample), (), SHIPPED_SAMPLES["t-block"]):
            with pytest.raises(TypeError, match="enumerate_sample"):
                fn(elements)


def brute_force_sweep(elements, colour_fn):
    """Every unordered pair of distinct elements, with AmbientElement arithmetic.

    Returns (violations, number of distinct colours of doubles, candidate
    pairs).  Colours of doubles are interned to ints only so that comparing
    them for each of the ~10^7 pairs of depth-two stays fast.
    """
    uniq = sorted(set(elements), key=lambda a: a.canonical_text())
    ids: dict = {}
    doubled = [colour_fn(a.double()) for a in uniq]
    cid = [ids.setdefault(c, len(ids)) for c in doubled]
    violations = []
    candidates = 0
    for i, a in enumerate(uniq):
        ci = cid[i]
        for j in range(i + 1, len(uniq)):
            if cid[j] == ci:
                candidates += 1
                if colour_fn(a + uniq[j]) == doubled[i]:
                    c = doubled[i]
                    text = colour_encode(c) if isinstance(c, Colour) else repr(c)
                    violations.append((a.canonical_text(), uniq[j].canonical_text(), text))
    return tuple(sorted(violations)), len(ids), candidates


ORACLE_COLOURINGS = {
    "colour": colour,
    "constant": constant_colour,
    **{f"drop-{layer}": fn for layer, fn in DROPPED_LAYER_COLOURINGS.items()},
}
# depth-two has ~2*10^7 pairs; under drop-d and the constant colouring
# millions of them are candidates, each an AmbientElement addition, which the
# brute force cannot finish in minutes (drop-d is pinned below instead).  On
# repeated-prime-box and integer the constant colouring takes the brute force
# 10-17 s; every other colouring at most a few seconds.
ORACLE_SKIP = {
    ("depth-two", "drop-d"), ("depth-two", "constant"),
    ("repeated-prime-box", "constant"), ("integer", "constant"),
}
ORACLE_SAMPLES = {
    **{name: spec for name, spec in SHIPPED_SAMPLES.items() if name != "main-sweep"},
    "mixed-depths": SampleSpec(AmbientSignature((3, 5), 0, 0), prufer_depth=2),
    "repeated-prime": SampleSpec(AmbientSignature((3, 3), 1, 1), prufer_depth=2),
    "repeated-prime-box": SampleSpec(AmbientSignature((3, 3), 1, 1), prufer_depth=2,
                                     q_numerator_bound=2, q_denominator_bound=2),
    "integer": SampleSpec(AmbientSignature((3,), 1, 2, free_mode=INTEGER), prufer_depth=2,
                          q_numerator_bound=3),
    "trivial": SampleSpec(AmbientSignature()),
}


class TestBruteForceOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_SAMPLES))
    def test_engine_matches_all_pairs(self, name):
        sample = enumerate_sample(ORACLE_SAMPLES[name])
        for fn_name, fn in ORACLE_COLOURINGS.items():
            if (name, fn_name) in ORACLE_SKIP:
                continue
            report = find_mono_triples(sample, fn)
            violations, n_buckets, candidates = brute_force_sweep(sample, fn)
            assert report.violations == violations, (name, fn_name)
            assert report.n_buckets == n_buckets, (name, fn_name)
            assert report.candidate_pairs == candidates, (name, fn_name)
            assert report.size == len(set(sample))

    def test_depth_two_drop_d_is_pinned(self):
        """depth-two under drop-d, which the brute force cannot finish, pinned
        by its counts and the SHA-256 of its sorted violation records, one
        tab-joined record a line, as the sweep gave them before the list path
        was deleted, with each colour key's profiles written as plain tuples."""
        sample = enumerate_sample(SHIPPED_SAMPLES["depth-two"])
        report = find_mono_triples(sample, DROPPED_LAYER_COLOURINGS["d"])
        counts = (report.size, report.pairs, report.n_buckets, report.candidate_pairs)
        assert counts == (6_300, 19_841_850, 7, 2_831_850)
        assert len(report.violations) == 705_600 == predicted_violations(sample, "drop-d") == comb(225, 2) * 4 * 7
        digest = hashlib.sha256("".join("\t".join(v) + "\n" for v in sorted(report.violations)).encode())
        assert digest.hexdigest() == "84fb609532067e18e0170dfdd20ddbb2b998dd370e92bee3a4e56b051d46b3ac"


@st.composite
def small_windows(draw):
    """Windows of at most 60 elements: no, one or two Pruefer factors (a
    repeated prime too), s and r up to 2, both free modes, depth up to 2."""
    sig = AmbientSignature(
        draw(st.lists(st.sampled_from([3, 5]), max_size=2)), draw(st.integers(0, 2)),
        draw(st.integers(0, 2)), draw(st.sampled_from(["rational", INTEGER])),
    )
    spec = SampleSpec(sig, *(draw(st.integers(1, 2)) for _ in range(3)))
    assume(spec.cardinality() <= 60)
    return spec


class TestDrawnWindows:
    """The engine against the brute force on windows drawn at random: repeated
    primes, s and r up to 2, both free modes, depths 1 and 2."""

    # Under ``constant`` every d pair and every q pair are partners, so two
    # cosets with distinct d parts and distinct q parts are a hit.  This
    # window holds such cosets with the two part orders running the same way,
    # (0, 0) and (1/3, 1), and crosswise, (0, 1) and (1/3, 0).
    @settings(max_examples=100, deadline=None)
    @given(spec=small_windows())
    @example(spec=SampleSpec(AmbientSignature((3,), 0, 1)))
    def test_engine_matches_all_pairs(self, spec):
        sample = enumerate_sample(spec)
        for fn_name, fn in ORACLE_COLOURINGS.items():
            report = find_mono_triples(sample, fn)
            violations, n_buckets, candidates = brute_force_sweep(sample, fn)
            assert report.violations == violations, fn_name
            assert report.n_buckets == n_buckets, fn_name
            assert report.candidate_pairs == candidates, fn_name
            assert report.size == len(set(sample)), fn_name

    @settings(max_examples=100, deadline=None)
    @given(spec=small_windows())
    @example(spec=SampleSpec(AmbientSignature((), 1, 1, free_mode=INTEGER), q_numerator_bound=2))
    def test_census_matches_listed_elements(self, spec):
        sample = enumerate_sample(spec)
        listed = [listed_element(sample, code) for code in codes(sample)]
        report = check_coset_uniqueness(sample)
        counts = (len(listed), len({(a.d, a.q) for a in listed}), sum(map(is_halvable, listed)))
        assert (report.n_elements, report.n_cosets, report.n_halvable) == counts


def predicted_violations(sample, fn_name):
    """The violation count that the lemmas still in force fix for a window
    under ``fn_name``, from its d parts D, q parts Q, T = 2^s t masks and
    size n.  Dropping h leaves (L_d) and (L_y): a and b share a coset and
    differ in t.  Dropping d leaves (L_y): qa = qb, and a halvable a+b needs
    ta = tb.  Dropping y leaves (L_d): da = db, ta = tb, and in integer mode
    qa + qb even in every coordinate, so q parts pair within a parity class."""
    n_d, n_t, n_q = len(sample.d_codes), len(sample.t_masks), len(sample.q_codes)
    integer = sample.signature.free_mode == INTEGER
    classes = Counter(tuple(v % 2 for v in q) if integer else () for q in sample.q_codes)
    return {
        "colour": 0,
        "drop-halvable": n_d * n_q * comb(n_t, 2),
        "drop-d": comb(n_d, 2) * n_t * n_q,
        "drop-y": n_d * n_t * sum(comb(size, 2) for size in classes.values()),
        "constant": comb(n_d * n_t * n_q, 2),
    }[fn_name]


# Closed-form cases predicted above this many violations are not swept: main-sweep
# under drop-d, drop-y and constant, and depth-two under drop-d and constant.
_CLOSED_FORM_LIMIT = 300_000
_NAMED_WINDOWS = {**SHIPPED_SAMPLES, **ORACLE_SAMPLES}


class TestClosedFormCounts:
    """Each colouring's violation count is the closed form that the proof's
    lemmas predict, on windows the brute force cannot finish too."""

    @staticmethod
    def assert_counts_predicted(sample):
        for fn_name, fn in ORACLE_COLOURINGS.items():
            predicted = predicted_violations(sample, fn_name)
            if predicted <= _CLOSED_FORM_LIMIT:
                assert len(find_mono_triples(sample, fn).violations) == predicted, fn_name

    @pytest.mark.parametrize("name", sorted(_NAMED_WINDOWS))
    def test_named_windows(self, name):
        self.assert_counts_predicted(enumerate_sample(_NAMED_WINDOWS[name]))

    @settings(max_examples=100, deadline=None)
    @given(spec=small_windows())
    def test_drawn_windows(self, spec):
        self.assert_counts_predicted(enumerate_sample(spec))


def _mutant(d=tuple, y=tuple):
    """``colour`` with its d and free profiles passed through ``d`` and ``y``."""
    return lambda a: (d(a.d_profile()), y(a.q_profile()), is_halvable(a))


class TestMutantColourings:
    """Wrong colourings that the brute-force oracle catches on small windows.

    Each mutant reads less of a profile than ``colour`` does, and gives at
    least one monochromatic triple on its window, where ``colour`` gives none;
    nothing in the package is patched.  Sorting only the free profile is no
    mutant: if 2a, 2b and a+b have equal multisets of free values, they have
    equal sums and equal sums of squares, which over Q forces a = b.  So the
    torsion block needs the order of its profile, and the free block only the
    multiplicities.
    """

    R2 = SampleSpec(AmbientSignature((), 0, 2), q_numerator_bound=2)
    MUTANTS = {
        "sorted-d": (_mutant(d=lambda p: tuple(sorted(p))), SampleSpec(AmbientSignature((3, 3, 3), 0, 0))),
        "set-of-free": (_mutant(y=frozenset), SampleSpec(AmbientSignature((), 0, 3), q_numerator_bound=2)),
        "first-d": (_mutant(d=lambda p: tuple(p)[:1]), SHIPPED_SAMPLES["odd-square"]),
        "last-d": (_mutant(d=lambda p: tuple(p)[-1:]), SHIPPED_SAMPLES["odd-square"]),
        "first-free": (_mutant(y=lambda p: tuple(p)[:1]), R2),
        "last-free": (_mutant(y=lambda p: tuple(p)[-1:]), R2),
    }

    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_is_caught(self, name):
        mutant, spec = self.MUTANTS[name]
        sample = list(enumerate_sample(spec))
        assert brute_force_sweep(sample, colour)[0] == ()
        assert brute_force_sweep(sample, mutant)[0]


class TestCosetUniqueness:
    def test_pure_t_sample(self):
        sample = enumerate_sample(SHIPPED_SAMPLES["t-block"])
        report = check_coset_uniqueness(sample)
        assert report.ok
        assert report.n_cosets == 1 and report.n_halvable == 1  # only zero

    def test_exhaustive_rational_sample(self):
        spec = SHIPPED_SAMPLES["demo-default"]
        sample = enumerate_sample(spec)
        report = check_coset_uniqueness(sample)
        assert report.ok
        # rational mode: halvable iff t = 0, exactly one per coset
        assert report.n_halvable == report.n_cosets

    def test_integer_mode_odd_values_have_no_halvable(self):
        # halvable: t = 0 and q even; a test of bit 1 (v & 2) in place of bit 0
        # counts 3 at q bound 3 too, but 2 at bounds 1 and 2
        for bound, n_halvable in [(1, 1), (2, 3), (3, 3)]:
            spec = SampleSpec(AmbientSignature((), 1, 1, free_mode=INTEGER), q_numerator_bound=bound)
            sample = enumerate_sample(spec)
            report = check_coset_uniqueness(sample)
            assert report.ok and report.n_cosets == 2 * bound + 1
            assert report.n_halvable == sum(map(is_halvable, sample)) == n_halvable, bound
            assert not any(is_halvable(a) for a in sample if a.q[0].numerator % 2)

    def test_every_shipped_sample(self):
        """The census of each shipped window is what counting its listed
        elements gives, with ``is_halvable`` deciding halvability."""
        for name, spec in SHIPPED_SAMPLES.items():
            sample = enumerate_sample(spec)
            report = check_coset_uniqueness(sample)
            assert report.ok, f"coset failure in {name}"
            elements = set(sample)
            counts = (len(elements), len({(a.d, a.q) for a in elements}), sum(map(is_halvable, elements)))
            assert (report.n_elements, report.n_cosets, report.n_halvable) == counts, name


def codes(sample):
    """Every code of a window, in the order the window yields its elements."""
    return list(product(sample.d_codes, sample.t_masks, sample.q_codes))


def listed_element(sample, code):
    """The element with ``code``, built by ``element`` from its coordinates,
    not by the sample's decoders."""
    d, t, q = code
    sig = sample.signature
    return element(sig, d={i: Fraction(x, sample.M) for i, x in enumerate(d)},
                   t=[(t >> k) & 1 for k in reversed(range(sig.s))], q=[Fraction(v, sample.L) for v in q])


class TestCodedSample:
    """A Sample is coded straight from its spec; it must read like the list of
    its elements and write their canonical text."""

    def test_product_sweep_never_holds_the_window(self):
        """Enumerating, sweeping and taking the coset census of main-sweep's
        44,100 elements allocates only for its distinct parts, about 74 KB
        (7.9 MiB at peak when the window was expanded and bucketed whole)."""
        tracemalloc.start()
        try:
            sample = enumerate_sample(SHIPPED_SAMPLES["main-sweep"])
            triple = find_mono_triples(sample)
            coset = check_coset_uniqueness(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (triple.size, triple.n_buckets, triple.candidate_pairs) == (44_100, 9_675, 87_750)
        assert triple.ok and coset.ok and coset.n_cosets == 11_025
        assert peak < 1_000_000

    def test_depth_three_window_counts(self):
        """main-sweep's window at depth 3 (661,500 elements) keeps the counts
        it had when every bucket was built; a window is counted from its parts."""
        spec = SampleSpec(AmbientSignature((3, 5), 2, 2), prufer_depth=3, q_numerator_bound=2,
                          q_denominator_bound=2)
        sample = enumerate_sample(spec, cap=1_000_000)
        triple, coset = find_mono_triples(sample), check_coset_uniqueness(sample)
        assert (triple.size, triple.n_buckets, triple.candidate_pairs) == (661_500, 145_125, 1_316_250)
        assert triple.ok and coset.ok
        assert coset.n_elements == 661_500 and coset.n_cosets == coset.n_halvable == 165_375

    def test_violation_sweep_holds_one_bucket_of_texts(self):
        """Under drop-halvable, main-sweep's 66,150 violation records are the
        report itself; the sweep allocates little beyond them, since element
        texts are written per bucket (8.2 MB more when they were cached
        across the whole window)."""
        sample = enumerate_sample(SHIPPED_SAMPLES["main-sweep"])
        tracemalloc.start()
        try:
            report = find_mono_triples(sample, DROPPED_LAYER_COLOURINGS["halvable"])
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.violations) == 66_150
        assert peak - retained < 2_000_000

    def test_integer_mode_codes_keep_parity(self):
        # the denominator bound is ignored in integer mode; were it folded
        # into L, every free code would be even and odd values would pass
        # the halvability test
        spec = SampleSpec(
            AmbientSignature((3,), 1, 1, free_mode=INTEGER), q_numerator_bound=3, q_denominator_bound=4
        )
        sample = enumerate_sample(spec)
        assert sample.L == 1
        for fn_name, fn in ORACLE_COLOURINGS.items():
            report = find_mono_triples(sample, fn)
            assert report.violations == brute_force_sweep(sample, fn)[0], fn_name
        report = check_coset_uniqueness(sample)
        assert report.n_halvable == sum(map(is_halvable, sample)) == 3 * 3  # t = 0 and q in {-2, 0, 2}

    def test_sequence_protocol(self):
        sample = enumerate_sample(SHIPPED_SAMPLES["odd-square"])
        elements = list(sample)
        assert len(sample) == len(elements) == 18
        assert sample[0] == elements[0] and sample[-1] == elements[-1]
        assert sample[3:11] == elements[3:11] and sample[::-1] == elements[::-1]
        assert sample == enumerate_sample(SHIPPED_SAMPLES["odd-square"])
        assert hash(sample) == hash(enumerate_sample(SHIPPED_SAMPLES["odd-square"]))
        assert sample != enumerate_sample(SampleSpec(AmbientSignature((3, 3), 1, 0), prufer_depth=2))
        assert elements[5] in sample and set(sample) == set(elements)
        # d-major, then t, then q; indices and slices of every sign and step
        sample = enumerate_sample(SHIPPED_SAMPLES["depth-two"])
        elements = list(sample)
        assert len(sample) == len(elements) == 225 * 4 * 7
        assert elements == [listed_element(sample, code) for code in codes(sample)]
        for i in (0, 1, 6, 7, 27, 28, 29, 1000, -1, -7, -8, -29, -len(sample)):
            assert sample[i] == elements[i], i
        for part in (slice(3, 40), slice(None, None, -7), slice(-50, None, 3), slice(9, 2)):
            assert sample[part] == elements[part], part
        for i in (len(sample), -len(sample) - 1):
            with pytest.raises(IndexError):
                sample[i]

    def test_decoded_elements_share_parts(self):
        sample = enumerate_sample(SHIPPED_SAMPLES["depth-two"])
        assert len({id(a.d) for a in sample}) == 9 * 25
        assert len({id(a.q) for a in sample}) == 7

    @staticmethod
    def assert_texts_match(sample, drawn):
        """``coset_texts`` writes the canonical text of the listed element of
        each drawn code, alone and with the other drawn codes of its coset, and
        ``element`` decodes that element."""
        cosets: dict = {}
        for code in drawn:
            d, t, q = code
            listed = listed_element(sample, code)
            assert sample.element(code) == listed
            assert sample.coset_texts(d, q, [t]) == {t: listed.canonical_text()}
            cosets.setdefault((d, q), {})[t] = listed.canonical_text()
        for (d, q), texts in cosets.items():
            assert sample.coset_texts(d, q, texts) == texts

    @pytest.mark.parametrize("name", sorted(SHIPPED_SAMPLES))
    def test_text_matches_canonical_text(self, name):
        sample = enumerate_sample(SHIPPED_SAMPLES[name])
        self.assert_texts_match(sample, codes(sample))

    @staticmethod
    def draw_codes(sample, count, seed):
        rng = random.Random(seed)
        return [(rng.choice(sample.d_codes), rng.choice(sample.t_masks), rng.choice(sample.q_codes))
                for _ in range(count)]

    def test_text_matches_canonical_text_of_seeded_draws(self):
        spec = SampleSpec(AmbientSignature((3, 5, 3), 3, 2), prufer_depth=2, q_numerator_bound=3,
                          q_denominator_bound=4)
        sample = enumerate_sample(spec, cap=spec.cardinality())
        self.assert_texts_match(sample, self.draw_codes(sample, count=400, seed=11))

    @pytest.mark.parametrize("sig", [AmbientSignature((3, 5), 0, 1), AmbientSignature((5,), 2, 0)],
                             ids=["s=0", "r=0"])
    def test_text_matches_canonical_text_of_listed_elements(self, sig):
        sample = enumerate_sample(SampleSpec(sig, prufer_depth=2, q_numerator_bound=9, q_denominator_bound=4))
        self.assert_texts_match(sample, self.draw_codes(sample, count=60, seed=5))

    def test_text_of_invalid_code_raises_like_element(self):
        t_block = enumerate_sample(SHIPPED_SAMPLES["t-block"])
        invalid = [
            # 1/5 is no Pruefer coordinate at a factor of prime 3
            (Sample(AmbientSignature((3,), 0, 0), 5, 1, ((1,),), ((),)), ((1,), 0, ()),
             "coordinate 1/5 at index 0 needs a power of 3 as denominator"),
            # 1/2 is no free coordinate in integer free mode
            (Sample(AmbientSignature((), 1, 1, free_mode=INTEGER), 1, 2, ((),), ((1,),)), ((), 1, (1,)),
             "free coordinate 1/2 is not an integer"),
            # a mask with a bit above s, or a negative one, names no order-2 part
            (t_block, ((), 4, ()), "t mask 4 is not a mask of 2 bits"),
            (t_block, ((), -1, ()), "t mask -1 is not a mask of 2 bits"),
        ]
        for sample, (d, t, q), message in invalid:
            with pytest.raises(ValueError) as from_element:
                sample.element((d, t, q))
            with pytest.raises(ValueError) as from_coset_texts:
                sample.coset_texts(d, q, [t])
            assert str(from_coset_texts.value) == str(from_element.value) == message
            assert type(from_coset_texts.value) is type(from_element.value)

    @pytest.mark.parametrize("fn", [find_mono_triples, check_coset_uniqueness])
    def test_report_text_comes_from_sample_text(self, fn):
        """Element text in a report is joined by Sample.coset_texts from
        per-part texts, never written element by element with canonical_text;
        the census of a window writes no element text at all."""
        names = {
            getattr(node, "attr", getattr(node, "id", None))
            for node in ast.walk(ast.parse(inspect.getsource(fn)))
        }
        assert "canonical_text" not in names
        assert ("coset_texts" in names) == (fn is find_mono_triples)
