"""Sumset-search tests: mono-pair detection, forced verdicts, min colours."""

import ast
import inspect
import random
from itertools import product

import pytest

from fourfree import sumset
from fourfree.sumset import (
    FiniteGroupSpec,
    GroupTooLarge,
    all_colourings_forced,
    find_mono_pair_sumset,
    min_colours_avoiding,
)

Z4 = FiniteGroupSpec((4,))
Z2 = FiniteGroupSpec((2,))
Z2Z2 = FiniteGroupSpec((2, 2))


def brute_force_forced(group, colours):
    """Oracle: enumerate every raw colouring (no pruning, no symmetry)."""
    elems = group.elements()
    pairs = [(a, b) for i, a in enumerate(elems) for b in elems[i + 1 :]]
    for assign in product(range(colours), repeat=len(elems)):
        table = dict(zip(elems, assign))
        if not any(
            table[group.double(a)] == table[group.double(b)] == table[group.add(a, b)]
            for a, b in pairs
        ):
            return False
    return True


def reference_forced(group, colours, budget):
    """Oracle: the per-attempt backtracker, which re-checks every triple that
    closes at element k for each colour it tries there.

    Returns (verdict, witness, nodes) as ``all_colourings_forced`` does.
    """
    elems = group.elements()
    index = {e: i for i, e in enumerate(elems)}
    triples = set()
    for i, x in enumerate(elems):
        dx = index[group.double(x)]
        for y in elems[i + 1 :]:
            triples.add(tuple(sorted((dx, index[group.double(y)], index[group.add(x, y)]))))
    return reference_backtrack(len(elems), triples, colours, budget)


def reference_backtrack(n, triples, colours, budget):
    """The per-attempt backtracker itself, over n elements and sorted index
    triples (a, b, m): element m may not take the colour a and b share."""
    cons_by_last = [[] for _ in range(n)]
    for tri in triples:
        cons_by_last[tri[2]].append(tri)
    assignment = [0] * n
    used = [0] * (n + 1)
    next_try = [0] * n
    nodes = 0
    k = 0
    while k >= 0:
        limit = min(colours, used[k] + 1)
        col = next_try[k]
        if col >= limit:
            k -= 1
            if k >= 0:
                next_try[k] += 1
            continue
        nodes += 1
        if nodes > budget:
            return "unknown", None, nodes - 1
        assignment[k] = col
        if any(assignment[a] == assignment[b] == assignment[c] for a, b, c in cons_by_last[k]):
            next_try[k] += 1
            continue
        if k == n - 1:
            return "not_forced", tuple(assignment), nodes
        used[k + 1] = used[k] + (1 if col == used[k] else 0)
        k += 1
        next_try[k] = 0
    return "forced", None, nodes


def reference_pairs(group):
    """Oracle for the split: per element index k, the pairs (a, b) whose shared
    colour k may not take, built from tuple arithmetic and an index dict."""
    elems = group.elements()
    index = {e: i for i, e in enumerate(elems)}
    pairs = [set() for _ in elems]
    for i, x in enumerate(elems):
        dx = index[group.double(x)]
        for y in elems[i + 1 :]:
            a, b, k = sorted((dx, index[group.double(y)], index[group.add(x, y)]))
            pairs[k].add((a, a) if b == k else (a, b))
    return pairs


def reference_min_colours(group, budget):
    """Oracle for ``min_colours_avoiding``: (verdict, count, witness, nodes)."""
    nodes = 0
    for c in range(1, group.size + 1):
        verdict, witness, used = reference_forced(group, c, budget - nodes)
        nodes += used
        if verdict == "unknown":
            return "unknown", None, None, nodes
        if verdict == "not_forced":
            return "ok", c, witness, nodes
    raise AssertionError("injective colouring must avoid")


ORACLE_SHAPES = [
    (), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (10,), (11,), (12,), (13,),
    (15,), (16,), (27,), (2, 2), (2, 4), (2, 6), (2, 8), (3, 3), (3, 6), (4, 4),
    (5, 5), (3, 9), (2, 2, 2), (4, 2, 2), (3, 3, 3), (2, 2, 2, 2),
]


class TestAgainstPerAttemptOracle:
    """The engine skips forbidden colours in one step; the per-attempt
    backtracker tries them one at a time.  Verdict, witness and node count
    must agree, budget exhaustion included."""

    @pytest.mark.parametrize("orders", ORACLE_SHAPES, ids=str)
    def test_forced_matches_oracle(self, orders):
        group = FiniteGroupSpec(orders)
        for colours in (1, 2, 3, 4):
            for budget in (0, 1, 2, 3, 7, 50, 1_000, 20_000):
                res = all_colourings_forced(group, colours, budget=budget)
                assert (res.verdict, res.witness, res.nodes) == reference_forced(
                    group, colours, budget
                ), (colours, budget)

    @pytest.mark.parametrize("orders", ORACLE_SHAPES, ids=str)
    def test_min_colours_matches_oracle(self, orders):
        group = FiniteGroupSpec(orders)
        for budget in (0, 5, 100, 5_000, 30_000):
            res = min_colours_avoiding(group, budget=budget)
            assert (res.verdict, res.count, res.witness, res.nodes) == reference_min_colours(
                group, budget
            ), budget

    # the search workload's six cases, budgets cut to keep the oracle quick
    @pytest.mark.parametrize("orders, colours, budget", [
        ((4, 4), None, 20_000),
        ((16,), None, 20_000),
        ((27,), None, 200_000),
        ((3, 9), None, 150_000),
        ((32,), 3, 150_000),
        ((4, 4, 2), 3, 150_000),
    ], ids=["4,4-min", "16-min", "27-min", "3,9-min", "32-c3", "4,4,2-c3"])
    def test_search_workload_cases_match_oracle(self, orders, colours, budget):
        group = FiniteGroupSpec(orders)
        if colours is None:
            res = min_colours_avoiding(group, budget=budget)
            assert (res.verdict, res.count, res.witness, res.nodes) == reference_min_colours(
                group, budget
            )
        else:
            res = all_colourings_forced(group, colours, budget=budget)
            assert (res.verdict, res.witness, res.nodes) == reference_forced(group, colours, budget)


class TestPrefixMasks:
    """The search reads each depth's pairs as a split and counts dead and leaf
    children without descending; both must reproduce the per-attempt oracle
    exactly."""

    @pytest.mark.parametrize("orders", [(4, 4), (3, 3), (2, 2, 2), (4, 2), (8,)], ids=str)
    @pytest.mark.parametrize("colours", [2, 3, 4])
    def test_every_small_budget_matches_oracle(self, orders, colours):
        # budgets that run out inside a dead or leaf child's colours included; at
        # 4 colours leaf children with the new colour open and at the colour limit
        # both occur, and the small groups reach their last depth
        group = FiniteGroupSpec(orders)
        for budget in range(401):
            res = all_colourings_forced(group, colours, budget=budget)
            assert (res.verdict, res.witness, res.nodes) == reference_forced(
                group, colours, budget
            ), budget

    @pytest.mark.parametrize("orders", ORACLE_SHAPES, ids=str)
    def test_split_reassembles_the_pair_sets(self, orders):
        group = FiniteGroupSpec(orders)
        split, kernels = sumset._pair_constraints(group)
        assert len(split) == len(kernels) == group.size + 1
        assert all(b < k - 1 for k, (inside, _, _) in enumerate(split) for _, b in inside)
        rebuilt = [set()] + [
            set(inside) | {(a, k - 1) for a in r} | {(a, k) for a in q}
            for k, (inside, r, q) in enumerate(split)
        ]
        assert rebuilt[-2:] == [set(), set()]  # no element past the last to constrain
        assert rebuilt[:-2] == [set(p) for p in reference_pairs(group)]

    def test_random_pair_systems_match_oracle(self, monkeypatch):
        # groups seldom leave a child only its new colour with that grandchild dead
        # too; random systems of pairs reach every term of the leaf count
        rng = random.Random(15)
        for _ in range(600):
            n = rng.randrange(2, 9)
            pairs = [set() for _ in range(n + 2)]  # (a, b), a <= b < m, by the element m they constrain
            for m in range(1, n):
                for a in (rng.randrange(m) for _ in range(rng.randrange(5))):
                    pairs[m].add((a, rng.randrange(a, m)))
            split = tuple(  # _pair_constraints' split of these pairs
                (
                    tuple(p for p in ps if p[1] < k - 1),
                    tuple(a for a, b in ps if b == k - 1),
                    tuple(a for a, b in ps if b == k),
                )
                for k, ps in enumerate(sorted(p) for p in pairs[1:])
            )
            monkeypatch.setattr(sumset, "_pair_constraints", lambda group, split=split, n=n: (split, [None] * (n + 1)))
            colours, budget = rng.randrange(1, 5), rng.choice([rng.randrange(60), 10**6])
            res = all_colourings_forced(FiniteGroupSpec((n,)), colours, budget=budget)
            triples = [(a, b, m) for m, ps in enumerate(pairs) for a, b in ps]
            assert (res.verdict, res.witness, res.nodes) == reference_backtrack(n, triples, colours, budget)

    def test_colour_count_beyond_the_group_is_prompt(self):
        # the search sizes its tables by the colours a depth can reach, never by the count asked for
        group = FiniteGroupSpec((4, 4))
        res = all_colourings_forced(group, 10**12)
        assert (res.verdict, res.witness, res.nodes) == reference_forced(group, 10**12, 10**6)
        same = all_colourings_forced(group, group.size)
        assert (res.verdict, res.witness, res.nodes) == (same.verdict, same.witness, same.nodes)


def reference_mask(k, inside, r, q, bit):
    """Oracle for ``_kernel``: the colours element k+1 may not take, ORed pair
    by pair over depth k's split once elements up to k have colours."""
    f = 0
    for a, b in [*inside, *((a, k - 1) for a in r), *((a, k) for a in q)]:
        f |= bit[a] & bit[b]
    return f


class TestKernel:
    """Each depth's generated function must give the masks a plain OR loop gives."""

    @pytest.mark.parametrize("length", [
        0, 1, sumset._UNROLL - 1, sumset._UNROLL, sumset._UNROLL + 1, 20_000,
    ])
    def test_matches_a_plain_or_loop(self, length):
        rng = random.Random(length)
        k = 40
        for trial in range(12):
            # every colour k may take (k - 1 in r), and the pairs (k - 1, k) and (k, k), in turn
            inside = [tuple(sorted((rng.randrange(k - 1), rng.randrange(k - 1)))) for _ in range(length)]
            r = sorted(rng.randrange(k - 1) for _ in range(length)) + [k - 1] * (trial % 2)
            q = sorted(rng.randrange(k - 1) for _ in range(length)) + [k - 1] * (trial % 3 == 1)
            q += [k] * (trial % 4 == 2)
            kernel = sumset._kernel(k, tuple(inside), tuple(r), tuple(q))
            lists = [inside, [(a, k - 1) for a in r], [(a, k) for a in q]]
            terms = [pair for pairs in lists for pair in pairs]
            ends = [pairs[i] for pairs in lists if pairs for i in (0, -1)] or [(0, 1)]
            # one-hot colours, distinct but for one pair's, so that pair alone decides the mask
            for x, y in ends + rng.sample(terms, min(len(terms), 4)):
                bit = [1 << c for c in range(k + 1)]
                bit[y] = bit[x]
                a, r_mask, qb, qr = kernel(bit[: k - 1])  # the kernel reads only elements before k - 1
                got = a | r_mask & bit[k - 1] | (qb | qr & bit[k - 1]) & bit[k]
                assert got == reference_mask(k, inside, r, q, bit), (x, y)

    def test_every_depth_of_a_large_group(self):
        # enough colours to reach the last depth builds every kernel, long tails included
        group = FiniteGroupSpec((32, 32))
        res = all_colourings_forced(group, 16)
        assert res.verdict == "not_forced"
        assert find_mono_pair_sumset(group, res.witness_table()) is None
        split, kernels = sumset._pair_constraints(group)
        assert max(len(inside) for inside, _, _ in split) > sumset._UNROLL
        assert all(kernels[1:])


class TestFiniteGroupSpec:
    def test_size_and_elements(self):
        assert Z4.size == 4 and Z2Z2.size == 4
        assert FiniteGroupSpec(()).size == 1
        assert Z2Z2.elements() == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_rejects_order_one(self):
        with pytest.raises(ValueError):
            FiniteGroupSpec((1, 4))

    def test_order_of(self):
        g = FiniteGroupSpec((4, 6))
        assert g.order_of((0, 0)) == 1
        assert g.order_of((2, 3)) == 2
        assert g.order_of((1, 1)) == 12


class TestFindMonoPairSumset:
    def test_constant_colouring_always_finds(self):
        assert find_mono_pair_sumset(Z4, {e: 0 for e in Z4.elements()}) is not None

    def test_documented_avoiding_z4_colouring(self):
        # every triple {2x, 2y, x+y} meets both 0 and 2 or is non-constant
        table = {(0,): 0, (1,): 0, (2,): 1, (3,): 0}
        assert find_mono_pair_sumset(Z4, table) is None

    def test_zero_nonzero_colouring_on_z2_cube(self):
        g = FiniteGroupSpec((2, 2, 2))
        table = {e: (0 if any(e) else 1) for e in g.elements()}
        assert find_mono_pair_sumset(g, table) is None

    def test_total_table_required(self):
        with pytest.raises(ValueError):
            find_mono_pair_sumset(Z4, {(0,): 0})

    def test_cap(self):
        g = FiniteGroupSpec((2,) * 13)
        with pytest.raises(GroupTooLarge):
            find_mono_pair_sumset(g, {}, cap=4096)


class TestAllColouringsForced:
    def test_z4_one_colour_forced(self):
        assert all_colourings_forced(Z4, 1).verdict == "forced"

    def test_z4_two_colours_not_forced_with_verified_witness(self):
        res = all_colourings_forced(Z4, 2)
        assert res.verdict == "not_forced"
        assert find_mono_pair_sumset(Z4, res.witness_table()) is None

    def test_z2_one_colour_forced(self):
        # the single pair {0, g} gives {0, 0, g}, monochromatic under 1 colour
        assert all_colourings_forced(Z2, 1).verdict == "forced"

    @pytest.mark.parametrize("group", [Z2, Z4, Z2Z2])
    @pytest.mark.parametrize("colours", [1, 2])
    def test_matches_brute_force(self, group, colours):
        res = all_colourings_forced(group, colours)
        assert res.verdict in ("forced", "not_forced")
        assert (res.verdict == "forced") == brute_force_forced(group, colours)

    def test_budget_zero_is_unknown(self):
        res = all_colourings_forced(Z4, 2, budget=0)
        assert res.verdict == "unknown" and res.witness is None

    def test_forced_is_downward_monotone(self):
        for group in (Z2, Z4, Z2Z2, FiniteGroupSpec((4, 2))):
            verdicts = [
                all_colourings_forced(group, c).verdict == "forced" for c in (1, 2, 3)
            ]
            for lo, hi in zip(verdicts, verdicts[1:]):
                assert lo or not hi  # forced at c implies forced below c

    def test_witnesses_self_consistent(self):
        for group in (Z4, Z2Z2, FiniteGroupSpec((4, 4)), FiniteGroupSpec((8,))):
            for c in (2, 3):
                res = all_colourings_forced(group, c)
                if res.verdict == "not_forced":
                    assert find_mono_pair_sumset(group, res.witness_table()) is None


    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            all_colourings_forced(Z4, 2, budget=-1)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="cap must be >= 0") as info:
            all_colourings_forced(Z4, 2, cap=-1)
        assert not isinstance(info.value, GroupTooLarge)


class TestMinColoursAvoiding:
    def test_z4_needs_two(self):
        res = min_colours_avoiding(Z4)
        assert res.count == 2
        assert find_mono_pair_sumset(Z4, res.witness_table()) is None

    def test_z2_z2_needs_two(self):
        res = min_colours_avoiding(Z2Z2)
        assert res.count == 2

    def test_trivial_group_needs_one(self):
        res = min_colours_avoiding(FiniteGroupSpec(()))
        assert res.count == 1

    def test_budget_exhaustion_reported(self):
        res = min_colours_avoiding(Z4, budget=0)
        assert res.verdict == "unknown" and res.count is None

    def test_budget_covers_the_whole_run(self):
        # Z4 + Z4 needs 12,316 nodes over colour counts 1..4 in all
        group = FiniteGroupSpec((4, 4))
        short = min_colours_avoiding(group, budget=12_100)
        assert short.verdict == "unknown" and short.nodes <= 12_100
        exact = min_colours_avoiding(group, budget=12_316)
        assert exact.verdict == "ok" and exact.count == 4 and exact.nodes == 12_316


    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget must be >= 0"):
            min_colours_avoiding(Z4, budget=-5)

    def test_constraints_built_once_per_run(self, monkeypatch):
        # the run clears the cache as it returns, so read it after each search
        infos = []

        def search(*args, **kwargs):
            res = all_colourings_forced(*args, **kwargs)
            infos.append(sumset._pair_constraints.cache_info())
            return res

        monkeypatch.setattr(sumset, "all_colourings_forced", search)
        group = FiniteGroupSpec((4, 4))
        sumset._pair_constraints.cache_clear()
        assert min_colours_avoiding(group).count == 4
        info = infos[-1]
        assert (info.misses, info.hits) == (1, 3)  # colour counts 1..4, one build
        split, kernels = sumset._pair_constraints(group)
        assert isinstance(split, tuple) and all(isinstance(p, tuple) for p in split)
        assert kernels == [None] * (group.size + 1)  # a fresh build has compiled no kernel

    @pytest.mark.parametrize("budget, verdict", [(1_000_000, "ok"), (100, "unknown")])
    def test_constraints_released_after_the_run(self, budget, verdict):
        # at the 4,096-element cap the constraints take hundreds of MB
        assert min_colours_avoiding(FiniteGroupSpec((4, 4)), budget=budget).verdict == verdict
        assert sumset._pair_constraints.cache_info().currsize == 0

    def test_constraints_released_after_a_rejected_run(self):
        group = FiniteGroupSpec((4, 4))
        sumset._pair_constraints(group)
        with pytest.raises(GroupTooLarge):
            min_colours_avoiding(group, cap=10)
        assert sumset._pair_constraints.cache_info().currsize == 0

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="cap must be >= 0"):
            min_colours_avoiding(Z4, cap=-1)

    def test_calls_search_by_its_module_name(self):
        """Tracing wraps ``sumset.all_colourings_forced``; the run must reach
        it through the module global, not a bound alias."""
        tree = ast.parse(inspect.getsource(min_colours_avoiding))
        callees = [
            node.func for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "all_colourings_forced"
        ]
        assert callees and all(isinstance(f, ast.Name) for f in callees)


class TestAutomorphismInvariance:
    def test_coordinate_swap_on_z4_squared(self):
        g = FiniteGroupSpec((4, 4))
        rng = random.Random(77)
        elems = g.elements()
        for _ in range(30):
            table = {e: rng.randrange(3) for e in elems}
            swapped = {e: table[(e[1], e[0])] for e in elems}
            assert (find_mono_pair_sumset(g, table) is None) == (
                find_mono_pair_sumset(g, swapped) is None
            )

    def test_negation_on_z4(self):
        rng = random.Random(78)
        for _ in range(30):
            table = {e: rng.randrange(2) for e in Z4.elements()}
            negated = {e: table[Z4.neg(e)] for e in Z4.elements()}
            assert (find_mono_pair_sumset(Z4, table) is None) == (
                find_mono_pair_sumset(Z4, negated) is None
            )


class TestSearchResultShape:
    def test_describe_round_trips_to_json(self):
        import json

        res = all_colourings_forced(Z4, 2)
        blob = json.dumps(res.describe())
        parsed = json.loads(blob)
        assert parsed["verdict"] == "not_forced"
        assert parsed["group"] == {"orders": [4], "size": 4}
        assert parsed["witness"]["[2]"] != parsed["witness"]["[0]"]
