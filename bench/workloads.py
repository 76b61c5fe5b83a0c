"""The benchmark's workloads: the fourfree CLI calls each one makes, and the
reference checks that each call's exit code and JSON report must pass.

Every check here is an oracle independent of the code path it checks:
window cardinalities are counted arithmetically, presentation structure comes
from the generator's own diagonal, and search witnesses are re-checked by a
brute-force pair scan written below.  The checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

Check = Callable[[Path], list]  # report path -> list of mismatch descriptions


@dataclass
class Call:
    """One CLI call: ``fourfree <args> --output <report>``."""

    label: str
    args: list
    report: Path
    expect_exit: int
    check: Check

    def argv(self) -> list:
        return [*self.args, "--output", str(self.report)]


@dataclass
class Workload:
    name: str
    calls: list
    window: Optional["Window"] = None  # the swept window, for the traced replay
    drop_layer: Optional[str] = None


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- sweep windows -----------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """An exhaustive verify window and the counts recorded for it."""

    primes: tuple
    s: int
    r: int
    depth: int
    q_bound: int
    q_den_bound: int
    buckets: int  # recorded reference: buckets of colour(2a)
    candidate_pairs: int  # recorded reference: pairs inside buckets

    @property
    def signature(self) -> str:
        return f"prufer={','.join(map(str, self.primes))};s={self.s};r={self.r}"

    def args(self) -> list:
        return [
            "verify",
            "--signature", self.signature,
            "--prufer-depth", str(self.depth),
            "--q-bound", str(self.q_bound),
            "--q-den-bound", str(self.q_den_bound),
        ]

    def q_box_size(self) -> int:
        """Distinct values n/m, |n| <= bound, 1 <= m <= den bound: count reduced pairs."""
        return sum(
            1
            for m in range(1, self.q_den_bound + 1)
            for n in range(-self.q_bound, self.q_bound + 1)
            if math.gcd(n, m) == 1
        )

    def cardinality(self) -> int:
        return math.prod(p**self.depth for p in self.primes) * 2**self.s * self.q_box_size() ** self.r

    def cosets(self) -> int:
        """Cosets of the order-2 block: one per (Pruefer part, free part)."""
        return self.cardinality() // 2**self.s


MAIN_WINDOW = Window((3, 5), 2, 2, 2, 2, 2, buckets=9675, candidate_pairs=87750)
DEMO_WINDOW = Window((3, 5), 2, 1, 1, 1, 1, buckets=45, candidate_pairs=270)


def _window_problems(report: dict, window: Window, violations: int) -> list:
    problems = []
    tri, coset = report["triple_report"], report["coset_report"]
    n = window.cardinality()
    _expect(problems, "size", tri["size"], n)
    _expect(problems, "distinct", tri["distinct"], n)
    _expect(problems, "pairs", tri["pairs"], n * (n - 1) // 2)
    _expect(problems, "n_buckets", tri["n_buckets"], window.buckets)
    _expect(problems, "candidate_pairs", tri["candidate_pairs"], window.candidate_pairs)
    _expect(problems, "n_violations", tri["n_violations"], violations)
    _expect(problems, "violation records", len(tri["violations"]), violations)
    # every coset holds exactly one halvable element: the one with t = 0
    _expect(problems, "n_cosets", coset["n_cosets"], window.cosets())
    _expect(problems, "n_halvable", coset["n_halvable"], window.cosets())
    _expect(problems, "coset ok", coset["ok"], True)
    _expect(problems, "coset offenders", coset["offenders"], [])
    return problems


def main_sweep_check(window: Window) -> Check:
    def check(path: Path) -> list:
        return _window_problems(_load(path), window, 0)

    return check


_ELAPSED = re.compile(rb'"elapsed_s": [-+0-9.eE]+')


class DropHalvableCheck:
    """Full check of a report; a report byte-identical to one that passed it
    (timing fields aside) passes too.

    The full check re-parses every violation with ``AmbientElement.parse`` and
    re-evaluates ``colour_drop_halvable`` on 2a, 2b and a+b.  With the halvable
    layer dropped, a+b matches 2a exactly when a and b share their Pruefer and
    free parts, so every coset of the order-2 block contributes all of its
    C(2^s, 2) pairs: that count is the reference.  Digests of fully checked
    reports are kept in ``verified`` so that later runs in the same checkout
    skip the re-check of identical output.
    """

    def __init__(self, window: Window, fourfree_src: Path, verified: Path):
        self.window = window
        self.src = fourfree_src
        self.verified = verified

    def expected_violations(self) -> int:
        return self.window.cosets() * math.comb(2**self.window.s, 2)

    def _known(self) -> set:
        try:
            return set(self.verified.read_text(encoding="utf-8").split())
        except OSError:
            return set()

    def __call__(self, path: Path) -> list:
        raw = path.read_bytes()
        digest = hashlib.sha256(_ELAPSED.sub(b"", raw)).hexdigest()
        if digest in self._known():
            return []
        report = json.loads(raw)
        problems = _window_problems(report, self.window, self.expected_violations())
        problems += self._recheck_violations(report["triple_report"]["violations"])
        if not problems:
            with open(self.verified, "a", encoding="utf-8") as fh:
                fh.write(digest + "\n")
        return problems

    def _recheck_violations(self, records: list) -> list:
        if str(self.src) not in sys.path:
            sys.path.insert(0, str(self.src))
        from fourfree.ambient import AmbientElement, ElementParseError
        from fourfree.cli import parse_signature_text
        from fourfree.colouring import colour_drop_halvable

        sig = parse_signature_text(self.window.signature)
        parsed: dict = {}  # text -> (element, colour of its double)

        def lookup(text):
            if text not in parsed:
                a = AmbientElement.parse(sig, text)
                parsed[text] = (a, colour_drop_halvable(a.double()))
            return parsed[text]

        keys = [(r["a"], r["b"], r["colour"]) for r in records]
        problems = []
        if keys != sorted(keys):
            problems.append("violations are not in canonical order")
        for a_text, b_text, colour_text in keys:
            try:
                (a, ca), (b, cb) = lookup(a_text), lookup(b_text)
            except ElementParseError as exc:
                problems.append(f"unparseable violation {a_text} / {b_text}: {exc}")
                continue
            if a == b or ca != cb or ca != colour_drop_halvable(a + b):
                problems.append(f"not monochromatic: {a_text} / {b_text}")
            elif repr(ca) != colour_text:
                problems.append(f"colour text differs for {a_text} / {b_text}")
            if len(problems) > 20:
                problems.append("... (stopped after 20 problems)")
                break
        return problems


def sweep_workload(name: str, out: Path, window: Window, src: Path, drop_layer: Optional[str] = None) -> Workload:
    args = window.args()
    if drop_layer:
        args += ["--drop-layer", drop_layer]
        check: Check = DropHalvableCheck(window, src, out.parent / "verified-reports.txt")
        expect_exit = 1
    else:
        check = main_sweep_check(window)
        expect_exit = 0
    call = Call(name, args, out / f"{name}.json", expect_exit, check)
    return Workload(name, [call], window=window, drop_layer=drop_layer)


# -- structure: seeded presentations L*D*R with known invariants --------------

ODD_PRIMES = (3, 5, 7, 11, 13)
BIG_PRIME_BITS = (36, 40, 44)


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the bases that are exact below 3.4e14."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def big_prime(rng: random.Random, bits: int) -> int:
    """A prime of the given bit length in a narrow band near 1.5 * 2^(bits-1),
    so that trial division costs nearly the same on every seed."""
    n = 3 * 2 ** (bits - 2) + rng.randrange(2 ** (bits - 12)) | 1
    while not _is_probable_prime(n):
        n += 2
    return n


@dataclass
class GeneratedPresentation:
    n: int
    entries: list  # per diagonal entry, its prime factors with multiplicity; None = 0
    matrix: list = field(default_factory=list)

    @property
    def free_rank(self) -> int:
        return sum(1 for e in self.entries if e is None)

    def primary_factors(self) -> list:
        out = []
        for primes in self.entries:
            if primes is not None:
                out.extend(Counter(primes).items())
        return sorted([p, e] for p, e in out)

    def order_four(self) -> bool:
        return any(p == 2 and e >= 2 for p, e in self.primary_factors())

    def invariant_factors(self) -> list:
        """Ascending, one per nonzero diagonal entry (leading 1s included)."""
        m = self.n - self.free_rank
        by_prime: dict = {}
        for p, e in self.primary_factors():
            by_prime.setdefault(p, []).append(e)
        factors = [1] * m
        for p, exps in by_prime.items():
            for k, e in enumerate(sorted(exps, reverse=True)):
                factors[m - 1 - k] *= p**e
        return factors

    def text(self) -> str:
        rows = "\n".join(" ".join(map(str, row)) for row in self.matrix)
        return f"generators: {self.n}\nrelations:\n{rows}\n"


def _diagonal_entry(rng: random.Random, two_power: int) -> list:
    primes = [rng.choice(ODD_PRIMES) for _ in range(rng.randrange(3))]
    return primes + [2] * two_power


def generate_presentation(rng: random.Random, n: int, order_four: bool) -> GeneratedPresentation:
    """D: n - f entries from primes <= 13 (f = free rank 0..2); at most 2^1 per
    entry, except that an order-4 presentation has exactly one 2^2 entry."""
    free = rng.randrange(3)
    entries = [_diagonal_entry(rng, 1 if rng.random() < 0.3 else 0) for _ in range(n - free)]
    if order_four:
        entries[0] = _diagonal_entry(rng, 2)
    entries += [None] * free
    rng.shuffle(entries)
    return GeneratedPresentation(n, entries)


def mix(rng: random.Random, pres: GeneratedPresentation) -> None:
    """Matrix L * D * R: n row and n column operations with multipliers +-1."""
    n = pres.n
    m = [[0] * n for _ in range(n)]
    for i, primes in enumerate(pres.entries):
        m[i][i] = 0 if primes is None else math.prod(primes)
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1))
        for row in m:
            row[i] += c * row[j]
    pres.matrix = m


def structure_batch(seed: int, sizes=range(6, 17), big_bits=BIG_PRIME_BITS) -> list:
    """One 4-free and one order-4 presentation per size.

    The 4-free presentations with n <= 8 get one large prime factor each, in
    seeded order.  Keeping the large entries out of the bigger matrices keeps
    factorization work the same on every seed: in a 14x14 matrix a 44-bit
    entry made one seed's SNF calls 100 times slower than another's.
    """
    rng = random.Random(seed)
    batch = [generate_presentation(rng, n, o4) for n in sizes for o4 in (False, True)]
    carriers = [p for p in batch if not p.order_four() and p.n <= 8]
    for pres, bits in zip(carriers, rng.sample(big_bits, len(big_bits))):
        k = next(i for i, e in enumerate(pres.entries) if e is not None)
        pres.entries[k] = pres.entries[k] + [big_prime(rng, bits)]
    for pres in batch:
        mix(rng, pres)
    return batch


def analysis_check(pres: GeneratedPresentation) -> Check:
    def check(path: Path) -> list:
        problems = []
        a = _load(path)["analysis"]
        pf = pres.primary_factors()
        _expect(problems, "n_generators", a["n_generators"], pres.n)
        _expect(problems, "invariant_factors", a["invariant_factors"], pres.invariant_factors())
        _expect(problems, "free_rank", a["free_rank"], pres.free_rank)
        _expect(problems, "primary_factors", a["primary_factors"], pf)
        _expect(problems, "torsion_order", a["torsion_order"], math.prod(p**e for p, e in pf))
        _expect(problems, "has_order_four", a["has_order_four"], pres.order_four())
        _expect(problems, "verdict", a["verdict"], "order-4 present" if pres.order_four() else "4-free")
        return problems

    return check


def embedding_check(pres: GeneratedPresentation) -> Check:
    analysis = analysis_check(pres)

    def check(path: Path) -> list:
        problems = analysis(path)
        emb = _load(path)["embedding"]
        pf = pres.primary_factors()
        want_sig = {
            "prufer_factors": [p for p, _ in pf if p != 2],
            "s": sum(1 for p, e in pf if (p, e) == (2, 1)),
            "r": pres.free_rank,
            "free_mode": "rational",
        }
        _expect(problems, "signature", emb["signature"], want_sig)
        _expect(problems, "generator images", len(emb["generator_images"]), len(pf) + pres.free_rank)
        return problems

    return check


def structure_workload(out: Path, seed: int, sizes=range(6, 17), big_bits=BIG_PRIME_BITS) -> Workload:
    inputs = out / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    calls = []
    for k, pres in enumerate(structure_batch(seed, sizes, big_bits)):
        path = inputs / f"p{k:02d}-n{pres.n}.txt"
        path.write_text(pres.text(), encoding="utf-8")
        o4 = pres.order_four()
        calls.append(Call(f"analyze p{k:02d}", ["analyze", "--input", str(path)],
                          out / f"analyze-{k:02d}.json", 2 if o4 else 0, analysis_check(pres)))
        if not o4:
            calls.append(Call(f"embed p{k:02d}", ["embed", "--input", str(path)],
                              out / f"embed-{k:02d}.json", 0, embedding_check(pres)))
    return Workload("structure", calls)


# -- search: backtracking on fixed groups ------------------------------------


def _elements(orders: tuple) -> list:
    out = [()]
    for n in orders:
        out = [e + (x,) for e in out for x in range(n)]
    return out


def brute_force_mono_pair(orders: tuple, table: dict) -> Optional[tuple]:
    """Any x != y with col(2x) = col(2y) = col(x+y), scanning all pairs."""
    def add(x, y):
        return tuple((a + b) % n for a, b, n in zip(x, y, orders))

    elems = _elements(orders)
    for x in elems:
        for y in elems:
            if x != y and table[add(x, x)] == table[add(y, y)] == table[add(x, y)]:
                return (x, y)
    return None


@dataclass(frozen=True)
class SearchCase:
    orders: tuple
    colours: Optional[int]  # None: --min-colours
    budget: Optional[int]
    verdict: str
    min_colours: Optional[int]
    nodes: int

    def args(self) -> list:
        args = ["search", "--group", ",".join(map(str, self.orders))]
        args += ["--min-colours"] if self.colours is None else ["--colours", str(self.colours)]
        if self.budget is not None:
            args += ["--budget", str(self.budget)]
        return args

    @property
    def exit_code(self) -> int:
        return 3 if self.verdict == "unknown" else 0

    def check(self, path: Path) -> list:
        problems = []
        res = _load(path)["result"]
        _expect(problems, "verdict", res["verdict"], self.verdict)
        _expect(problems, "nodes", res["nodes"], self.nodes)
        if self.colours is None:
            _expect(problems, "min_colours", res["min_colours"], self.min_colours)
        witness = res["witness"]
        if self.verdict in ("ok", "not_forced"):
            if witness is None:
                problems.append("missing witness")
                return problems
            table = {tuple(json.loads(k)): c for k, c in witness.items()}
            _expect(problems, "witness domain", sorted(table), _elements(self.orders))
            limit = self.min_colours if self.colours is None else self.colours
            if any(not 0 <= c < limit for c in table.values()):
                problems.append(f"witness uses a colour outside 0..{limit - 1}")
            elif (pair := brute_force_mono_pair(self.orders, table)) is not None:
                problems.append(f"witness has monochromatic pair {pair}")
        else:
            _expect(problems, "witness", witness, None)
        return problems


SEARCH_CASES = (
    SearchCase((4, 4), None, None, "ok", 4, 12316),
    SearchCase((16,), None, None, "ok", 3, 1754),
    SearchCase((27,), None, None, "ok", 4, 182607),
    SearchCase((3, 9), None, 3_000_000, "ok", 4, 2_837_904),
    SearchCase((32,), 3, 2_000_000, "unknown", None, 2_000_000),
    SearchCase((4, 4, 2), 3, 2_000_000, "unknown", None, 2_000_000),
)


def search_workload(out: Path, cases=SEARCH_CASES) -> Workload:
    calls = [
        Call(" ".join(case.args()), case.args(), out / f"search-{k}.json", case.exit_code, case.check)
        for k, case in enumerate(cases)
    ]
    return Workload("search", calls)


# -- registry ------------------------------------------------------------------

def build(name: str, out: Path, seed: int, src: Path) -> Workload:
    """The named workload with its inputs written under ``out``."""
    if name == "main-sweep":
        return sweep_workload(name, out, MAIN_WINDOW, src)
    if name == "drop-halvable":
        return sweep_workload(name, out, MAIN_WINDOW, src, drop_layer="halvable")
    if name == "structure":
        return structure_workload(out, seed)
    if name == "search":
        return search_workload(out)
    raise ValueError(f"unknown workload {name!r}")
