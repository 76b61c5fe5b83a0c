"""Run one fourfree CLI call in-process, with spans around its calls into each layer.

    python3 bench/traced.py --spans FILE --iteration K --call J -- <fourfree arguments>

``fourfree.cli.main`` runs unchanged.  In this process only, the public
functions it calls are replaced by wrappers that record a span each: name,
start, end, parent span, iteration and call id, plus counts read off the
return value.  The one non-public hook is ``cli._emit``, the report writer.
Spans stay in memory and are written to FILE once, after ``main`` returns;
the exit code is the CLI's.

    python3 bench/traced.py --replay --spans FILE -- verify <window arguments>

replays the sweep's own per-element and per-pair calls (construction,
doubling, addition, canonical text, colouring) on the window's elements and
candidate pairs, and records the mean nanoseconds per call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPLAY_ELEMENTS = 11_025
REPLAY_PAIRS = 20_000


class Tracer:
    def __init__(self, iteration, call):
        self.iteration = iteration
        self.call = call
        self.spans: list[dict] = []
        self._open: list[dict] = []

    def span(self, name, fn, counts=None):
        """``fn`` wrapped so that each call records a span named ``name``."""

        def traced(*args, **kwargs):
            record = {
                "id": len(self.spans),
                "name": name,
                "parent": self._open[-1]["id"] if self._open else None,
                "iteration": self.iteration,
                "call": self.call,
            }
            self.spans.append(record)
            self._open.append(record)
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                record["counts"] = counts(result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner, attr, name, counts=None):
        setattr(owner, attr, self.span(name, getattr(owner, attr), counts))

    def record(self, name, start, end, counts):
        self.spans.append({
            "id": len(self.spans), "name": name, "parent": None, "iteration": self.iteration,
            "call": self.call, "start": start, "end": end, "counts": counts,
        })

    def write(self, path: Path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _sweep_counts(report, *args, **kwargs):
    return {
        "pairs": report.pairs,
        "buckets": report.n_buckets,
        "candidate_pairs": report.candidate_pairs,
        "violations": len(report.violations),
    }


def _snf_counts(result, *args, **kwargs):
    bits = max((abs(x).bit_length() for m in (result.U, result.V) for row in m for x in row), default=0)
    return {"n": len(result.V), "entry_bits": bits}


def _search_counts(result, *args, **kwargs):
    return {"nodes": result.nodes, "unknown": int(result.verdict == "unknown")}


def _emit_counts(result, report, output=None, *args, **kwargs):
    return {"bytes": os.path.getsize(output) if output else 0}


def instrument(tracer: Tracer) -> None:
    """Wrap every call the CLI makes into another layer.

    A module that calls a function through its own global (``presentation``
    calling ``smith_normal_form`` and ``factorize``, ``sumset`` calling
    ``all_colourings_forced``) gets the wrapper under that name too.
    """
    from fourfree import cli, presentation, sumset, verifier

    t = tracer
    t.patch(cli, "enumerate_sample", "verifier.enumerate", lambda r, *a, **k: {"elements": len(r)})
    t.patch(cli, "find_mono_triples", "verifier.sweep", _sweep_counts)
    t.patch(cli, "check_coset_uniqueness", "verifier.coset")
    t.patch(verifier.TripleReport, "describe", "verifier.describe")
    t.patch(verifier.CosetReport, "describe", "verifier.describe")
    t.patch(cli, "smith_normal_form", "presentation.snf", _snf_counts)
    t.patch(presentation, "smith_normal_form", "presentation.snf", _snf_counts)
    t.patch(cli, "canonical_decomposition", "presentation.decompose")
    t.patch(presentation, "factorize", "arith.factorize")
    t.patch(cli, "build_embedding", "embedding.build")
    t.patch(cli, "min_colours_avoiding", "sumset.min_colours")
    t.patch(cli, "all_colourings_forced", "sumset.search", _search_counts)
    t.patch(sumset, "all_colourings_forced", "sumset.search", _search_counts)
    t.patch(cli, "_emit", "cli.emit", _emit_counts)


def run_traced(argv: list, tracer: Tracer) -> int:
    from fourfree import cli

    instrument(tracer)
    return tracer.span(f"cli.{argv[0]}", cli.main)(argv)


def _ns_per_call(tracer: Tracer, name: str, fn, items: list) -> None:
    start = time.perf_counter()
    for item in items:
        fn(item)
    end = time.perf_counter()
    tracer.record(name, start, end, {"calls": len(items), "ns_per_call": (end - start) * 1e9 / len(items)})


def _every(items: list, limit: int) -> list:
    return items[:: max(1, len(items) // limit)][:limit]


def run_replay(argv: list, tracer: Tracer) -> int:
    """Per-call cost of the sweep's inner operations on this window."""
    from fourfree import cli
    from fourfree.ambient import AmbientElement
    from fourfree.colouring import DROPPED_LAYER_COLOURINGS, colour, colour_drop_halvable
    from fourfree.verifier import SampleSpec, enumerate_sample

    args = cli.build_parser().parse_args(argv)
    sig = cli.parse_signature_text(args.signature, args.free_mode)
    spec = SampleSpec(sig, prufer_depth=args.prufer_depth, q_numerator_bound=args.q_bound,
                      q_denominator_bound=args.q_den_bound)
    elements = enumerate_sample(spec, cap=args.cap)
    colour_fn = DROPPED_LAYER_COLOURINGS[args.drop_layer] if args.drop_layer else colour
    buckets: dict = {}
    for a in elements:
        buckets.setdefault(colour_fn(a.double()), []).append(a)
    pairs = [(a, b) for elems in buckets.values() for i, a in enumerate(elems) for b in elems[i + 1:]]

    sample = _every(elements, REPLAY_ELEMENTS)
    pair_sample = _every(pairs, REPLAY_PAIRS)
    doubles = [a.double() for a in sample]
    sums = [a + b for a, b in pair_sample]
    _ns_per_call(tracer, "ambient.element", lambda a: AmbientElement(a.signature, a.d, a.t, a.q), sample)
    _ns_per_call(tracer, "ambient.double", lambda a: a.double(), sample)
    _ns_per_call(tracer, "ambient.add", lambda ab: ab[0] + ab[1], pair_sample)
    _ns_per_call(tracer, "ambient.canonical_text", AmbientElement.canonical_text, sample)
    _ns_per_call(tracer, "colouring.colour", colour, doubles + sums)
    _ns_per_call(tracer, "colouring.drop_halvable", colour_drop_halvable, doubles + sums)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", required=True, type=Path)
    parser.add_argument("--iteration", default="0")
    parser.add_argument("--call", type=int, default=0)
    parser.add_argument("--replay", action="store_true")
    parser.add_argument("fourfree_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.fourfree_args[1:] if args.fourfree_args[:1] == ["--"] else args.fourfree_args
    tracer = Tracer(args.iteration, args.call)
    code = (run_replay if args.replay else run_traced)(argv, tracer)
    tracer.write(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
