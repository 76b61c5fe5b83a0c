"""Command-line surface: analyze, embed, colour, verify, demo, search.

Every run echoes its full effective configuration into a JSON report, so
re-running with the same flags reproduces the report byte for byte apart
from the ``elapsed_s`` timing fields.  The library's results hold no timing:
this module alone reads the clock, around the sweep and the search, and
adds ``elapsed_s`` last to their report blocks.  Each ``cmd_*`` prints its
human-readable lines and returns ``(report, exit_code)``, the report None
when there is none to write; :func:`main` alone writes the report, whole or
not at all, and turns errors into exit codes.

Exit codes:
    0  success / zero violations
    1  monochromatic violations found
    2  hypothesis violated (the input group has an element of order 4)
    3  cap or budget exceeded (search verdict "unknown"), a presentation
       of more than MAX_PRESENTATION_SIZE generators plus relations, or a
       Pruefer factor or presentation with a prime factor whose primality
       cannot be certified
    4  I/O, parse or usage failure (a negative --budget or --cap, an unwritable
       report, verify --input with --signature, search without exactly one
       of --colours N and --min-colours)

Presentation file format (``analyze``, ``embed``, ``verify --input``)::

    # comments and blank lines are ignored
    generators: 3
    relations:
    2 0 0
    0 6 0

with each header line alone on its line and at most once.

Ambient signature text (``verify --signature``, ``colour --signature``)::

    prufer=3,5;s=2;r=1

with each field at most once.  Elements are written in the canonical text
form of the ambient module, e.g. ``d:{0=1/9,1=2/5};t:10;q:(0,3/2)``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import re
import stat
import sys
import time
from collections.abc import Sequence
from json.encoder import encode_basestring_ascii

from .arith import (
    DEFAULT_BUDGET,
    DEFAULT_GROUP_CAP,
    DEFAULT_SAMPLE_CAP,
    DROPPED_LAYERS,
    INTEGER,
    RATIONAL,
    PrimalityUnknown,
    size_text,
)

# The names this module calls in each layer.  They are bound as module globals
# by _load when a subcommand first runs, so each call loads only the layers it
# uses, and by __getattr__ when read from outside first (bench/traced.py wraps
# them); binding never replaces a name already bound, so such a wrapper stays.
_LAYER_NAMES = {
    "ambient": ("AmbientElement", "AmbientSignature", "ElementParseError"),
    "colouring": ("colour", "colour_encode"),
    "embedding": ("build_embedding",),
    "presentation": ("Presentation", "canonical_decomposition", "has_order_four", "smith_normal_form"),
    "sumset": ("FiniteGroupSpec", "GroupTooLarge", "all_colourings_forced", "min_colours_avoiding",
               "order4_obstruction_demo"),
    "verifier": ("SHIPPED_SAMPLES", "SampleCapExceeded", "SampleSpec", "check_coset_uniqueness",
                 "enumerate_sample", "find_mono_triples"),
}


def _load(*layers: str) -> None:
    for layer in layers:
        module = importlib.import_module(f".{layer}", __package__)
        for name in _LAYER_NAMES[layer]:
            globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    for layer, names in _LAYER_NAMES.items():
        if name in names:
            _load(layer)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_ORDER_FOUR = 2
EXIT_BUDGET = 3
EXIT_IO = 4

# Most generators plus relations a presentation may have, checked before SNF
# runs: SNF works on an (m + n)-square bordered matrix, so its memory grows
# with the square of the size (2,000 generators peak at 108 MB in ``analyze``).
MAX_PRESENTATION_SIZE = 1_000


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_IO):
        super().__init__(message)
        self.code = code


# -- input parsing ---------------------------------------------------------


def parse_presentation_text(text: str, source: str = "<input>") -> Presentation:
    """Parse the generators/relations file format with line diagnostics."""
    _load("presentation")
    n_generators = None
    relations = []
    in_relations = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("generators:"):
            if n_generators is not None:
                raise CliError(f"{source}:{lineno}: repeated 'generators:' line")
            try:
                n_generators = int(line.split(":", 1)[1])
            except ValueError:
                raise CliError(f"{source}:{lineno}: bad generator count {line!r}")
            continue
        if line.startswith("relations:"):
            if in_relations:
                raise CliError(f"{source}:{lineno}: repeated 'relations:' line")
            if line != "relations:":
                raise CliError(f"{source}:{lineno}: text after 'relations:' in {line!r}")
            in_relations = True
            continue
        if not in_relations:
            raise CliError(f"{source}:{lineno}: expected 'generators:' or 'relations:', got {line!r}")
        try:
            relations.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            raise CliError(f"{source}:{lineno}: bad relation row {line!r}")
    if n_generators is None:
        raise CliError(f"{source}: missing 'generators:' field")
    if n_generators + len(relations) > MAX_PRESENTATION_SIZE:
        raise CliError(
            f"{source}: {n_generators} generators and {len(relations)} relations exceed "
            f"the limit of {MAX_PRESENTATION_SIZE} together",
            EXIT_BUDGET,
        )
    try:
        return Presentation(n_generators, tuple(relations))
    except ValueError as exc:
        raise CliError(f"{source}: {exc}")


def _read_input(path: str) -> str:
    """The text of an input file; one that cannot be read, or is not UTF-8, exits 4."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}")


def load_presentation(path: str) -> Presentation:
    return parse_presentation_text(_read_input(path), source=path)


def parse_signature_text(text: str, free_mode: str = RATIONAL) -> AmbientSignature:
    """Parse ``prufer=3,5;s=2;r=1`` into a signature; each field at most once."""
    _load("ambient")
    prufer: tuple[int, ...] = ()
    s = 0
    r = 0
    seen = set()
    for field in text.split(";"):
        field = field.strip()
        if not field:
            continue
        key, eq, value = field.partition("=")
        key = key.strip()
        value = value.strip()
        if not eq:
            raise CliError(f"bad signature field {field!r} (need key=value)")
        if key in seen:
            raise CliError(f"repeated signature field {key!r}")
        seen.add(key)
        try:
            if key == "prufer":
                prufer = tuple(int(tok) for tok in value.split(",") if tok.strip())
            elif key == "s":
                s = int(value)
            elif key == "r":
                r = int(value)
            else:
                raise CliError(f"unknown signature field {key!r}")
        except ValueError:
            raise CliError(f"bad signature value in {field!r}")
    try:
        return AmbientSignature(prufer, s, r, free_mode)
    except PrimalityUnknown as exc:
        raise CliError(f"invalid signature: {exc}", EXIT_BUDGET)
    except ValueError as exc:
        raise CliError(f"invalid signature: {exc}")


# -- output ----------------------------------------------------------------


# json's C encoder runs only without ``indent``, so json.dumps(indent=2)
# passes every value up a chain of Python generators; _write_json makes the
# same bytes by plain recursion.  Reports are fresh describe() trees with str
# keys and no cycles, so keys are not coerced and cycles are not checked.
_BATCH = 4096  # lines per write


def _write_json(value, write) -> None:
    """Write ``json.dumps(value, indent=2) + "\\n"`` through ``write``, where
    every list or tuple is written as a JSON array, and a value with ``rows()``
    (a :class:`~fourfree.verifier.Violations` view) as the array of its
    ``{"a", "b", "colour"}`` records, made a row at a time: the records of a
    row differ only in b, so its text is one join over the b texts.

    The text is made of pieces (a separator, the indent and a key; a scalar;
    a closing bracket; a row).  A plain piece counts as one line, as it holds
    at most one line break, and a row as its five a record.  Before a piece
    that would take the text made past ``_BATCH`` lines, ``write`` gets that
    text joined, so no write holds more than ``_BATCH`` lines unless one row
    alone does; it gets the rest at the end.  An int past Python's int->str
    digit limit raises ValueError, as in json.
    """
    pieces = []
    lines = 0
    quote = encode_basestring_ascii

    def append(piece, n=1):
        nonlocal lines
        if lines + n > _BATCH and pieces:
            write("".join(pieces))
            pieces.clear()
            lines = 0
        pieces.append(piece)
        lines += n

    def put(value, indent):
        if isinstance(value, str):
            append(quote(value))
        elif isinstance(value, int) and not isinstance(value, bool):
            append(int.__repr__(value))
        elif isinstance(value, (dict, list, tuple)) or hasattr(value, "rows"):
            inner = indent + "  "
            comma = "," + inner
            if isinstance(value, dict):
                sep, close = "{" + inner, "}"
                for key, item in value.items():
                    append(sep + quote(key) + ": ")
                    sep = comma
                    put(item, inner)
            elif isinstance(value, (list, tuple)):
                sep, close = "[" + inner, "]"
                for item in value:
                    append(sep)
                    sep = comma
                    put(item, inner)
            else:
                sep, close, field = "[" + inner, "]", inner + "  "
                for a, colour_text, bs in value.rows():
                    left = f'{{{field}"a": {quote(a)},{field}"b": '
                    right = f',{field}"colour": {quote(colour_text)}{inner}}}'
                    append(sep + left + (right + comma + left).join(map(quote, bs)) + right, 5 * len(bs))
                    sep = comma
            append(indent + close if sep is comma else sep[0] + close)  # {} or [] when empty
        else:  # None, a bool or a float
            append(json.dumps(value))

    put(value, "\n")
    append("\n")
    write("".join(pieces))


def _emit(report: dict, output: str | None) -> None:
    """Write ``report`` as indent-2 JSON to ``output``, or to stdout when it is
    empty, whole or not at all, through :func:`_write_json`.

    A regular file (a symlink's target) gets the writer's batches, each at
    most ``_BATCH`` lines or one violation row, under a temporary name in its
    directory and is renamed into place with the old file's mode; the
    directory must be writable.  Stdout, or a device or pipe such as
    /dev/null, gets the batches one after another once all of them are made,
    with no copy of the whole document.  A report that cannot be serialised
    (an int past Python's int->str digit limit) is an I/O failure like an
    unwritable path.
    """
    try:
        target = os.path.realpath(output) if output else None  # a symlink is written through
        if target is None or (os.path.exists(target) and not os.path.isfile(target)):
            parts = []
            _write_json(report, parts.append)
            if target is None:
                sys.stdout.writelines(parts)
            else:
                with open(target, "w", encoding="utf-8") as fh:
                    fh.writelines(parts)
            return
        head, tail = os.path.split(target)
        tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                _write_json(report, fh.write)
            if os.path.isfile(target):
                os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
            os.replace(tmp, target)
        except BaseException:
            if os.path.isfile(tmp):
                os.unlink(tmp)
            raise
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot write {output or 'report'}: {exc}")


# -- subcommands -------------------------------------------------------------


def _timed(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the seconds it took, for a report's ``elapsed_s``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _config(args, **overrides) -> dict:
    """The parsed flags as the report's ``config`` block, without ``output``."""
    config = {k: v for k, v in vars(args).items() if k not in ("output", "func")}
    config.update(overrides)
    return config


def _analysis_dict(pres: Presentation) -> dict:
    snf = smith_normal_form(pres.relations, n_cols=pres.n_generators)
    dec = canonical_decomposition(pres)
    order_four = has_order_four(dec)
    return {
        "n_generators": pres.n_generators,
        "n_relations": len(pres.relations),
        "invariant_factors": list(snf.invariant_factors),
        **dec.describe(),
        "has_order_four": order_four,
        "verdict": "order-4 present" if order_four else "4-free",
    }


def cmd_analyze(args) -> tuple[dict, int]:
    analysis = _analysis_dict(load_presentation(args.input))
    report = {"config": _config(args), "analysis": analysis}
    return report, EXIT_ORDER_FOUR if analysis["has_order_four"] else EXIT_OK


def cmd_embed(args) -> tuple[dict, int]:
    pres = load_presentation(args.input)
    analysis = _analysis_dict(pres)
    report = {
        "config": _config(args),
        "analysis": analysis,
    }
    if analysis["has_order_four"]:
        report["error"] = "group contains an element of order 4; cannot embed"
        return report, EXIT_ORDER_FOUR
    _load("embedding")
    emap = build_embedding(canonical_decomposition(pres), args.free_mode)
    report["embedding"] = emap.describe()
    return report, EXIT_OK


def cmd_colour(args) -> tuple[dict | None, int]:
    _load("ambient", "colouring")
    sig = parse_signature_text(args.signature, args.free_mode)
    texts = list(args.elements)
    if args.input:
        texts.extend(line.strip() for line in _read_input(args.input).split("\n") if line.strip())
    if not texts:
        raise CliError("no elements given (positional arguments or --input file)")
    items = []
    for text in texts:
        try:
            elem = AmbientElement.parse(sig, text)
        except ElementParseError as exc:
            raise CliError(f"bad element {text!r}: {exc}")
        items.append({"element": elem.canonical_text(), "colour": colour_encode(colour(elem))})
    for item in items:
        print(f"{item['element']}\t{item['colour']}")
    if not args.output:
        return None, EXIT_OK
    config = {"subcommand": "colour", "signature": sig.describe(), "free_mode": args.free_mode}
    return {"config": config, "items": items}, EXIT_OK


def cmd_verify(args) -> tuple[dict, int]:
    # verifier, the largest module, is compiled first, while the heap is freshest:
    # where bytecode is not cached its compile sets the call's peak RSS
    _load("verifier", "ambient")
    config = _config(args)
    report: dict = {"config": config}

    if args.input:
        pres = load_presentation(args.input)
        analysis = _analysis_dict(pres)
        report["analysis"] = analysis
        if analysis["has_order_four"]:
            report["error"] = "hypothesis violated: group contains an element of order 4"
            return report, EXIT_ORDER_FOUR
        _load("embedding")
        sig = build_embedding(canonical_decomposition(pres), args.free_mode).signature
    elif args.signature is not None:
        sig = parse_signature_text(args.signature, args.free_mode)
    else:
        default = SHIPPED_SAMPLES["demo-default"].signature
        sig = AmbientSignature(default.prufer_factors, default.s, default.r, args.free_mode)
    config["resolved_signature"] = sig.describe()

    try:
        spec = SampleSpec(sig, prufer_depth=args.prufer_depth, q_numerator_bound=args.q_bound,
                          q_denominator_bound=args.q_den_bound)
    except ValueError as exc:
        raise CliError(f"bad sample window: {exc}")
    try:
        elements = enumerate_sample(spec, cap=args.cap)
    except SampleCapExceeded as exc:
        report["error"] = str(exc)
        return report, EXIT_BUDGET
    except ValueError as exc:
        raise CliError(str(exc))

    # Each --drop-layer name starts with the letter of the layer it drops.
    layers = frozenset("dyh") - set((args.drop_layer or "")[:1])
    triple, elapsed = _timed(find_mono_triples, elements, layers)
    coset = check_coset_uniqueness(elements)
    report["triple_report"] = {"sample": spec.describe(), **triple.describe(), "elapsed_s": elapsed}
    report["coset_report"] = coset.describe()
    print(
        f"tested {triple.part_pairs} pairs of parts within their groups, covering "
        f"{triple.candidate_pairs} candidate pairs (pairs sharing the colour of their doubles) "
        f"of {triple.pairs} nominal pairs over {triple.size} elements: "
        f"{len(triple.violations)} violations",
        file=sys.stderr,
    )
    return report, EXIT_OK if triple.ok else EXIT_VIOLATIONS


def cmd_demo(args) -> tuple[dict | None, int]:
    group = _parse_group(args.group)
    if group.size > DEFAULT_GROUP_CAP:
        raise CliError(f"group size {size_text(group.size)} exceeds cap {DEFAULT_GROUP_CAP}", EXIT_BUDGET)
    demo = order4_obstruction_demo(group.orders)
    for line in demo.transcript:
        print(line)
    if not args.output:
        return None, EXIT_OK
    return {"config": _config(args, group=list(group.orders)), "demo": demo.describe()}, EXIT_OK


def _parse_group(text: str) -> FiniteGroupSpec:
    _load("sumset")
    try:
        orders = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise CliError(f"bad group orders {text!r} (expected e.g. 4,4)")
    if not orders:
        raise CliError("empty group orders")
    try:
        return FiniteGroupSpec(orders)
    except ValueError as exc:
        raise CliError(f"bad group orders {text!r}: {exc}")


def cmd_search(args) -> tuple[dict, int]:
    group = _parse_group(args.group)
    try:
        if args.min_colours:
            res, elapsed = _timed(min_colours_avoiding, group, budget=args.budget, cap=args.cap)
        else:
            res, elapsed = _timed(all_colourings_forced, group, args.colours, args.budget, args.cap)
    except GroupTooLarge as exc:  # a cap, not a bad flag
        raise CliError(str(exc), EXIT_BUDGET)
    except ValueError as exc:
        raise CliError(str(exc))
    result = {**res.describe(), "elapsed_s": elapsed}
    report = {"config": _config(args, group=list(group.orders)), "result": result}
    if res.verdict == "unknown":
        print("verdict: unknown (budget exceeded)", file=sys.stderr)
        return report, EXIT_BUDGET
    if args.min_colours:
        print(f"min colours avoiding: {res.min_colours}", file=sys.stderr)
    else:
        print(f"verdict: {res.verdict}", file=sys.stderr)
    return report, EXIT_OK


# -- parser ------------------------------------------------------------------


def _cut(pattern: str, text: str) -> str:
    """``text`` with each run matching ``pattern`` over 40 characters cut to 36."""
    return re.sub(pattern, lambda m: m[0] if len(m[0]) <= 40 else f"{m[0][:32]}...{m[0][-1]}", text)


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ``CliError``, cutting argv words that they echo unquoted."""

    def error(self, message: str):
        raise CliError(_cut(r"\S+", message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fourfree",
        description="Colourings of abelian groups without order-4 elements: "
        "analysis, embedding, colouring, verification sweeps, demos, searches.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", help="invariant factors and order-4 verdict")
    p.add_argument("--input", required=True, help="presentation file")
    p.add_argument("--output", help="write JSON report here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("embed", help="ambient signature and generator images")
    p.add_argument("--input", required=True, help="presentation file")
    p.add_argument("--output", help="write JSON report here")
    p.add_argument("--free-mode", choices=[RATIONAL, INTEGER], default=RATIONAL)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("colour", help="colour elements given in canonical text form")
    p.add_argument("elements", nargs="*", help="elements in canonical text form")
    p.add_argument("--signature", default="prufer=3,5;s=2;r=1", help="ambient signature text")
    p.add_argument("--free-mode", choices=[RATIONAL, INTEGER], default=RATIONAL)
    p.add_argument("--input", help="file with one element per line")
    p.add_argument("--output", help="write JSON report here")
    p.set_defaults(func=cmd_colour)

    p = sub.add_parser("verify", help="pair sweep for monochromatic {2a,2b,a+b}")
    window = p.add_mutually_exclusive_group()
    window.add_argument("--input", help="presentation file (embedded before sweeping)")
    window.add_argument("--signature", help="ambient signature text (default: demo signature)")
    p.add_argument("--free-mode", choices=[RATIONAL, INTEGER], default=RATIONAL)
    p.add_argument("--prufer-depth", type=int, default=1)
    p.add_argument("--q-bound", type=int, default=1, help="free numerator bound")
    p.add_argument("--q-den-bound", type=int, default=1, help="free denominator bound")
    p.add_argument("--cap", type=int, default=DEFAULT_SAMPLE_CAP)
    p.add_argument("--drop-layer", choices=sorted(DROPPED_LAYERS), default=None,
                   help="diagnostic: drop one colour layer")
    p.add_argument("--output", help="write JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("demo", help="order-4 obstruction demo")
    p.add_argument("--group", default="4,4", help="cyclic orders, e.g. 4,4")
    p.add_argument("--output", help="write JSON report here")
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("search", help="forced-colouring search on a finite group")
    p.add_argument("--group", default="4", help="cyclic orders, e.g. 4 or 4,4")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--colours", type=int, default=None)
    mode.add_argument("--min-colours", action="store_true")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="colour assignments to try over the whole run")
    p.add_argument("--cap", type=int, default=DEFAULT_GROUP_CAP)
    p.add_argument("--output", help="write JSON report here")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:  # -h/--help; a usage error raises CliError instead
            return EXIT_OK
        report, code = args.func(args)
        if report is not None:
            _emit(report, args.output)
    except (CliError, PrimalityUnknown) as exc:
        # quoted, bracketed and numeric runs are cut, but not argparse's list of
        # choices; then the whole line, which many short argv words can still make long
        text = _cut(r"'[^']*'|\"[^\"]*\"|\((?!choose)[^()]*\)|[-/\d]+", str(exc))
        print("error:", text if len(text) <= 400 else f"{text[:396]}...", file=sys.stderr)
        return getattr(exc, "code", EXIT_BUDGET)
    return code


def main_entry() -> None:
    raise SystemExit(main())
