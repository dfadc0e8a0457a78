"""Command line interface: ideal files in, tables and JSON reports out.

Exit codes: 0 success (and all checks passed for verify commands),
1 verification checks failed, 2 usage/parse errors (in an ideal file, any
character outside the token grammar, or a number int() will not read, is
a parse error at its column), 3 computation errors.
Results go to stdout, diagnostics to stderr.  JSON reports have a fixed
key order, integer-only values, no timestamps, and embed the tool
version plus the full input echo, so identical invocations are
byte-identical.
"""

import argparse
import json
import os
import re
import sys
from functools import lru_cache

from . import __version__
from .errors import (
    DegenerateInputError,
    HfStrataError,
    ParameterError,
    ParseError,
    StructureError,
    InhomogeneousError,
)
from .field import DEFAULT_PRIME, NotPrimeError, PrimeField
from .groebner import Ideal
from .invariants import hilbert_function, minimal_free_resolution, regularity
from .deform import ext1_space, tangent_space
from .oracle import betti_bruteforce, hf_values, syzygy_counts, tangent_bruteforce
from .ring import GREVLEX, LEX, MonomialOrder, RingContext
from .strata import cone_curve, truncate_ideal, verify_prop31

FIELD_ENV_VAR = "HFSTRATA_FIELD"


# ---------------------------------------------------------------------------
# ideal file format
# ---------------------------------------------------------------------------


# One token grammar for every line: a NUMBER is a run of decimal digits, a
# NAME a run of letters, digits and `_` that starts with a letter or `_`,
# then the four operators.  Any other character is refused, and so is a
# `\w` run that starts with neither a letter, `_` nor a decimal digit
# (a superscript `²`, a `½`).
_TOKEN = re.compile(r"\s*(?:(?P<NUMBER>\d+)|(?P<NAME>\w+)|(?P<OP>[-+*^])|(?P<BAD>\S))")
_SIGN = {"+": 1, "-": -1}


def _is_name(word):
    return word[0].isalpha() or word[0] == "_"


def _number(digits, line_no, col):
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        limit = sys.get_int_max_str_digits()
        raise ParseError(line_no, col, f"number too long: {len(digits)} digits (the limit is {limit})") from None


def _found(kind, value):
    return value if kind is None else repr(value)


def _tokens(line, line_no):
    """(kind, value, column) of each token, then the end of the line;
    kind is NUMBER (value an int), NAME, or the operator itself."""
    tokens = []
    for m in _TOKEN.finditer(line):
        kind = m.lastgroup
        value, col = m[kind], m.start(kind) + 1
        if kind == "NUMBER":
            value = _number(value, line_no, col)
        elif kind == "OP":
            kind = value
        elif not _is_name(value):  # BAD, or a `\w` run such as `²x`
            raise ParseError(line_no, col, f"unexpected character {value[0]!r}")
        tokens.append((kind, value, col))
    tokens.append((None, "end of line", len(line) + 1))
    return tokens


def _parse_expression(ring, line, line_no):
    """Parse `terms joined by +/-, factors by *, powers by ^`: one factor
    per round, then the token that joins it to the next."""
    tokens = _tokens(line, line_no)
    var_index = {name: i for i, name in enumerate(ring.names)}
    pos = 1 if tokens[0][0] in _SIGN else 0
    coeff, exps, terms = _SIGN.get(tokens[0][0], 1), [0] * ring.n, []
    while True:
        kind, value, col = tokens[pos]
        if kind == "NUMBER":
            coeff *= value
        elif kind != "NAME":
            raise ParseError(line_no, col, f"expected a coefficient or variable, found {_found(kind, value)}")
        elif value not in var_index:
            raise ParseError(line_no, col, f"undeclared variable {value!r}")
        else:
            exp = 1
            if tokens[pos + 1][0] == "^":
                pos += 2
                kind, exp, col = tokens[pos]
                if kind != "NUMBER":
                    raise ParseError(line_no, col, f"expected NUMBER, found {_found(kind, exp)}")
            exps[var_index[value]] += exp
        kind, value, col = tokens[pos + 1]
        pos += 2
        if kind == "*":
            continue
        terms.append((tuple(exps), coeff))
        if kind is None:
            return ring.from_terms(terms)
        if kind not in _SIGN:
            raise ParseError(line_no, col, f"expected '+' or '-', found {value!r}")
        coeff, exps = _SIGN[kind], [0] * ring.n


def parse_ideal_file(text):
    """Parse the ideal file grammar into (RingContext, Ideal)."""
    default_field = DEFAULT_PRIME
    env = os.environ.get(FIELD_ENV_VAR)
    if env:
        try:
            default_field = int(env)
        except ValueError:
            raise ParseError(1, 1, f"{FIELD_ENV_VAR}={env!r} is not an integer") from None
    field_p = None
    names = None
    order_kind = None
    gen_sources = []
    in_ideal = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        hash_pos = raw.find("#")
        line = raw if hash_pos < 0 else raw[:hash_pos]
        stripped = line.strip()
        if not stripped:
            continue
        indent = len(line) - len(line.lstrip())
        if in_ideal:
            gen_sources.append((line_no, indent, line.rstrip()))
            continue
        parts = stripped.split()
        head = parts[0]
        if head == "field":
            if field_p is not None:
                raise ParseError(line_no, indent + 1, "duplicate field declaration")
            number = _TOKEN.match(line, indent + len(head))
            if len(parts) != 2 or number["NUMBER"] != parts[1]:
                raise ParseError(line_no, indent + 1, "usage: field <prime>")
            field_p = _number(parts[1], line_no, number.start("NUMBER") + 1)
        elif head == "vars":
            if names is not None:
                raise ParseError(line_no, indent + 1, "duplicate vars declaration")
            if len(parts) < 2:
                raise ParseError(line_no, indent + 1, "usage: vars <name> [<name> ...]")
            names = parts[1:]
            for name in names:  # a name the tokenizer splits or refuses could never be used
                if not (_is_name(name) and _TOKEN.fullmatch(name)):
                    raise ParseError(line_no, indent + 1, f"variable name {name!r} is not one name token")
            if len(set(names)) != len(names):
                raise ParseError(line_no, indent + 1, "variable names must be distinct")
        elif head == "order":
            if order_kind is not None:
                raise ParseError(line_no, indent + 1, "duplicate order declaration")
            if len(parts) != 2 or parts[1] not in (GREVLEX, LEX):
                raise ParseError(line_no, indent + 1, "usage: order grevlex|lex")
            order_kind = parts[1]
        elif stripped == "ideal:":
            if names is None:
                raise ParseError(line_no, indent + 1, "vars must be declared before ideal:")
            in_ideal = True
        else:
            raise ParseError(line_no, indent + 1, f"unknown directive {head!r}")
    if names is None:
        raise ParseError(1, 1, "missing vars declaration")
    if not in_ideal:
        raise ParseError(1, 1, "missing 'ideal:' section")
    p = field_p if field_p is not None else default_field
    try:
        field = PrimeField(p)
    except NotPrimeError as exc:
        raise ParseError(1, 1, f"field {exc}") from None
    ring = RingContext(names, field, MonomialOrder(order_kind or GREVLEX))
    gens = []
    for idx, (line_no, indent, src) in enumerate(gen_sources):
        f = _parse_expression(ring, src, line_no)
        if f.is_zero():
            raise ParseError(line_no, indent + 1, f"generator {idx} is zero")
        try:
            f.homogeneous_degree()
        except InhomogeneousError as exc:
            a, b = exc.degrees
            raise ParseError(
                line_no, indent + 1, f"generator {idx} is inhomogeneous: degrees {a} vs {b}"
            ) from None
        gens.append(f)
    return ring, Ideal(ring, gens)


def format_ideal_file(ideal: Ideal) -> str:
    """Canonical ideal file text; reparses to a generator-identical ideal."""
    ring = ideal.ring
    lines = [
        f"field {ring.field.p}",
        "vars " + " ".join(ring.names),
        f"order {ring.order.kind}",
        "ideal:",
    ]
    lines.extend(str(f) for f in ideal.generators)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:  # read in one piece, so exc.object is the whole file
            data, at = exc.object, exc.start
            head = data[:at].decode("utf-8")
            line, col = head.count("\n") + 1, len(head) - head.rfind("\n")
            raise ParseError(line, col, f"byte {data[at]:#04x} is not valid UTF-8") from None
    ring, ideal = parse_ideal_file(text)
    return text, ring, ideal


def _emit_report(args, text, report, echo, **extra):
    """Print a verify command's JSON payload (input echo with the `echo`
    arguments, report, then `extra`), also to --json; exit 0 iff all_ok."""
    payload = {
        "version": __version__,
        "command": args.command,
        "input": {"file": args.file, "text": text, "args": dict(sorted(echo.items()))},
        "report": report.to_json(),
        **extra,
    }
    blob = json.dumps(payload, indent=2) + "\n"
    sys.stdout.write(blob)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(blob)
    return 0 if report.all_ok() else 1


def cmd_gb(args):
    _, _, ideal = _load(args.file)
    for g in ideal.groebner_basis():
        print(g)
    return 0


def _degrees_up_to(up_to):
    if up_to < 0:
        raise ParameterError(f"--up-to must be >= 0, got {up_to}")
    return range(up_to + 1)


def cmd_hilb(args):
    _, _, ideal = _load(args.file)
    print(" ".join(str(hilbert_function(ideal, d)) for d in _degrees_up_to(args.up_to)))
    return 0


def cmd_res(args):
    _, _, ideal = _load(args.file)
    res = minimal_free_resolution(ideal, ideal.ring.n + 2)
    print(res)
    print(res.betti_table().render())
    return 0


def cmd_reg(args):
    _, _, ideal = _load(args.file)
    print(regularity(ideal))
    return 0


def cmd_truncate(args):
    _, _, ideal = _load(args.file)
    truncated = truncate_ideal(ideal, args.m, override=args.force)
    text = format_ideal_file(truncated)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def cmd_tangent(args):
    _, _, ideal = _load(args.file)
    print(tangent_space(ideal).dimension)
    return 0


def cmd_ext1(args):
    _, _, ideal = _load(args.file)
    print(ext1_space(ideal).dimension)
    return 0


def cmd_verify_prop31(args):
    text, _, ideal = _load(args.file)
    report = verify_prop31(ideal, args.m, degree_bound=args.bound, override=args.force)
    return _emit_report(args, text, report, {"m": args.m, "bound": args.bound, "force": args.force})


def cmd_cone_curve(args):
    text, _, ideal = _load(args.file)
    curve, report = cone_curve(ideal, args.m, args.seed, max_trials=args.trials)
    echo = {"m": args.m, "seed": args.seed, "trials": args.trials}
    added = [str(f) for f in curve.generators[len(ideal.generators) :]]
    return _emit_report(args, text, report, echo, added_forms=added)


def cmd_oracle(args):
    _, _, ideal = _load(args.file)
    if args.mode == "hilb":
        print(" ".join(map(str, hf_values(ideal, _degrees_up_to(args.up_to)))))
    elif args.mode == "syz":
        for e, count in syzygy_counts(ideal, args.bound).items():
            print(f"{e} {count}")
    elif args.mode == "tangent":
        print(tangent_bruteforce(ideal, args.bound))
    elif args.mode == "betti":
        table = betti_bruteforce(ideal, args.max_step, args.bound)
        print(table.render())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hfstrata",
        description="Exact commutative algebra for truncation and cone-curve constructions over F_p.",
    )
    parser.add_argument("--version", action="version", version=f"hfstrata {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gb", help="reduced Groebner basis")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_gb)

    sp = sub.add_parser("hilb", help="Hilbert function of S/I")
    sp.add_argument("file")
    sp.add_argument("--up-to", dest="up_to", type=int, required=True)
    sp.set_defaults(func=cmd_hilb)

    sp = sub.add_parser("res", help="minimal free resolution and Betti table")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_res)

    sp = sub.add_parser("reg", help="Castelnuovo-Mumford regularity of the ideal")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_reg)

    sp = sub.add_parser("truncate", help="write the truncation I + m^m as an ideal file")
    sp.add_argument("file")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--force", action="store_true", help="allow m below reg(I)+2")
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_truncate)

    sp = sub.add_parser("tangent", help="dim Hom_S(I, S/I)_0")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_tangent)

    sp = sub.add_parser("ext1", help="dim Ext^1_S(I, S/I)_0")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_ext1)

    sp = sub.add_parser("verify-prop31", help="verify the truncation claims for one m")
    sp.add_argument("file")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--bound", type=int, default=None)
    sp.add_argument("--force", action="store_true", help="allow m below reg(I)+2")
    sp.add_argument("--json", default=None, help="also write the JSON report here")
    sp.set_defaults(func=cmd_verify_prop31)

    sp = sub.add_parser("cone-curve", help="construct I + (g1, g2) with certified forms")
    sp.add_argument("file")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--trials", type=int, default=5)
    sp.add_argument("--json", default=None, help="also write the JSON report here")
    sp.set_defaults(func=cmd_cone_curve)

    sp = sub.add_parser("oracle", help="brute-force checks by dense linear algebra")
    sp.add_argument("mode", choices=["hilb", "syz", "tangent", "betti"])
    sp.add_argument("file")
    sp.add_argument("--up-to", dest="up_to", type=int, default=8)
    sp.add_argument("--bound", type=int, default=8)
    sp.add_argument("--max-step", dest="max_step", type=int, default=6)
    sp.set_defaults(func=cmd_oracle)

    return parser


@lru_cache(maxsize=1)
def _parser():
    """The parser, built on the first `run` and reused by later ones."""
    return build_parser()


def run(argv) -> int:
    """Dispatch one invocation; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (ParseError, ParameterError, NotPrimeError, StructureError, DegenerateInputError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HfStrataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # internal failure: report, don't traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
