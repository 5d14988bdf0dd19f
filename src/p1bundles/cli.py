"""Command-line front end.

Subcommands cover the whole library: `split`, `h0`, `h1`, `deg`, `chi`,
`profile`, `op`, `twist`, `iso`, `selfdual`, `random`, `verify`.  Each
handler builds one ``result`` dict.  Under `--json` it is printed as one
deterministic JSON object (sorted keys, no timestamps); otherwise the text
report, stable `key: value` lines, is rendered from that same dict
(``_render``).  It is rendered in both modes before anything is printed or
written, so a number over the printing limit is refused in either.

Exit codes come from the error types: a library error exits with the
code and prints the label that its class in ``errors`` carries, and the
module docstring of ``errors`` is the table of them.  141 (the code a
shell reports for a process killed by SIGPIPE) means the reader of stdout
closed it before the report was written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .bundle import VectorBundle, random_bundle
from .errors import P1BundlesError, ParseError, RefusedArgument
from .text import (
    _decimal,
    format_bundle,
    format_factorization,
    parse_bundle,
    parse_factorization,
)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}")


def _emit(args, command: str, inputs, result: dict, text: str = "") -> int:
    """Print ``result`` as JSON under --json, else as the lines of
    :func:`_render` and then ``text`` (the bundle or certificate made),
    unless the result names the ``path`` it went to; ``text`` is written to
    ``-o`` if one is given.  The lines are rendered first in both modes, so
    a number over the printing limit raises SystemTooLarge before any
    output or file."""
    lines = _render(result)
    if getattr(args, "output", None):
        _write(args.output, text)
    if args.json:
        report = {"command": command, "inputs": list(inputs), "result": result}
        print(json.dumps(report, sort_keys=True))
    else:
        print(lines + ("" if "path" in result else text), end="")
    return 0


def _render(result: dict) -> str:
    """The text report of a result, one ``key: value`` line per field in
    its order: a bool as true/false, a list of ints as (d1, ..., dk), every
    int through ``_decimal``, ``path`` as ``wrote``, a ``profile`` as one
    ``h0(E(m)): h`` line per twist (and nothing else), and the ``bundle``
    text left to :func:`_emit`."""
    if "profile" in result:
        fields = [(f"h0(E({_decimal(m)}))", h) for m, h in result["profile"]]
    else:
        fields = [
            ("wrote" if key == "path" else key, value)
            for key, value in result.items()
            if key != "bundle"
        ]
    return "".join(f"{key}: {_value(value)}\n" for key, value in fields)


def _value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return _decimal(v)
    if isinstance(v, list):
        return "(" + ", ".join(map(_decimal, v)) + ")"
    return v


# -- subcommand handlers ------------------------------------------------------
#
# A handler imports what it runs from cech or splitter only once its input
# is read, so a process loads no module its subcommand does not run, and a
# file the parser refuses loads neither.


def _cmd_split(args):
    e = parse_bundle(_read(args.file))
    from .splitter import grothendieck_split
    # grothendieck_split returns only a verified certificate; it raises
    # InternalCheckError (exit 3) otherwise.
    stype, fact = grothendieck_split(e)
    result = {"rank": e.rank, "type": list(stype), "deg": e.degree, "verified": True}
    return _emit(args, "split", [args.file], result, format_factorization(fact))


def _cmd_count(args):
    e = parse_bundle(_read(args.file))
    from . import cech
    count = {"h0": cech.h0_dim, "h1": cech.h1_dim_oracle, "chi": cech.euler_char}
    key = args.command
    return _emit(args, key, [args.file], {key: count[key](e)})


def _cmd_deg(args):
    e = parse_bundle(_read(args.file))
    return _emit(args, "deg", [args.file], {"deg": e.degree, "rank": e.rank})


def _cmd_profile(args):
    e = parse_bundle(_read(args.file))
    from .cech import h0_profile
    profile = [[m, h] for m, h in h0_profile(e, args.m_from, args.m_to)]
    result = {"from": args.m_from, "to": args.m_to, "profile": profile}
    return _emit(args, "profile", [args.file], result)


def _cmd_op(args):
    a = parse_bundle(_read(args.a))
    if args.kind in ("dsum", "tensor"):
        if args.b is None:
            raise RefusedArgument(f"op {args.kind} needs two bundle files")
        b = parse_bundle(_read(args.b))
        out = a.dsum(b) if args.kind == "dsum" else a.tensor(b)
        inputs = [args.a, args.b]
    else:
        if args.b is not None:
            raise RefusedArgument(f"op {args.kind} takes one bundle file")
        out = a.dual() if args.kind == "dual" else a.det_bundle()
        inputs = [args.a]
    return _emit_bundle(args, "op", inputs, out)


def _cmd_twist(args):
    e = parse_bundle(_read(args.file))
    return _emit_bundle(args, "twist", [args.file], e.twist(args.m))


def _emit_bundle(args, command, inputs, out: VectorBundle):
    text = format_bundle(out)
    result = {"rank": out.rank, "deg": out.degree}
    if args.output:
        result["path"] = args.output
    else:
        result["bundle"] = text
    return _emit(args, command, inputs, result, text)


def _cmd_iso(args):
    a = parse_bundle(_read(args.a))
    b = parse_bundle(_read(args.b))
    from .splitter import splitting_type
    ta = splitting_type(a)
    tb = splitting_type(b)
    # The type is a complete invariant, and unequal ranks give unequal types.
    result = {"iso": ta == tb, "type_a": list(ta), "type_b": list(tb)}
    return _emit(args, "iso", [args.a, args.b], result)


def _cmd_selfdual(args):
    e = parse_bundle(_read(args.file))
    from .splitter import splitting_type
    stype = list(splitting_type(e))
    result = {"self_dual": stype == [-d for d in reversed(stype)], "type": stype}
    return _emit(args, "selfdual", [args.file], result)


def _cmd_random(args):
    try:
        degrees = [int(part) for part in args.type.split(",") if part.strip() != ""]
    except ValueError:
        raise RefusedArgument(f"bad --type list: {args.type!r}")
    if not degrees:
        raise RefusedArgument("--type needs at least one degree")
    e = random_bundle(degrees, args.gauge_degree, args.seed, moves=args.moves)
    from .splitter import SplittingType
    stype = list(SplittingType(degrees))
    result = {"path": args.output, "rank": e.rank, "type": stype, "seed": args.seed}
    return _emit(args, "random", [], result, format_bundle(e))


def _cmd_verify(args):
    e = parse_bundle(_read(args.file))
    fact = parse_factorization(_read(args.factfile))
    from .splitter import verify_factorization
    ok = verify_factorization(e, fact)
    return _emit(args, "verify", [args.file, args.factfile], {"verified": ok})


# -- parser -------------------------------------------------------------------


# The subcommands, in --help order.
COMMANDS = (
    "split", "h0", "h1", "deg", "chi", "profile", "op", "twist", "iso", "selfdual",
    "random", "verify",
)


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone: building one
    subparser is most of the cost of a call.  Its help and usage text are
    the full tree's, as the one subparser is listed under every name."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable report")

    parser = argparse.ArgumentParser(
        prog="p1bundles",
        description="Splitting types and cohomology of vector bundles on the "
        "Riemann sphere, with exact certificates.",
    )
    names = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=names)

    def add(name, text):
        if command in (None, name):
            return sub.add_parser(name, parents=[common], help=text)

    if p := add("split", "splitting type + certificate"):
        p.add_argument("file")
        p.add_argument(
            "-o", "--output", default=None, help="write the certificate here"
        )
        p.set_defaults(func=_cmd_split)

    # The one-file reports in --help order; h0, h1 and chi share one handler.
    for name, func, text in (
        ("h0", _cmd_count, "dim H0"),
        ("h1", _cmd_count, "dim H1 by Serre duality"),
        ("deg", _cmd_deg, "bundle degree"),
        ("chi", _cmd_count, "Euler characteristic h0 - h1"),
    ):
        if p := add(name, text):
            p.add_argument("file")
            p.set_defaults(func=func)

    if p := add("profile", "h0 of twists over a range"):
        p.add_argument("file")
        p.add_argument("--from", dest="m_from", type=int, required=True)
        p.add_argument("--to", dest="m_to", type=int, required=True)
        p.set_defaults(func=_cmd_profile)

    if p := add("op", "bundle operations"):
        p.add_argument("kind", choices=("dual", "det", "dsum", "tensor"))
        p.add_argument("a")
        p.add_argument("b", nargs="?", default=None)
        p.add_argument("-o", "--output", default=None)
        p.set_defaults(func=_cmd_op)

    if p := add("twist", "tensor by O(m)"):
        p.add_argument("file")
        p.add_argument("m", type=int)
        p.add_argument("-o", "--output", default=None)
        p.set_defaults(func=_cmd_twist)

    if p := add("iso", "isomorphism test"):
        p.add_argument("a")
        p.add_argument("b")
        p.set_defaults(func=_cmd_iso)

    if p := add("selfdual", "isomorphic to its dual?"):
        p.add_argument("file")
        p.set_defaults(func=_cmd_selfdual)

    if p := add("random", "seeded gauge scramble"):
        p.add_argument(
            "--type", required=True, help="comma-separated degrees, e.g. 2,-1"
        )
        p.add_argument("--gauge-degree", type=int, default=2)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--moves", type=int, default=None)
        p.add_argument("-o", "--output", required=True)
        p.set_defaults(func=_cmd_random)

    if p := add("verify", "check a certificate file"):
        p.add_argument("file")
        p.add_argument("factfile")
        p.set_defaults(func=_cmd_verify)

    return parser


# A degree list for ``random --type``, which may start with a minus sign.
_DEGREES = re.compile(r"-?\d+(,-?\d+)*")


def _bind_type(argv):
    """Join ``--type`` with a following degree list, so that argparse does
    not read a list such as ``-2,1`` as an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--type" and _DEGREES.fullmatch(arg):
            out[-1] = f"--type={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _bind_type(sys.argv[1:] if argv is None else argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        code = args.func(args)
        # Flushed here, so that a closed pipe is caught below rather than in
        # the interpreter's final flush, outside any handler.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone: send what is still buffered to the null device,
        # so the final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except P1BundlesError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
