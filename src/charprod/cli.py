"""Batch command-line front end.

Subcommands: ``table``, ``product``, ``verify``, ``witness``, ``catalog``.
Group sources are catalog ids or generator files; output is text or JSON.
Exit codes: 0 success, 1 verification failure, 2 usage, parse or memory errors.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from . import catalog, verify
from .charops import decompose
from .chartab import dixon_table
from .errors import CharprodError, ParseError
from .verify import STATEMENTS, monomial_witness_search


def _load_group(source):
    if os.path.exists(source):
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{source} is not UTF-8 text (byte {exc.start})") from None
        return os.path.basename(source), catalog.parse_group(text)
    return source, catalog.builtin(source)


JSON_BUFFER = 1 << 16


def _emit(args, out, payload, lines):
    """Write ``payload()`` as JSON or the ``lines()`` as text, as ``--format``
    asks; only the form written is built."""
    if args.format == "json":
        # the bytes of json.dumps(indent=2, sort_keys=True), written in
        # chunks of about JSON_BUFFER characters, never as one string
        chunks, size = [], 0
        for chunk in json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload()):
            chunks.append(chunk)
            size += len(chunk)
            if size >= JSON_BUFFER:
                out.write("".join(chunks))
                chunks, size = [], 0
        chunks.append("\n")
        out.write("".join(chunks))
    else:
        text = "\n".join(lines())
        out.write(text)
        if not text.endswith("\n"):
            out.write("\n")


def _cmd_table(args, out):
    _, group = _load_group(args.group)
    table = dixon_table(group)
    _emit(args, out, table.to_json, lambda: [table.to_text()])
    return 0


def _cmd_product(args, out):
    gid, group = _load_group(args.group)
    table = dixon_table(group)
    size = len(table.irreducibles)
    if not (0 <= args.chi < size and 0 <= args.psi < size):
        raise CharprodError(f"character indices must lie in [0, {size})")
    product = table.irreducibles[args.chi] * table.irreducibles[args.psi]
    dec = decompose(product, table)
    payload = {"group": gid, "chi": args.chi, "psi": args.psi}
    payload.update(dec.to_json(table))

    def lines():
        yield (f"chi_{args.chi} (degree {table.degrees[args.chi]}) * "
               f"chi_{args.psi} (degree {table.degrees[args.psi]})")
        for item in payload["constituents"]:
            yield f"  {item['multiplicity']} * chi_{item['irr_index']} (degree {item['degree']})"
        yield f"eta = {payload['eta']}"

    _emit(args, out, lambda: payload, lines)
    return 0


def _cmd_verify(args, out):
    statements = tuple(s.strip() for s in args.statements.split(",") if s.strip())
    if not statements:
        raise CharprodError("verify needs at least one statement")
    if bool(args.catalog) == bool(args.group):
        raise CharprodError("verify needs either a group source or --catalog")
    groups = catalog.builtin_ids() if args.catalog else [_load_group(args.group)]
    report = verify.run_suite(groups, statements)

    def lines():
        for group_report in report.reports:
            s = group_report.summary
            yield (
                f"{group_report.group_id}: pass {s['pass']}, fail {s['fail']}, "
                f"hypothesis-not-met {s['hypothesis_not_met']}, skipped {s['skipped']}"
            )
            for c in group_report.failures:
                yield (f"  FAIL {c['statement']} {json.dumps(c['instance'], sort_keys=True)} "
                       f"{json.dumps(c.get('witness'), sort_keys=True)}")
        total = report.summary
        yield (
            f"total: pass {total['pass']}, fail {total['fail']}, "
            f"hypothesis-not-met {total['hypothesis_not_met']}, skipped {total['skipped']}"
        )

    _emit(args, out, report.to_json, lines)
    return 0 if report.all_pass else 1


def _cmd_witness(args, out):
    gid, group = _load_group(args.group)
    table = dixon_table(group)
    witness = monomial_witness_search(group, args.chi, table=table)
    payload = {"group": gid}
    payload.update(witness.to_json())

    def lines():
        yield (f"chi_{args.chi} (degree {table.degrees[args.chi]}): "
               f"H of order {witness.subgroup_order} (index {witness.subgroup_index})")
        yield "H generators: " + " ".join(witness.subgroup_generators)
        yield "alpha values: " + " ".join(str(v) for v in witness.alpha_values)
        yield f"(alpha^2)^G = chi_{witness.square_induced_index}"
        for step in witness.chain:
            yield "  descent: " + json.dumps(step, sort_keys=True)

    _emit(args, out, lambda: payload, lines)
    return 0


def _cmd_catalog(args, out):
    specs = catalog.group_specs()
    _emit(args, out, lambda: [spec.to_json() for spec in specs], lambda: (
        f"{spec.id:28s} order {spec.expected_order:4d}  classes {spec.expected_classes:3d}  {spec.description}"
        for spec in specs
    ))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="charprod",
        description="Exact character theory engine for finite permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("group", help="catalog id or generator file path")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="write to this path instead of stdout")

    p_table = sub.add_parser("table", help="print the character table")
    add_common(p_table)

    p_product = sub.add_parser("product", help="decompose a product of irreducibles")
    add_common(p_product)
    p_product.add_argument("--chi", type=int, required=True, help="row index of chi")
    p_product.add_argument("--psi", type=int, required=True, help="row index of psi")

    p_verify = sub.add_parser("verify", help="run theorem suites")
    p_verify.add_argument("group", nargs="?", help="catalog id or generator file path")
    p_verify.add_argument("--catalog", action="store_true", help="run over every builtin")
    p_verify.add_argument("--statements", default=",".join(STATEMENTS),
                          help="comma list from: " + ",".join(STATEMENTS))
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--output", help="write to this path instead of stdout")

    p_witness = sub.add_parser("witness", help="monomial witness for one irreducible")
    add_common(p_witness)
    p_witness.add_argument("--chi", type=int, required=True, help="row index of chi")

    p_catalog = sub.add_parser("catalog", help="list builtin groups")
    p_catalog.add_argument("--format", choices=("text", "json"), default="text")
    p_catalog.add_argument("--output", help="write to this path instead of stdout")
    return parser


_COMMANDS = {
    "table": _cmd_table,
    "product": _cmd_product,
    "verify": _cmd_verify,
    "witness": _cmd_witness,
    "catalog": _cmd_catalog,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.output:
            # opened first, so a bad path fails at once, but emptied only when
            # the command returns, so a failed run leaves the file as it was;
            # links and devices are written through, as by open(path, "w")
            with open(args.output, "a") as out, tempfile.TemporaryFile("w+") as staged:
                code = _COMMANDS[args.command](args, staged)
                staged.seek(0)
                if out.seekable():
                    out.truncate(0)
                shutil.copyfileobj(staged, out)
            return code
        return _COMMANDS[args.command](args, sys.stdout)
    except (CharprodError, OSError, MemoryError) as exc:
        # a MemoryError from Python's own allocator carries no message
        print(f"charprod: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
