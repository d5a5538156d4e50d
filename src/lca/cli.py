"""Command-line front end; every operation is a reproducible subcommand.

Default output is markdown-ish plain text; ``--json`` switches to a stable
JSON form (schema_version 1).  Exit status: 0 success, 1 audit failure,
2 usage error.  ``lca`` ends like any Unix filter when its reader closes
stdout early: SIGPIPE kills it silently, and a shell sees status 141.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from functools import cache

from .embed import chain_names, named_chain
from .fixdim import (
    ADJOINT_DIMENSION,
    ClassFusion,
    fixed_point_dimension,
    group_classes,
    group_type,
    solve_traces,
)
from .repth import adjoint_character, factor_dimensions, restrict, semisimplify
from .rootsys import SimpleType, build_root_system
from .spin2 import SignVector, classical_centralizer, identify_2group, so_centralizer_type
from .tabver import AUDITED_TABLES, TABLE_ALIASES, load_elements, load_tables, run_full_audit
from .torsion import adjoint_trace

SCHEMA_VERSION = 1


def _emit_json(payload) -> int:
    payload = {"schema_version": SCHEMA_VERSION, **payload}
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def _cmd_roots(args) -> int:
    rs = build_root_system(SimpleType.parse(args.type))
    info = {
        "type": rs.label(),
        "rank": rs.rank,
        "num_roots": len(rs.all_roots),
        "adjoint_dimension": rs.type.adjoint_dimension,
        "marks": list(rs.marks),
        "max_mark": max(rs.marks),
    }
    if args.json:
        return _emit_json(info)
    print(f"{info['type']}: rank {info['rank']}, {info['num_roots']} roots,"
          f" adjoint dimension {info['adjoint_dimension']}")
    print(f"highest-root marks: {info['marks']} (max {info['max_mark']})")
    return 0


def _group_name(text: str) -> str:
    """A table group (E8, AutE6, ...) keeps its name; any other simple type is
    named canonically, so e8 and ' E8' are E8, printed and cached once."""
    return text if text in ADJOINT_DIMENSION else str(group_type(text))


def _cmd_torsion_enum(args) -> int:
    group = _group_name(args.type)
    classes = group_classes(group)
    annotations = {
        label: cls.annotation for (g, label), cls in load_elements().items() if g == group
    }
    if args.json:
        payload = [
            {**c.to_json(), "component_annotation": annotations.get(c.name, "")}
            for c in classes
        ]
        return _emit_json({"group": group, "classes": payload})
    print("| class | order | labels | centralizer | trace |")
    print("|---|---|---|---|---|")
    for c in classes:
        labels = ",".join(map(str, c.kac.labels))
        cent = f"{c.centralizer}{annotations.get(c.name, '')}"
        print(f"| {c.name} | {c.order} | ({labels}) | {cent} | {c.trace} |")
    return 0


def _cmd_trace(args) -> int:
    group = _group_name(args.type)
    kac = next((c.kac for c in group_classes(group) if c.name == args.cls), None)
    if kac is None:
        raise KeyError(f"no class {args.cls!r} in {group}")
    value = adjoint_trace(kac, args.power)
    if args.json:
        return _emit_json(
            {"group": group, "class": args.cls, "power": args.power, "trace": str(value)}
        )
    print(value)
    return 0


def _cmd_branch(args) -> int:
    if args.chain is None:
        names = chain_names(args.group)
        if args.json:
            return _emit_json({"group": args.group, "chains": names})
        print("\n".join(names))
        return 0
    emb = named_chain(args.group, args.chain)
    adj = adjoint_character(build_root_system(SimpleType.parse(args.group)))
    restricted = restrict(adj, emb)
    factors = factor_dimensions(emb.source, semisimplify(restricted))
    trivial = any(all(x == 0 for x in mu) for mu, _, _ in factors)
    if args.json:
        return _emit_json(
            {
                "group": args.group,
                "chain": args.chain,
                "source": emb.source.label(),
                "dimension": restricted.dimension,
                "factors": [
                    {"weight": list(mu), "multiplicity": m, "dimension": d}
                    for mu, m, d in factors
                ],
                "has_trivial_factor": trivial,
            }
        )
    print(f"adjoint module of {args.group} restricted to {emb.source.label()}"
          f" (chain {args.chain}, dimension {restricted.dimension})")
    print("| weight | multiplicity | dimension |")
    print("|---|---|---|")
    for mu, m, d in factors:
        print(f"| {list(mu)} | {m} | {d} |")
    print(f"trivial composition factor: {'yes' if trivial else 'no'}")
    return 0


def _cmd_fixdim(args) -> int:
    fusion = ClassFusion.parse(args.fusion)
    traces = solve_traces(args.group)
    value = fixed_point_dimension(ADJOINT_DIMENSION[args.group], fusion, traces, args.group)
    if args.json:
        return _emit_json(
            {
                "group": args.group,
                "fusion": str(fusion),
                "group_order": fusion.group_order,
                "fixed_dimension": str(value),
                "integral": value.denominator == 1,
            }
        )
    print(value)
    return 0


def _cmd_classify_2group(args) -> int:
    vectors = [SignVector.parse(v, args.n) for v in args.vectors]
    group = identify_2group(vectors)
    cent = so_centralizer_type(vectors, args.n)
    payload = {
        "vectors": [str(v) for v in vectors],
        "group": str(group),
        "order": group.order,
        "centralizer": str(cent.label),
        "torus_blocks": cent.torus_blocks,
        "dropped_dimensions": cent.dropped,
    }
    if args.json:
        return _emit_json(payload)
    torus = f", {cent.torus_blocks} torus block(s)" if cent.torus_blocks else ""
    print(f"{group}, centralizer {cent.label}{torus}")
    return 0


def _cmd_classical_centralizer(args) -> int:
    label = classical_centralizer(args.blocks, args.ambient)
    if args.json:
        return _emit_json(
            {"ambient": args.ambient, "blocks": args.blocks, "centralizer": str(label)}
        )
    print(label)
    return 0


def _cmd_solve_traces(args) -> int:
    rows = [
        {"class": label, "trace": str(value), "provenance": prov}
        for (_, label), (value, prov) in sorted(solve_traces(args.group).entries.items())
    ]
    if args.json:
        return _emit_json({"group": args.group, "traces": rows})
    print("| class | trace | provenance |")
    print("|---|---|---|")
    for r in rows:
        print(f"| {r['class']} | {r['trace']} | {r['provenance']} |")
    return 0


def _cmd_verify(args) -> int:
    tables = None
    if args.table:
        name = TABLE_ALIASES.get(args.table, args.table)
        if name not in AUDITED_TABLES:
            raise KeyError(f"unknown table {args.table!r}")
        tables = (name,)
    report = run_full_audit(load_tables(), tables)
    if args.json:
        print(report.to_json(), end="")
    else:
        print(report.to_markdown(), end="")
    return 0 if report.ok else 1


def positive_int(text: str) -> int:
    """A size on the command line; argparse names the argument in any error."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI grammar, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="lca",
        description="exact Lie-theoretic calculator and table auditor for finite"
        " subgroups with irreducible centralizers",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.set_defaults(func=func)
        return p

    p = add("roots", _cmd_roots, help="root system summary")
    p.add_argument("type")

    p = add("torsion-enum", _cmd_torsion_enum, help="elements with irreducible centralizer")
    p.add_argument("type")

    p = add("trace", _cmd_trace, help="adjoint trace of a torsion class")
    p.add_argument("type")
    p.add_argument("cls", metavar="class")
    p.add_argument("--power", type=int, default=1)

    p = add("branch", _cmd_branch, help="restrict the adjoint module along a named chain")
    p.add_argument("group")
    p.add_argument("chain", nargs="?")

    p = add("fixdim", _cmd_fixdim, help="fixed-point dimension from class fusion")
    p.add_argument("--group", required=True, choices=sorted(ADJOINT_DIMENSION))
    p.add_argument("--fusion", required=True)

    p = add("classify-2group", _cmd_classify_2group, help="spin-lift 2-group type and centralizer")
    p.add_argument("--n", type=positive_int, required=True)
    p.add_argument("vectors", nargs="+")

    p = add("classical-centralizer", _cmd_classical_centralizer, help="Sp/SO block centralizer")
    p.add_argument("--ambient", required=True)
    p.add_argument("blocks", nargs="+", type=positive_int)

    p = add("solve-traces", _cmd_solve_traces, help="trace table with provenance")
    p.add_argument("group", choices=sorted(ADJOINT_DIMENSION))

    p = add("verify", _cmd_verify, help="audit table rows")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--table")
    group.add_argument("--all", action="store_true")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its key, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


def main() -> None:
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
