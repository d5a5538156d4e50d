"""Command-line front end; every operation is a reproducible subcommand.

Default output is markdown-ish plain text; ``--json`` switches to a stable
JSON form (schema_version 1).  Exit status: 0 success, 1 audit failure,
2 usage error.  ``lca`` ends like any Unix filter when its reader closes
stdout early: SIGPIPE kills it silently, and a shell sees status 141.

Each lca module loads on first use: ``import lca.cli`` only registers it in
``sys.modules``, so ``branch`` runs just rootsys, linalg, repth and embed.
A query in plain form (the verb first, exact options each given once, one run
of positional words, every type and choice met) is read straight from the verb
table by ``_plain_args``, without argparse; it is the calculator's and the
benchmark's every query.  Any other argv, help and every usage error included,
goes to the full argparse grammar, imported and built only then, so argparse
writes all help, usage and error text.
"""

from __future__ import annotations

import importlib.util
import signal
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace


def _lazy(name: str):
    """The module lca.<name>, executed on its first attribute access."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[fullname]


embed, fixdim, repth, rootsys, spin2, tabver, torsion = map(
    _lazy, "embed fixdim repth rootsys spin2 tabver torsion".split())

SCHEMA_VERSION = 1


def _json_text(value, newline: str = "\n") -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2)`` writes it, for str, int,
    bool, None, list and str-keyed dict; anything else, a float too, is a TypeError.  Unlike
    the indenting encoder, a call builds no closures, so it leaves no garbage cycle."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, list):
        brackets, items = "[]", [_json_text(v, inner) for v in value]
    elif isinstance(value, dict):
        # encode_basestring_ascii raises the TypeError for a key that is not a str
        brackets, items = "{}", [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}"
                                 for k, v in sorted(value.items())]
    else:
        raise TypeError(f"cannot emit {type(value).__name__} as JSON")
    if not items:
        return brackets
    return brackets[0] + inner + f",{inner}".join(items) + newline + brackets[1]


def _emit_json(payload) -> int:
    print(_json_text({"schema_version": SCHEMA_VERSION, **payload}))
    return 0


def _cmd_roots(args) -> int:
    rs = rootsys.root_system(args.type)
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


@cache
def _table_groups() -> dict:
    """Each table group by its lower-case name, built once per process."""
    return {g.lower(): g for g in rootsys.ADJOINT_DIMENSION}


def _table_group(text: str) -> str:
    """A table group named in any case and with surrounding spaces: e8, ' E8'
    and aute6 are E8 and AutE6, printed and cached once.  Other text is returned as is."""
    return _table_groups().get(text.strip().lower(), text)


def _group_name(text: str) -> str:
    """A table group (E8, AutE6, ...) or any other simple type, named canonically."""
    group = _table_group(text)
    return group if group in rootsys.ADJOINT_DIMENSION else str(rootsys.SimpleType.parse(text))


def _cmd_torsion_enum(args) -> int:
    group = _group_name(args.type)
    classes = fixdim.classes_of(group)
    annotations = tabver.element_annotations(tabver.data_dir())
    if args.json:
        payload = [
            {**c.to_json(), "component_annotation": annotations.get((group, c.name), "")}
            for c in classes
        ]
        return _emit_json({"group": group, "classes": payload})
    print("| class | order | labels | centralizer | trace |")
    print("|---|---|---|---|---|")
    for c in classes:
        labels = ",".join(map(str, c.kac.labels))
        cent = f"{c.centralizer}{annotations.get((group, c.name), '')}"
        print(f"| {c.name} | {c.order} | ({labels}) | {cent} | {c.trace} |")
    return 0


def _cmd_trace(args) -> int:
    group = _group_name(args.type)
    kac = next((c.kac for c in fixdim.classes_of(group) if c.name == args.cls), None)
    if kac is None:
        raise KeyError(f"no class {args.cls!r} in {group}")
    value = torsion.adjoint_trace(kac, args.power)
    if args.json:
        return _emit_json(
            {"group": group, "class": args.cls, "power": args.power, "trace": str(value)}
        )
    print(value)
    return 0


def _cmd_branch(args) -> int:
    if args.chain is None:
        names = embed.chain_names(args.group)
        if args.json:
            return _emit_json({"group": args.group, "chains": names})
        print("\n".join(names))
        return 0
    emb = embed.named_chain(args.group, args.chain)
    adj = repth.adjoint_character(rootsys.root_system(args.group))
    restricted = repth.restrict(adj, emb)
    factors = repth.factor_dimensions(emb.source, repth.semisimplify(restricted))
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
    fusion = fixdim.ClassFusion.parse(args.fusion)
    classes = fixdim.solve_traces(args.group)
    dim = rootsys.ADJOINT_DIMENSION[args.group]
    value = fixdim.fixed_point_dimension(dim, fusion, classes, args.group)
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
    vectors = [spin2.SignVector.parse(v, args.n) for v in args.vectors]
    group = spin2.identify_2group(vectors)
    cent = spin2.so_centralizer_type(vectors, args.n)
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
    label = spin2.classical_centralizer(args.blocks, args.ambient)
    if args.json:
        return _emit_json(
            {"ambient": args.ambient, "blocks": args.blocks, "centralizer": str(label)}
        )
    print(label)
    return 0


def _cmd_solve_traces(args) -> int:
    rows = [
        {"class": label, "trace": str(cls.trace), "provenance": fixdim.provenance(cls)}
        for label, cls in sorted(fixdim.solve_traces(args.group).items())
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
        name = tabver.TABLE_ALIASES.get(args.table, args.table)
        if name not in tabver.AUDITED_TABLES:
            raise KeyError(f"unknown table {args.table!r}")
        tables = (name,)
    report = tabver.run_full_audit(tabver.load_tables(), tables)
    if args.json:
        _emit_json({"ok": report.ok, "entries": [e._asdict() for e in report.entries]})
    else:
        print(report.to_markdown(), end="")
    return 0 if report.ok else 1


def positive_int(text: str) -> int:
    """A size on the command line; argparse names the argument in any error."""
    value = int(text)
    if value < 1:
        import argparse

        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


@cache
def _verbs() -> dict:
    """verb -> (help, handler, {flag: add_argument options}[, exclusive]): each
    verb's grammar, declared once for the full parser and the plain-form matcher."""
    group = {"type": _table_group, "choices": sorted(rootsys.ADJOINT_DIMENSION)}
    return {
        "roots": ("root system summary", _cmd_roots, {"type": {}}),
        "torsion-enum": ("elements with irreducible centralizer", _cmd_torsion_enum, {"type": {}}),
        "trace": ("adjoint trace of a torsion class", _cmd_trace, {
            "type": {}, "cls": {"metavar": "class"}, "--power": {"type": int, "default": 1}}),
        "branch": ("restrict the adjoint module along a named chain", _cmd_branch, {
            "group": {"type": _table_group}, "chain": {"nargs": "?"}}),
        "fixdim": ("fixed-point dimension from class fusion", _cmd_fixdim, {
            "--group": {"required": True, **group}, "--fusion": {"required": True}}),
        "classify-2group": ("spin-lift 2-group type and centralizer", _cmd_classify_2group, {
            "--n": {"type": positive_int, "required": True}, "vectors": {"nargs": "+"}}),
        "classical-centralizer": ("Sp/SO block centralizer", _cmd_classical_centralizer, {
            "--ambient": {"required": True}, "blocks": {"nargs": "+", "type": positive_int}}),
        "solve-traces": ("trace table with provenance", _cmd_solve_traces, {"group": group}),
        "verify": ("audit table rows", _cmd_verify, {
            "--table": {}, "--all": {"action": "store_true"}}, True),
    }


_JSON_FLAG = {"action": "store_true", "help": "emit JSON"}  # every verb takes it


def _declare(parser, handler, arguments, exclusive=False) -> argparse.ArgumentParser:
    """``parser`` given one verb's arguments; ``exclusive`` options exclude each other."""
    parser.add_argument("--json", **_JSON_FLAG)
    parser.set_defaults(func=handler)
    target = parser.add_mutually_exclusive_group() if exclusive else parser
    for flag, options in arguments.items():
        target.add_argument(flag, **options)
    return parser


@cache
def build_parser() -> argparse.ArgumentParser:
    """The full CLI grammar, built once per process; parsing leaves it unchanged."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="lca",
        description="exact Lie-theoretic calculator and table auditor for finite"
        " subgroups with irreducible centralizers",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (text, *grammar) in _verbs().items():
        _declare(sub.add_parser(verb, help=text), *grammar)
    return parser


def _value(options: dict, text: str):
    """``text`` converted by its argument's type; a value outside its choices is a ValueError."""
    value = options.get("type", str)(text)
    if value not in options.get("choices", (value,)):
        raise ValueError(f"invalid choice: {value!r}")
    return value


def _plain_args(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, for argv in plain form;
    None for any other argv.  Plain form is a verb first, then options spelled exactly
    and given once, each valued one followed by a value not starting with '-', and the
    positional words in one run that fits the verb's nargs, with every type and choice
    met.  Help, '--opt=value', abbreviations, '--' and every error are argparse's."""
    try:
        _, handler, arguments, *exclusive = _verbs()[argv[0]]
    except (IndexError, KeyError):  # no argv, or no verb first: -h, an unknown verb
        return None
    given, words, tokens = {}, [], iter(argv[1:])
    run_open = True  # False once an option follows a word: a further word starts a second run
    for token in tokens:
        if not token.startswith("-"):
            if not run_open:
                return None
            words.append(token)
            continue
        run_open = not words
        options = _JSON_FLAG if token == "--json" else arguments.get(token)
        if options is None or token in given:
            return None
        value = True if options.get("action") == "store_true" else next(tokens, "-")
        if value is not True and value.startswith("-"):
            return None
        given[token] = value
    args = {"verb": argv[0], "func": handler, "json": given.pop("--json", False)}
    spare = len(words) - sum(o.get("nargs") != "?" for f, o in arguments.items() if f[0] != "-")
    if spare < 0 or (any(exclusive) and len(given) > 1):
        return None
    try:
        for name, options in arguments.items():
            if name[0] == "-":
                store_true = options.get("action") == "store_true"
                if name in given:
                    value = True if store_true else _value(options, given[name])
                elif options.get("required"):
                    return None
                else:
                    value = options.get("default", False if store_true else None)
                args[name.lstrip("-").replace("-", "_")] = value
                continue
            # each positional takes one word ('?' none); then, leftmost first, a '?' takes
            # one spare word and a '+' all of them
            nargs = options.get("nargs")
            extra = spare if nargs == "+" else min(1, spare) if nargs == "?" else 0
            spare -= extra
            values = [_value(options, word) for word in words[:extra + (nargs != "?")]]
            del words[:len(values)]
            args[name] = values if nargs == "+" else values[0] if values else options.get("default")
    except Exception:  # argparse, parsing argv next, reports the failed type or choice, or raises
        return None
    return SimpleNamespace(**args) if not words else None


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:  # argparse alone writes help, usage and errors
        try:
            args = build_parser().parse_args(argv)
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
