"""Spans around the calls into each lca layer, recorded from outside the program.

``install`` replaces each boundary function below with a wrapper, in its own
module and in every lca module that imported it by ``from .x import y``.
The wrapper appends (name, start, end, parent) to an in-memory list; the
child process writes the list out when it exits, and ``summarize`` turns it
into per-name call counts and self times (a span's duration minus the
spans nested directly inside it).

Only the boundaries listed are wrapped.  A boundary's self time therefore
includes the private helpers and the ``linalg`` arithmetic it calls, which is
where, for example, the Fraction work of ``root_norm`` happens.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module -> attribute names; "Class.method" patches a method on the class.
BOUNDARIES = {
    "rootsys": ("build_root_system", "RootSystem.root_norm", "classify_subdiagram"),
    "torsion": ("enumerate_irreducible_elements", "adjoint_trace"),
    "fixdim": ("base_trace_table", "solve_traces"),
    "tabver": (
        "load_tables",
        "assemble_traces",
        "audit_dimension_identity",
        "audit_structure",
        "audit_irreducibility_certificates",
    ),
    "embed": ("named_chain",),
    "repth": ("dominant_character", "semisimplify", "restrict", "weyl_dimension"),
    "spin2": ("identify_2group", "so_centralizer_type"),
    "cli": ("run",),
}


def span_name(module: str, attr: str) -> str:
    """'rootsys', 'RootSystem.root_norm' -> 'rootsys.root_norm'."""
    return f"{module}.{attr.rpartition('.')[2]}"


def _argument_key(ambient, lam):
    return ambient.label(), tuple(lam)


# span name -> function of the call's arguments whose distinct values are counted
DISTINCT = {"repth.dominant_character": _argument_key}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.distinct: dict = {name: set() for name in DISTINCT}
        self._stack = [-1]

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        seen = self.distinct.get(name)
        key = DISTINCT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            if key is not None:
                seen.add(key(*args, **kwargs))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def install(self):
        """Wrap every boundary; lca.cli must already be imported."""
        modules = [m for n, m in sys.modules.items() if n == "lca" or n.startswith("lca.")]
        for modname, attrs in BOUNDARIES.items():
            module = sys.modules[f"lca.{modname}"]
            for attr in attrs:
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, fn_name)
                wrapped = self.wrap(span_name(modname, attr), original)
                setattr(owner, fn_name, wrapped)
                if owner_name:
                    continue
                for other in modules:
                    for name, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, name, wrapped)

    def dump(self, path: str, **extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "distinct": {n: len(s) for n, s in self.distinct.items()},
                    **extra,
                },
                fh,
            )


def summarize(spans) -> dict:
    """name -> [calls, self seconds] for one list of spans."""
    child_time = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for (name, start, end, _parent), inner in zip(spans, child_time):
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += end - start - inner
    return out
