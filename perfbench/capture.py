"""Write reference.json: the meaning of every answer the workloads can ask for.

    PYTHONPATH=src python3 perfbench/capture.py

Run it only when an intended change alters answers, and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import gen
import oracle

ROOT = os.path.dirname(gen.HERE)


def ask(run, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run(list(argv))
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {rc}")
    return oracle.answer(argv, out.getvalue())


def main():
    from lca.cli import run
    from lca.embed import chain_names

    queries = [list(gen.AUDIT_ARGV)]
    queries += [
        ["branch", g, c, "--json"] for g in gen.SIMPLE_GROUPS for c in chain_names(g)
    ]
    for kind, items in gen.calc_candidates(os.path.join(ROOT, "src", "lca", "data")).items():
        queries += [item[0] if kind == "fixdim" else item for item in items]
    reference = {oracle.query_key(q): ask(run, q) for q in queries}
    with open(oracle.REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in reference.items()))
        fh.write("\n}\n")
    print(f"{len(reference)} reference answers", file=sys.stderr)


if __name__ == "__main__":
    main()
