"""Self-test of the benchmark: tiny runs emit every declared metric, and each
oracle flags a deliberately wrong answer.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import oracle  # noqa: E402

AUDIT_KEY = oracle.query_key(gen.AUDIT_ARGV)


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def reference():
    return oracle.load_reference()


@pytest.mark.parametrize(
    "workload,trace", [("audit", 0), ("branch", 0), ("calc", 0), ("branch", 1), ("calc", 1)]
)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared("per_layer" if trace else "end_to_end")
    if trace:
        untouched = {"branch": "fixdim.base_trace_table.calls", "calc": "embed.named_chain.calls"}
        assert result["metrics"][untouched[workload]]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench(tmp_path, "branch", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def ask(argv):
    from lca.cli import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(list(argv)) == 0
    return out.getvalue()


def test_audit_oracle_flags_a_changed_status(reference):
    entries = [
        {"table": t, "row_id": r, "check": c, "status": s, "row": "", "detail": "reworded"}
        for t, r, c, s in reference[AUDIT_KEY]["entries"]
    ]
    assert oracle.check(gen.AUDIT_ARGV, json.dumps({"entries": entries}), reference) is None
    flagged = next(e for e in entries if e["status"] == "flagged")
    flagged["status"] = "pass"
    assert oracle.check(gen.AUDIT_ARGV, json.dumps({"entries": entries}), reference)
    assert oracle.check(gen.AUDIT_ARGV, json.dumps({"entries": entries[1:]}), reference)


def _drop_factor(p):
    p["factors"].pop()


def _grow_dimension(p):
    p["dimension"] += 1


def _flip_trivial(p):
    p["has_trivial_factor"] = not p["has_trivial_factor"]


@pytest.mark.parametrize("mutate", [_drop_factor, _grow_dimension, _flip_trivial])
def test_branch_oracle_flags_a_wrong_restriction(reference, mutate):
    argv = ["branch", "G2", "b1", "--json"]
    out = ask(argv)
    assert oracle.check(argv, out, reference) is None
    payload = json.loads(out)
    mutate(payload)
    assert oracle.check(argv, json.dumps(payload), reference)


def _bump(field):
    def mutate(p):
        p[field] = str(int(p[field]) + 1)
    return mutate


CALC_CASES = [
    (["fixdim", "--group", "G2", "--fusion", "2A", "--json"], ("A1*A1", False), _bump("fixed_dimension")),
    (["fixdim", "--group", "E6", "--fusion", "2A^3,3A^2", "--json"], ("A1*A1", True), _bump("fixed_dimension")),
    (["trace", "G2", "3A", "--power", "2", "--json"], None, _bump("trace")),
    (["torsion-enum", "G2", "--json"], None, lambda p: p["classes"].pop()),
    (["solve-traces", "G2", "--json"], None, lambda p: p["traces"][0].update(trace="7")),
    (["classify-2group", "--n", "9", "(1^3,-1^6)", "(-1^6,1^3)", "--json"], None,
     lambda p: p.update(group="Dih8")),
    (["classical-centralizer", "--ambient", "SO9", "5", "3", "--json"], None,
     lambda p: p.update(centralizer="B3")),
]


@pytest.mark.parametrize("argv,row,mutate", CALC_CASES, ids=[c[0][0] for c in CALC_CASES])
def test_calc_oracle_flags_a_wrong_answer(reference, argv, row, mutate):
    out = ask(argv)
    assert oracle.check(argv, out, reference, row) is None
    payload = json.loads(out)
    mutate(payload)
    assert oracle.check(argv, json.dumps(payload), reference, row)
