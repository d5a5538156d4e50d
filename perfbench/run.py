"""The lca benchmark: one closed-loop client, one lca process at a time.

    python3 perfbench/run.py --workload audit|branch|calc|all --seed N --seconds S --trace 0|1

Workloads (the reasons are in BENCHMARK.json and README.md):
  audit   a fresh process per operation running ``verify --all --json``
  branch  a fresh process per operation running ``branch <G> <chain> --json``
  calc    one long-lived process answering a seeded stream of calculator queries

With ``--trace 0`` the run prints the end-to-end metrics, measured without
tracing.  With ``--trace 1`` it spends half the time untraced and half traced
and prints the per-layer metrics, including the tracing overhead.
``--workload all`` runs every workload both ways and prints every metric
prefixed with its workload.  Every answer is checked after the timed interval;
the last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import gen
import oracle
from tracer import BOUNDARIES, span_name, summarize

HERE = gen.HERE
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(SRC, "lca", "data")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
CHILD = os.path.join(HERE, "child.py")
LAUNCH = (sys.executable, "-c", "from lca.cli import main; main()")
IMPORT = (sys.executable, "-c", "import lca.cli")
WORKLOADS = ("audit", "branch", "calc")
SETUP_SAMPLES = 15  # fresh imports timed per end-to-end run
TAIL_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("LCA_DATA_DIR", None)
    return env


def run_process(cmd, env, scratch) -> dict:
    """Run one child to completion; its peak RSS comes from its own rusage."""
    with open(os.path.join(scratch, "stderr"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        latency = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return {
            "latency": latency,
            "rc": proc.returncode,
            "out": out.decode(),
            "err": err.read().decode(errors="replace"),
            "rss_kb": usage.ru_maxrss,
        }


class Session:
    """The operations one client completed in one time budget.

    The budget counts operation time only.  When ``setup`` is a list, a
    fresh-interpreter import of lca.cli is timed between operations, spread
    evenly over the run, so that its median sees the same machine as the
    operations do.
    """

    def __init__(self, seconds, env, scratch, setup: bool):
        self.seconds, self.env, self.scratch = seconds, env, scratch
        self.ops: list = []  # dicts: argv, latency, rc, out, err, row
        self.rss_kb: list = []  # one per child process
        self.span_files: list = []
        self.busy = 0.0
        self.setup = [] if setup else None

    def running(self) -> bool:
        return self.busy < self.seconds

    def record(self, op: dict, wall: float):
        self.ops.append(op)
        self.busy += wall
        if self.setup is not None and len(self.setup) * self.seconds < SETUP_SAMPLES * self.busy:
            sample = run_process(IMPORT, self.env, self.scratch)
            if sample["rc"] != 0:
                raise RuntimeError(f"cannot import lca.cli: {sample['err'].strip()[-300:]}")
            self.setup.append(sample["latency"])


def fresh_session(s: Session, stream, traced) -> Session:
    while s.running():
        argv = next(stream)
        if traced:
            spans = os.path.join(s.scratch, f"spans-{len(s.span_files)}.json")
            s.span_files.append(spans)
            cmd = (sys.executable, CHILD, "cli", spans, *argv)
        else:
            cmd = (*LAUNCH, *argv)
        op = run_process(cmd, s.env, s.scratch)
        s.rss_kb.append(op.pop("rss_kb"))
        s.record({"argv": argv, "row": None, **op}, op["latency"])
    return s


def calc_session(s: Session, stream, traced) -> Session:
    spans = "-"
    if traced:
        spans = os.path.join(s.scratch, "spans-calc.json")
        s.span_files.append(spans)
    with open(os.path.join(s.scratch, "calc-stderr"), "w+b") as err:
        proc = subprocess.Popen(
            (sys.executable, CHILD, "calc", spans),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=err,
            env=s.env,
            cwd=ROOT,
            text=True,
        )
        try:
            if not proc.stdout.readline():
                raise RuntimeError("calculator child did not start")
            while s.running():
                argv, row = next(stream)
                start = time.perf_counter()
                proc.stdin.write(json.dumps(argv) + "\n")
                proc.stdin.flush()
                line = proc.stdout.readline()
                wall = time.perf_counter() - start
                reply = json.loads(line) if line else {
                    "latency": wall, "rc": None, "out": "", "err": "calculator child died"}
                s.record({"argv": argv, "row": row, **reply}, wall)
                if not line:
                    break
        finally:
            proc.stdin.close()
            proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    s.rss_kb.append(usage.ru_maxrss)
    return s


def session(workload, seed, s: Session, traced, reference) -> Session:
    if workload == "audit":
        return fresh_session(s, iter(lambda: list(gen.AUDIT_ARGV), None), traced)
    if workload == "branch":
        chains = [k.split()[1:3] for k in reference if k.startswith("branch ")]
        return fresh_session(s, gen.branch_stream(chains, seed), traced)
    return calc_session(s, gen.calc_stream(gen.calc_candidates(DATA), seed), traced)


def failures(s: Session, reference) -> list:
    """Reasons, one per failed operation; checked after the timed interval."""
    out = []
    for op in s.ops:
        if op["rc"] != 0:
            out.append(f"{' '.join(op['argv'])}: exit {op['rc']}: {op['err'].strip()[-300:]}")
            continue
        reason = oracle.check(op["argv"], op["out"], reference, op["row"])
        if reason:
            out.append(f"{' '.join(op['argv'])}: {reason}")
    return out


def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples); with too few samples, the maximum.
    """
    ordered = sorted(values)
    k = len(ordered) - 1 - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def end_to_end(s: Session) -> tuple:
    latencies = [op["latency"] for op in s.ops]
    tail_s, percentile, samples = tail(latencies)
    metrics = {
        "setup_s": statistics.median(s.setup),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_s,
        "queries_per_s": len(s.ops) / s.busy,
        "peak_rss_mb": statistics.median(s.rss_kb) / 1024,
    }
    return metrics, {"tail_percentile": round(percentile, 1), "samples": samples}


def per_layer(traced: Session, untraced: Session) -> dict:
    """Per-operation counts and self times from the traced session's spans."""
    totals: dict = {}
    distinct: dict = {}
    imports = []
    for path in traced.span_files:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        for name, (calls, self_s) in summarize(data["spans"]).items():
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for name, n in data["distinct"].items():
            distinct[name] = distinct.get(name, 0) + n
        imports.append(data["import_s"])
    n_ops = len(traced.ops)
    metrics = {}
    for module, attrs in BOUNDARIES.items():
        for attr in attrs:
            name = span_name(module, attr)
            calls, self_s = totals.get(name, (0, 0.0))
            metrics[f"{name}.calls"] = calls / n_ops
            metrics[f"{name}.self_s"] = self_s / n_ops
            if name in distinct:
                metrics[f"{name}.distinct_ratio"] = distinct[name] / calls if calls else 0.0
    metrics["cli.output_bytes"] = sum(len(op["out"].encode()) for op in traced.ops) / n_ops
    metrics["import_s"] = statistics.median(imports)
    metrics["trace.overhead_s"] = statistics.median(
        op["latency"] for op in traced.ops
    ) - statistics.median(op["latency"] for op in untraced.ops)
    return metrics


def declared(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def measure(workload, seed, seconds, trace, reference) -> tuple:
    """(attempted, failure reasons, {name: {value, unit}}, notes) for one run."""
    env = child_env()
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=OUT)
    try:
        if trace:
            plain = session(workload, seed, Session(seconds / 2, env, scratch, False), False, reference)
            traced = session(workload, seed, Session(seconds / 2, env, scratch, False), True, reference)
            sessions, values, notes = (plain, traced), per_layer(traced, plain), {}
            units = declared("per_layer")
        else:
            plain = session(workload, seed, Session(seconds, env, scratch, True), False, reference)
            sessions = (plain,)
            values, notes = end_to_end(plain)
            units = declared("end_to_end")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {missing}")
    attempted = sum(len(s.ops) for s in sessions)
    failed = [reason for s in sessions for reason in failures(s, reference)]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return attempted, failed, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lca", "cli.py")):
        print(f"perfbench: no lca sources under {SRC}", file=sys.stderr)
        return 2
    print(json.dumps({
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        **vars(args),
    }), flush=True)
    reference = oracle.load_reference()
    runs = [(args.workload, args.trace)]
    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    attempted, failed, metrics = 0, [], {}
    for workload, trace in runs:
        n, bad, values, notes = measure(workload, args.seed, args.seconds, trace, reference)
        attempted, failed = attempted + n, failed + bad
        for reason in bad[:5]:
            print(f"FAILED {workload}: {reason}", file=sys.stderr)
        if args.workload != "all":
            metrics = values
            print(json.dumps({"workload": workload, "trace": trace, **notes}), flush=True)
            continue
        if not trace:
            values["failed_ratio"] = {"value": len(bad) / n, "unit": "ratio"}
        for name, m in values.items():
            metrics[f"{workload}.{name}"] = m
            print(f"{workload}.{name} {m['value']:.6g} {m['unit']}")
        if notes:
            print(f"{workload}.latency_tail_s is p{notes['tail_percentile']}"
                  f" of {notes['samples']} samples")
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
