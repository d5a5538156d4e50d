"""Child process that runs lca in-process, for the calculator stream and for traced runs.

    child.py cli SPANS ARGV...   run one CLI call with tracing; SPANS is the span file
    child.py calc SPANS|-        answer one query per stdin line (a JSON argv list)
                                 with one JSON line on stdout; "-" means untraced

The program sees only ARGV.  Spans, and the import time of ``lca.cli``, are
written to SPANS when the child ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def main() -> int:
    mode, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    import lca.cli

    import_s = time.perf_counter() - start
    tracer = None
    if spans_path != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if mode == "cli":
            return lca.cli.run(argv)
        return serve(lca.cli)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(spans_path, import_s=import_s)


def serve(cli) -> int:
    """Closed loop: the next query arrives only after this answer is written."""
    reply = sys.stdout
    reply.write(json.dumps({"ready": True}) + "\n")
    reply.flush()
    for line in sys.stdin:
        argv = json.loads(line)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            rc = cli.run(argv)
            latency = time.perf_counter() - start
        reply.write(
            json.dumps({"rc": rc, "latency": latency, "out": out.getvalue(), "err": err.getvalue()})
            + "\n"
        )
        reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
