"""Workload process: runs solutions as in-process calls to ``olskit.cli.main``.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It speaks JSON
lines.  After its imports it writes ``{"imported_cpu": t}``.  For each
request ``{"argv": [...], "traced": bool}`` it collects garbage, times one
call to ``olskit.cli.main(argv)`` and answers ``{"cpu", "wall", "code",
"end_cpu"}``.  For ``{"stop": trace_path}`` it answers with its peak
resident memory and, if it traced anything, the layer totals, after
writing its spans to ``trace_path``.  ``t`` and ``end_cpu`` are this
process's CPU seconds since it started (``time.process_time``), so they
include the interpreter's start-up and imports.
"""

import gc
import json
import resource
import sys
import time

import olskit.cli

IMPORTED_CPU = time.process_time()


def main() -> int:
    channel = sys.stdout
    sys.stdout = sys.stderr  # nothing the program prints reaches the channel

    def send(message: dict) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    send({"imported_cpu": IMPORTED_CPU})
    tracer = None
    for line in sys.stdin:
        request = json.loads(line)
        if "stop" in request:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply = {"peak_rss_mb": rss_kib * 1024 / 1e6}
            if tracer is not None:
                from spans import layer_totals
                tracer.dump(request["stop"])
                reply["layers"] = {**layer_totals(tracer.spans), **tracer.counters}
            send(reply)
            return 0
        if request["traced"] and tracer is None:
            from spans import Tracer
            tracer = Tracer()
        gc.collect()
        if request["traced"]:
            tracer.solution += 1
            tracer.install()
        start = time.perf_counter()
        start_cpu = time.process_time()
        try:
            code = olskit.cli.main(request["argv"])
        except Exception as exc:  # one failed solution must not end the run
            print(f"solution raised {exc!r}", file=sys.stderr)
            code = -1
        end_cpu = time.process_time()
        wall = time.perf_counter() - start
        if request["traced"]:
            tracer.uninstall()
        send({"cpu": end_cpu - start_cpu, "wall": wall, "code": code, "end_cpu": end_cpu})
    return 1


if __name__ == "__main__":
    sys.exit(main())
