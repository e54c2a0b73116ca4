"""Benchmark of the olskit CLI: one workload, one seed, one run.

    env OPENBLAS_NUM_THREADS=1 python3 bench/run.py --workload krige \\
        --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The inputs of every solution are
generated from ``(seed, solution index)``, and each solution is one
in-process call to ``olskit.cli.main`` in a workload process started from
``src/``.  This process checks every solution's outputs against the
independent references in ``workloads.py`` and prints, as the last line
of standard output, ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, and its
per-layer metrics, from a traced pass, with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from workloads import WORKLOADS, CheckFailed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

PROBES = 4            # fresh processes timed for set-up, besides the main one
MIN_SOLUTIONS = 100   # the p90 needs ten samples beyond it
POOL_MARGIN = 1.25    # inputs generated ahead of timing, over the nominal count
STOP_TIMEOUT_S = 30


class WorkerDied(RuntimeError):
    """The workload process ended or answered out of protocol."""


class Worker:
    """One workload process running ``worker.py``."""

    def __init__(self, log_path: Path):
        self.log_path = log_path
        self.log = open(log_path, "w", encoding="utf-8")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log, text=True,
        )
        self.imported_cpu = self._receive()["imported_cpu"]

    def _receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.log.flush()
            tail = self.log_path.read_text(encoding="utf-8")[-2000:]
            raise WorkerDied(f"workload process ended; its log ends with:\n{tail}")
        return json.loads(line)

    def request(self, message: dict) -> dict:
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        return self._receive()

    def stop(self, trace_path: Path | None = None) -> dict:
        reply = self.request({"stop": str(trace_path) if trace_path else ""})
        self.proc.wait(timeout=STOP_TIMEOUT_S)
        return reply

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            pipe.close()
        self.log.close()


class Bench:
    """Inputs, solutions and checks of one run."""

    def __init__(self, workload, seed: int, out: Path):
        self.workload = workload
        self.seed = seed
        self.out = out
        self.generated = 0
        self.used = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.workers: list[Worker] = []

    def generate(self, count: int) -> None:
        """Write the input files of the next ``count`` solutions."""
        for k in range(self.generated, self.generated + count):
            in_dir = self.out / str(k)
            in_dir.mkdir()
            self.workload.write(self.seed, k, str(in_dir))
        self.generated += count

    def spawn(self) -> Worker:
        worker = Worker(self.out / f"worker-{len(self.workers)}.log")
        self.workers.append(worker)
        return worker

    def solve(self, worker: Worker, traced: bool = False) -> dict:
        """Run and check the next solution; its files are removed after."""
        if self.used == self.generated:
            self.generate(1)  # the pool ran out: extend it, outside any timed span
        k = self.used
        self.used += 1
        in_dir = self.out / str(k)
        argv = [self.workload.name,
                "--config", str(in_dir / "config.json"),
                "--data", str(in_dir / "data.csv"),
                "--query", str(in_dir / "query.csv"),
                "--out", str(in_dir / "out")]
        reply = worker.request({"argv": argv, "traced": traced})
        self.attempted += 1
        if reply["code"] != 0:
            self.failed += 1
            print(f"solution {k}: exit code {reply['code']}", file=sys.stderr)
        else:
            try:
                checked = self.workload.check(self.seed, k, str(in_dir / "out"))
            except (CheckFailed, OSError, ValueError, KeyError) as exc:
                self.wrong += 1
                print(f"solution {k}: wrong output: {exc}", file=sys.stderr)
            else:
                self.errors.append(checked.rel_error)
                if traced:
                    for name, value in checked.counts.items():
                        self.counts[name] += value
        shutil.rmtree(in_dir)
        return reply

    def setup_probes(self) -> dict[str, list[float]]:
        """CPU time of fresh processes from their start to their first solution."""
        times = defaultdict(list)
        for _ in range(PROBES + 1):
            worker = self.spawn()
            end_cpu = self.solve(worker)["end_cpu"]
            times["setup_s"].append(end_cpu)
            times["setup.import_s"].append(worker.imported_cpu)
            times["setup.first_solution_s"].append(end_cpu - worker.imported_cpu)
            if len(times["setup_s"]) <= PROBES:
                worker.stop()
        return times  # the last worker is warm and still running

    def close(self) -> None:
        """Stop every workload process and delete the inputs left unused."""
        for worker in self.workers:
            worker.close()
        for k in range(self.used, self.generated):
            shutil.rmtree(self.out / str(k))


def timed_pass(bench: Bench, worker: Worker, seconds: float):
    """Untraced solutions until ``seconds`` of timed CPU time and 100 solutions.

    Returns the CPU and wall seconds of every solution and how many completed.
    """
    cpus: list[float] = []
    walls: list[float] = []
    completed = 0
    while sum(cpus) < seconds or len(cpus) < MIN_SOLUTIONS:
        reply = bench.solve(worker)
        cpus.append(reply["cpu"])
        walls.append(reply["wall"])
        completed += reply["code"] == 0
    return cpus, walls, completed


def traced_pass(bench: Bench, worker: Worker, pairs: int):
    """Alternate untraced and traced solutions, ``pairs`` of each; CPU seconds."""
    plain, traced = [], []
    for _ in range(pairs):
        plain.append(bench.solve(worker)["cpu"])
        traced.append(bench.solve(worker, traced=True)["cpu"])
    return plain, traced


def declared_metrics(key: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[key]


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[workload_name]
    out = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    bench = Bench(workload, seed, out)
    pairs = math.ceil(seconds / (2 * workload.nominal_s))
    timed = math.ceil(POOL_MARGIN * max(seconds / workload.nominal_s, MIN_SOLUTIONS))
    bench.generate(PROBES + 1 + (2 * pairs if trace else timed))
    try:
        setup = bench.setup_probes()
        worker = bench.workers[-1]
        if trace:
            plain, traced = traced_pass(bench, worker, pairs)
            reply = worker.stop(out / "trace.json")
        else:
            cpus, walls, completed = timed_pass(bench, worker, seconds)
            reply = worker.stop()
    except WorkerDied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.close()

    values = {name: statistics.median(v) for name, v in setup.items()}
    if trace:
        layers = reply["layers"]
        values.update({name: v / pairs for name, v in layers.items()})
        values.update({name: v / pairs for name, v in bench.counts.items()})
        values["model.estimator_mb"] = layers.get("model.estimator_bytes", 0.0) / pairs / 1e6
        values["numpy.linalg.gflop"] = layers.get("numpy.linalg.flop", 0.0) / pairs / 1e9
        values["trace.slowdown"] = sum(traced) / sum(plain)
        # a layer the workload never reaches reads 0
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in declared_metrics("per_layer")}
    else:
        deciles = statistics.quantiles(cpus, n=10)
        values.update({
            "solutions_per_s": completed / sum(cpus),
            "s_per_solution.p90": deciles[-1],
            "peak_rss_mb": reply["peak_rss_mb"],
            "accuracy_digits": -math.log10(max(bench.errors)) if bench.errors else 0.0,
        })
        wall_deciles = statistics.quantiles(walls, n=10)
        # reference figures, not gated: see README.md
        print(json.dumps({"reference": {
            "solutions": len(cpus), "cpu_s": sum(cpus), "wall_s": sum(walls),
            "s_per_solution.p50": deciles[4], "s_per_solution.p10": deciles[0],
            "wall.solutions_per_s": completed / sum(walls),
            "wall.s_per_solution.p90": wall_deciles[-1],
            "wall.s_per_solution.p50": wall_deciles[4],
            "wall.s_per_solution.p10": wall_deciles[0],
        }}))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in declared_metrics("end_to_end")}
    result = {"correct": bench.wrong == 0, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "olskit" / "cli.py").is_file():
        print(f"error: no olskit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
