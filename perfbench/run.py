#!/usr/bin/env python3
"""Benchmark for ribbon-embed: seeded CLI workloads, checked, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload analyze-exhaustive --seed 1 --seconds 25 --trace 0

Workloads are ``analyze-exhaustive``, ``embed-sparse`` and ``oracle-brute``
(see ``workloads.py``).  A run writes a few input sets, derived from
``--seed``, under ``perfbench/out/``, then runs the workload's ops as one
closed-loop client: one op at a time through ``ribbon_embed.cli.main`` in
this process.  It makes a fixed number of rounds (see ``schedule``); a round
is one pass over every input set, a pass makes a few sweeps over its set
(see ``pass_order``), and before each pass one fresh interpreter imports
the CLI and reads the inputs (``setup_s``).  Every op's output is
checked against independent expectations.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics, built from each op's fastest
repetition; with ``--trace 1`` odd rounds run traced, and the line carries
the per-layer metrics instead.  The line before it holds the run's details:
host, per-pass figures, failures and the known-defect probes.
``--write-golden`` (default seed only) records the output hashes of the
certified ops of the first pass in ``golden.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402
from workloads import Op, Probe, Result, Verdict  # noqa: E402

DEFAULT_SEED = 0
OP_TIMEOUT = 60.0  # seconds; an op running longer is stopped and counted failed
MEASURE_LIMIT = 2.0  # measuring stops this many times its planned length after it began
RUN_LIMIT = 150.0  # seconds after start: no measured op runs later
PROBE_LIMIT = 165.0  # seconds after start: no probe runs later
TAIL_BEYOND = 10  # the tail percentile leaves at least this many ops above it

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ribbon_embed.cli
t1 = time.perf_counter()
for path in sys.argv[2:]:
    with open(path, "rb") as fh:
        fh.read()
print(t1 - t0)
"""


class OpTimeout(BaseException):
    """Raised inside an op that ran past its time limit."""


@dataclass
class PassRecord:
    set_index: int
    wall: float
    results: list[tuple[Op, Result, Verdict]]
    traced: bool
    complete: bool = True  # False when the deadline cut the pass short


def host_info() -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    model = next(
        (line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )  # fmt: skip
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "loadavg": read("/proc/loadavg").split()[:3],
    }


def schedule(workload: str, seconds: float, trace: bool) -> tuple[int, int]:
    """(input sets, rounds) of a run.

    The rounds come from ``--seconds`` and the pass time recorded in
    ``workloads.SCHEDULE``, never from the speed of the program under test,
    so every commit is measured on the same work: the same sample sizes for
    the minima and the same tail percentile.  A traced run needs an even
    number of rounds, half untraced and half traced; it rounds down, so that
    tracing does not make a run longer.
    """
    sets, pass_s = workloads.SCHEDULE[workload]
    rounds = max(2, round(seconds / (sets * pass_s)))
    return sets, max(2, rounds - rounds % 2) if trace else rounds


def measure_setup(inputs: list[Path], env: dict) -> tuple[float, float]:
    """Fresh interpreter to CLI imported and inputs read: (wall, import) seconds."""
    argv = [sys.executable, "-c", SETUP_CHILD, str(SRC), *map(str, inputs)]
    began = time.perf_counter()
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60, check=True)
    return time.perf_counter() - began, float(done.stdout)


class Runner:
    """Runs ops one at a time in this process, each under a time limit."""

    def __init__(self, main, deadline: float, tracer: Tracer | None = None) -> None:
        self.main = main
        self.deadline = deadline
        self.tracer = tracer
        self.armed = False
        signal.signal(signal.SIGALRM, self._alarm)

    def _alarm(self, signum, frame) -> None:
        if self.armed:
            raise OpTimeout

    def run(self, op: Op, traced: bool = False) -> Result | None:
        """The op's result, or None when the run's deadline came first."""
        limit = min(OP_TIMEOUT, self.deadline - time.monotonic())
        if limit <= 0:
            return None
        out, err = io.StringIO(), io.StringIO()
        rc = error = None
        if traced:
            self.tracer.begin_op(op.op_id)
        began, cpu0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                self.armed = True
                signal.setitimer(signal.ITIMER_REAL, limit)
                try:
                    rc = self.main(op.argv)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    self.armed = False
        except OpTimeout:
            error = "timeout"
        except (Exception, SystemExit) as exc:  # an op's failure must not end the run
            error = type(exc).__name__
        seconds, cpu = time.perf_counter() - began, time.process_time() - cpu0
        if traced:
            self.tracer.end_op(seconds)
        if error == "timeout" and limit < OP_TIMEOUT:
            return None  # stopped by the run's deadline, not by the op's own limit
        return Result(rc, error, out.getvalue(), err.getvalue(), seconds, cpu)


def answer_of(op: Op, res: Result) -> bytes:
    if op.output is None:
        return res.stdout.encode()
    try:
        return op.output.read_bytes()
    except OSError:
        return b""


def judge(op: Op, res: Result, golden: dict[str, str]) -> Verdict:
    """Check the op's output, then drop it: only its digest is kept."""
    res.answer = answer_of(op, res)
    res.digest = hashlib.sha256(res.answer).hexdigest()
    verdict = op.check(res)
    res.answer, res.stdout, res.stderr = b"", "", ""
    want = golden.get(op.op_id)
    if verdict.ok and want is not None and res.digest != want:
        return Verdict(False, False, "output differs from the golden output at the default seed")
    return verdict


def pass_order(ops: list[Op], sweeps: int) -> list[Op]:
    """The runs of one pass: ``sweeps`` sweeps over the set, each in op order.

    A light op runs in every sweep.  The heavy ops are cut into ``sweeps``
    consecutive groups, one group per sweep, so the repetitions of a light
    op are spread over the pass instead of back to back.  A verify
    op that comes before its embed's sweep finds no schema in the first
    round and is skipped there.
    """
    heavy = [op for op in ops if not op.light]
    group = {id(op): i * sweeps // len(heavy) for i, op in enumerate(heavy)}
    return [op for j in range(sweeps) for op in ops if op.light or group[id(op)] == j]


def run_pass(runner: Runner, ops: list[Op], golden: dict, traced: bool,
             set_index: int = 0) -> PassRecord:  # fmt: skip
    gc.collect()
    tracer = runner.tracer
    fold0 = tracer.fold_seconds if tracer else 0.0
    ran: list[tuple[Op, Result]] = []
    complete = True
    began = time.perf_counter()
    for op in pass_order(ops, workloads.SWEEPS):
        if op.needs is not None and not op.needs.exists():
            continue
        res = runner.run(op, traced)
        if res is None:
            complete = False
            break
        ran.append((op, res))
    wall = time.perf_counter() - began
    if tracer:
        wall -= tracer.fold_seconds - fold0  # folding spans is not the program's time
    results = [(op, res, judge(op, res, golden)) for op, res in ran]
    return PassRecord(set_index, wall, results, traced, complete)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with TAIL_BEYOND ops above it."""
    ordered = sorted(latencies)
    rank = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def faster_half(values: list) -> list:
    """The faster half of repeated measurements (at least one)."""
    return sorted(values)[: (len(values) + 1) // 2]


def fastest_runs(passes: list[PassRecord]) -> dict[tuple[int, str], tuple[float, float]]:
    """Each op's fastest repetition: (wall, cpu) seconds, keyed by (set, op id).

    Other tenants of a shared host can only slow an op down, and on the
    2-CPU machine this was written on they did so by up to a factor of two,
    for seconds or minutes at a time.  Each op runs once per round, a light
    op once per sweep, and its fastest repetition is the one least
    disturbed.
    """
    best: dict[tuple[int, str], tuple[float, float]] = {}
    for p in passes:
        for op, res, _ in p.results:
            key = (p.set_index, op.op_id)
            wall, cpu = best.get(key, (math.inf, math.inf))
            best[key] = (min(wall, res.seconds), min(cpu, res.cpu))
    return best


def end_to_end(passes: list[PassRecord], sets: int, setup: list[float],
               rss_kb: int) -> dict[str, float]:  # fmt: skip
    best = fastest_runs(passes)
    walls = [wall for wall, _ in best.values()] or [0.0]
    verdicts = [v for p in passes for _, _, v in p.results]
    # An answer is counted once per pass, however often its op repeats.
    answers = [v for p in passes for v in {op.op_id: v for op, _, v in p.results}.values()]
    good = [v for v in answers if v.ok]
    return {
        "setup_s": statistics.median(faster_half(setup)),
        "wall_s": sum(walls) / sets,
        "cpu_s": sum(cpu for _, cpu in best.values()) / sets,
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail(walls)[0],
        "ok_ratio": sum(v.ok for v in verdicts) / len(verdicts) if verdicts else 0.0,
        "exact_ratio": sum(v.exact for v in good) / len(good) if good else 0.0,
        "peak_rss_mb": rss_kb / 1024.0,
    }


UNITS = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "op_p50_s": "s", "op_tail_s": "s",
    "ok_ratio": "1", "exact_ratio": "1", "peak_rss_mb": "MB",
}  # fmt: skip


def probe_report(runner: Runner, probes: list[Probe]) -> list[dict]:
    """Run each known-defect probe once and compare with its recorded outcome."""
    report = []
    for probe in probes:
        res = runner.run(probe.op)
        if res is None:
            report.append({"op": probe.op.op_id, "state": "not run: out of time",
                           "defect": probe.defect})  # fmt: skip
            continue
        verdict = judge(probe.op, res, {})
        seen = res.error or f"exit {res.rc}"
        if verdict.ok:
            state = "fixed"
        elif seen == probe.recorded:
            state = "fails as recorded"
        else:
            state = "fails differently"
        report.append({"op": probe.op.op_id, "state": state, "seen": seen, "why": verdict.why,
                       "defect": probe.defect})  # fmt: skip
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    start = time.monotonic()

    if not (SRC / "ribbon_embed" / "cli.py").is_file():
        print(f"error: no ribbon_embed sources under {SRC}", file=sys.stderr)
        return 2
    threads_env = os.environ.pop("RIBBON_EMBED_THREADS", None)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    run_dir = OUT / f"{args.workload}-s{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    began = time.perf_counter()
    wl = workloads.build(args.workload, args.seed, run_dir)
    sets, rounds = schedule(args.workload, args.seconds, bool(args.trace))
    planned_s = max(args.seconds, rounds * sets * workloads.SCHEDULE[args.workload][1])
    ops_of_set = [wl.make_set(k) for k in range(sets)]
    corpus_s = time.perf_counter() - began
    setup_inputs = sorted(wl.set_dir(0).glob("*.graph"))

    sys.path.insert(0, str(SRC))
    import ribbon_embed
    import ribbon_embed.cli

    tracer = Tracer(ribbon_embed) if args.trace else None
    runner = Runner(ribbon_embed.cli.main, start + RUN_LIMIT, tracer)
    failures: list[dict] = []
    for op in wl.prepare:
        res = runner.run(op)
        verdict = judge(op, res, {}) if res else Verdict(False, False, "out of time")
        if not verdict.ok:
            failures.append({"op": op.op_id, "pass": "prepare", "why": verdict.why})
    wl.derive()

    golden = {}
    if args.seed == DEFAULT_SEED and GOLDEN.exists() and not args.write_golden:
        golden = json.loads(GOLDEN.read_text()).get(args.workload, {})

    passes: list[PassRecord] = []
    setup, imports = [], []
    measure_from = time.monotonic()
    runner.deadline = min(start + RUN_LIMIT, measure_from + MEASURE_LIMIT * planned_s)
    for r in range(rounds):
        traced = bool(args.trace) and r % 2 == 1
        for k in range(sets):
            if time.monotonic() >= runner.deadline:
                break
            wall, imported = measure_setup(setup_inputs, env)
            setup.append(wall)
            imports.append(imported)
            if traced:
                tracer.install()
            try:
                record = run_pass(runner, ops_of_set[k], golden if not passes else {},
                                  traced, k)  # fmt: skip
            finally:
                if traced:
                    tracer.uninstall()
            passes.append(record)
    measured_s = time.monotonic() - measure_from
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    runner.deadline = start + PROBE_LIMIT
    probes = probe_report(runner, wl.probes)

    attempted = failed = 0
    for i, p in enumerate(passes):
        for op, res, verdict in p.results:
            attempted += 1
            if not verdict.ok:
                failed += 1
                failures.append({"op": op.op_id, "pass": i, "why": verdict.why,
                                 "error": res.error})  # fmt: skip
    failed += sum(f["pass"] == "prepare" for f in failures)
    ran = {(p.set_index, op.op_id) for p in passes if not p.traced for op, _, _ in p.results}
    skipped = {(k, op.op_id) for k, ops in enumerate(ops_of_set) for op in ops
               if op.needs is not None and not op.needs.exists()}  # fmt: skip
    missing = [key for k, ops in enumerate(ops_of_set) for op in ops
               if (key := (k, op.op_id)) not in ran and key not in skipped]  # fmt: skip
    if missing:
        failed += 1
        failures.append({"op": "*", "pass": len(passes),
                         "why": f"{len(missing)} ops never ran untraced before the deadline"})
    attempted = max(attempted, 1)

    if args.write_golden:
        write_golden(args, passes[0])

    untraced = [p for p in passes if not p.traced]
    walls = [wall for wall, _ in fastest_runs(untraced).values()]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host_info(),
        "RIBBON_EMBED_THREADS": "cleared" if threads_env is not None else "was not set",
        "schedule": {"input_sets": sets, "rounds": rounds, "passes_run": len(passes),
                     "measured_s": measured_s},  # fmt: skip
        "corpus_s": corpus_s,
        "setup_samples_s": setup,
        "ops_per_set": [len(ops) for ops in ops_of_set],
        "passes": [
            {"set": p.set_index, "wall_s": p.wall, "traced": p.traced, "complete": p.complete,
             "op_s": [round(res.seconds, 6) for _, res, _ in p.results]}
            for p in passes
        ],  # fmt: skip
        "op_tail": {"percentile": tail(walls)[1] if walls else None, "samples": len(walls),
                    "beyond": TAIL_BEYOND},  # fmt: skip
        "failures": failures,
        "probes": probes,
    }

    if args.trace:
        traced_passes = [p for p in passes if p.traced and p.complete]
        untraced_walls = [p.wall for p in untraced if p.complete]
        k = len(traced_passes)
        if k and untraced_walls:
            stats = tracer.take_pass()  # all traced passes, summed
            values = tracer.metrics(
                stats, sum(p.wall for p in traced_passes),
                statistics.mean(untraced_walls) * k, statistics.median(imports),
            )  # fmt: skip
            per_pass = {name for name, unit, _ in METRICS if unit in ("s", "count", "bytes")}
            per_pass.discard("cli.import_s")
            values = {name: v / k if name in per_pass else v for name, v in values.items()}
            details["traced_wall_s"] = statistics.median(p.wall for p in traced_passes)
        else:
            failed += 1
            failures.append({"op": "*", "pass": len(passes), "why": "no traced pass completed"})
            values = {name: 0.0 for name, _, _ in METRICS}
        values["probe.failing"] = sum(p["state"] != "fixed" for p in probes)
        spans = run_dir / "spans.tsv"
        tracer.write_spans(spans)
        details["spans_file"] = str(spans.relative_to(ROOT))
        details["spans_not_written"] = tracer.unlogged
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}
    else:
        values = end_to_end(untraced, sets, setup or [0.0], rss_kb)
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}

    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))  # fmt: skip
    return 0


def write_golden(args, record: PassRecord) -> None:
    """Store hashes of the ops that are right and certified at the default seed."""
    if args.seed != DEFAULT_SEED:
        raise SystemExit("golden outputs are recorded at the default seed only")
    table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    table[args.workload] = {
        op.op_id: res.digest
        for op, res, verdict in record.results
        if verdict.ok and verdict.exact
    }
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
