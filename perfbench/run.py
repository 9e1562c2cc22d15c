"""Layered campaign benchmark.

Run one workload and print its metrics; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``::

    python3 perfbench/run.py --workload system_busy --seed 0 --seconds 25 --trace 0

Every run loads the program from the checkout's ``src/``, uses one
process and the serial (or lockstep batch) executor, and checks every
simulated outcome: at seed 0 against the digests pinned in
``perfbench/reference/``, at every seed against the invariants (each
fault detected, recovered, with a reset) and the paper's Fig. 11 values
on the phase-seed-0 rows.

``--trace 0`` reports the end-to-end metrics from untraced repetitions.
Host times are calibrated (see ``HOST_REFERENCE_MS``): each sample is
scaled by a calibration loop timed beside it, so the figures read as
seconds of a reference host; the uncalibrated medians are printed too.

* ``setup_s`` — fresh interpreter start to ``repro.cli`` imported and
  its parser built, process start included (median of several
  children);
* ``wall_s`` — host wall clock of the workload's campaign call(s), from
  spec to exported JSON (median over repetitions);
* ``stepped_cycles_per_s`` — simulated cycles the kernel stepped (not
  leaped) per second of ``wall_s``;
* ``run_ms_p50`` / ``run_ms_p90`` — host time per simulated run, one
  sample per ``execute_shard`` call through a benchmark-owned executor
  with one run per shard; on ``fig11_batch``, whose batch path hands the
  executor whole packs, one sample per lane it simulates (pack leaders
  and retired lanes), timed at ``execute_run``;
* ``peak_rss_mb`` — the process's peak resident memory.

``failed_frac`` (runs whose outcome misses the checks above, over runs
attempted) is printed, and carried by the ``failed``/``attempted``
fields of the result; a campaign that raises ends the benchmark with
exit status 1 and no result.

``--trace 1`` splits its time between untraced and traced repetitions
and reports the per-layer metrics of the traced repetition with the
median wall time.  Its exclusive layer times (``harness.build_total_ms``,
``sim.kernel_self_ms``, ``axi.*_ms``, ``tmu.*_ms``, ``soc.periph_ms``,
``orchestrate.plan_ms``, ``orchestrate.store_get_ms``,
``orchestrate.store_put_ms``, ``orchestrate.executor_ms``,
``analysis.export_ms`` and ``other_ms``) sum to ``trace.wall_ms``;
``axi.subordinate_ms`` excludes the memory calls it makes and
``tmu.unit_ms`` the counter calls.  ``harness.build_ms`` (median per
construction) and ``orchestrate.overhead_ms`` (wall time minus the
summed executor calls) overlap the exclusive layers.

Other modes::

    python3 perfbench/run.py --workload X --seed N --seconds S --trace T --out runs.jsonl
    python3 perfbench/run.py --compare parent.jsonl change.jsonl
    python3 perfbench/run.py --record-reference

``--out`` appends the result, with an environment record, to a JSON
lines file.  ``--compare`` prints each workload x end-to-end metric
with both sides' medians and quartiles against the bound in
``BENCHMARK.json``.  ``--record-reference`` re-pins the seed-0 outcome
digests in ``perfbench/reference/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
WORK = HERE / ".work"

if not (SRC / "repro" / "__init__.py").is_file():
    # Never fall back to an installed copy: the benchmark measures the
    # program in this checkout.
    print(f"perfbench: no program at {SRC / 'repro'}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

from layers import LAYERS, NullClock, instrumented, median_ms  # noqa: E402
from repro.analysis.export import campaign_dict, to_json  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Context,
    breaks_invariants,
    breaks_paper,
    outcome,
)

#: The seed whose outcomes are pinned in ``reference/``, and the hex
#: digits kept of each run's outcome digest there.
DEFAULT_SEED = 0
DIGEST_CHARS = 6

#: Child interpreters timed for ``setup_s``, spread evenly over the
#: measuring time so a burst of host contention cannot hit them all
#: (after one untimed warm-up that also compiles bytecode in a fresh
#: checkout).
SETUP_CHILDREN = 15
SETUP_CODE = "import repro.cli as cli; cli.build_parser()"

#: Repetitions measured at least, however short ``--seconds`` is.
MIN_REPS = 3

#: Host-speed calibration.  The benchmark host is shared, and its speed
#: swings by a third over tens of seconds as neighbours load it; raw
#: medians of one run then drift by more than any useful bound.  Every
#: timed sample is therefore scaled by ``HOST_REFERENCE_MS`` over the
#: time of a fixed calibration loop measured right beside it, i.e.
#: reported in seconds of a host on which that loop takes this long.
HOST_REFERENCE_MS = 8.0


class _Cell:
    __slots__ = ("value", "carry")

    def __init__(self) -> None:
        self.value = 0
        self.carry = 1


def host_ms() -> float:
    """Time of a fixed loop shaped like simulator work: slot attribute
    traffic, integer arithmetic and small dict updates, all in Python.

    Of the loops tried, this one tracked the campaign workloads' own
    slowdowns best, across both short bursts and minutes-long spells.
    """
    cell = _Cell()
    table = {}
    start = perf_counter_ns()
    for i in range(60_000):
        cell.value = cell.carry + i
        table[i & 255] = cell.value
        if table.get(i & 127) is None:
            cell.carry += 1
    return (perf_counter_ns() - start) / 1e6


def host_factor(before: float) -> float:
    """Scale for a sample timed after a *before* calibration."""
    return 2 * HOST_REFERENCE_MS / (before + host_ms())


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------
def spawn_setup(importtime: bool):
    """Time one fresh interpreter importing the CLI and building its
    parser: (calibrated seconds, stderr, raw seconds)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    )
    command = [sys.executable]
    if importtime:
        command += ["-X", "importtime"]
    command += ["-c", SETUP_CODE]
    before = host_ms()
    start = perf_counter()
    proc = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return elapsed * host_factor(before), proc.stderr, elapsed


def import_times_ms(stderr: str):
    """(repro, numpy) cumulative import time from ``-X importtime`` output.

    ``repro`` sums the top-level ``repro*`` entries (the package and
    ``repro.cli``); ``numpy`` is its cumulative entry wherever it nests.
    """
    repro_us = numpy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        stripped = name.strip()
        if not cumulative.strip().isdigit():
            continue
        top_level = len(name) - len(name.lstrip()) <= 1
        if top_level and stripped.split(".")[0] == "repro":
            repro_us += int(cumulative)
        if stripped == "numpy":
            numpy_us = int(cumulative)
    return repro_us / 1000, numpy_us / 1000


# ----------------------------------------------------------------------
# Repetitions
# ----------------------------------------------------------------------
def load_reference(workload: str):
    path = REFERENCE / f"{workload}.json"
    if not path.exists():
        return None
    return {
        label: [joined[i:i + DIGEST_CHARS]
                for i in range(0, len(joined), DIGEST_CHARS)]
        for label, joined in json.loads(path.read_text())["digests"].items()
    }


def digest(result) -> str:
    blob = json.dumps(outcome(result), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:DIGEST_CHARS]


def run_rep(workload: str, seed: int, traced: bool, reference,
            exports: bool = False) -> dict:
    """One timed repetition, checked after the timer stops.

    The results are dropped once checked, so memory holds at most one
    repetition's campaign at a time.  *exports* also checks that every
    streamed JSON export is byte-identical to the in-memory export.
    """
    ctx = None
    try:
        before = host_ms()
        with instrumented(traced) as inst:
            ctx = Context(inst.clock, WORK)
            if traced:
                inst.clock.start()
            start = perf_counter_ns()
            steps = WORKLOADS[workload](ctx, seed)
            wall = perf_counter_ns() - start
            if traced:
                inst.clock.stop()
        rep = {
            "host": host_factor(before),
            "wall_ns": wall,
            "stepped": inst.stepped.cycles,
            "call_ns": [ns for ex in ctx.executors for ns in ex.call_ns],
            "executed": sum(ex.runs_executed for ex in ctx.executors),
            "batched": [ex.inner.stats for ex in ctx.executors
                        if hasattr(ex.inner, "stats")],
            "stored": bool(ctx.stores),
            "build_ns": list(inst.build_ns),
            "run_ns": list(inst.run_ns),
            "attempted": 0,
            "failed": 0,
            "exports_ok": True,
        }
        if traced:
            rep["clock"] = inst.clock
            rep["tracer"] = inst.tracer
        for step, path in zip(steps, ctx.exports):
            results = step.results
            if callable(results):
                results = results()
            attempted, failed = check_step(step, results, seed, reference)
            rep["attempted"] += attempted
            rep["failed"] += failed
            if exports:
                rep["exports_ok"] &= path.read_text() == to_json(
                    campaign_dict(results, spec=step.spec)
                )
        return rep
    finally:
        if ctx is not None:
            ctx.close()


def check_step(step, results, seed: int, reference) -> tuple:
    """(attempted, failed) runs of one campaign step."""
    runs = step.spec.runs()
    if len(results) != len(runs):
        return len(runs), len(runs)
    pinned = None
    if seed == DEFAULT_SEED and reference is not None:
        pinned = reference[step.label]
    failed = 0
    for run, result in zip(runs, results):
        bad = breaks_invariants(result) or breaks_paper(step.spec, run, result)
        if pinned is not None:
            bad = bad or digest(result) != pinned[run.index]
        failed += bad
    return len(runs), failed


def measure_loop(workload: str, seed: int, reference, seconds: float,
                 traced: bool) -> tuple:
    """Repeat the workload for *seconds*: (set-up, plain, traced) samples.

    Untraced and traced repetitions alternate, and the set-up children
    are spread evenly over the time, so a slow spell of the host shifts
    every sample list alike instead of one of them.
    """
    spawn_setup(traced)
    setup, plain, traced_reps = [], [], []
    start = perf_counter()
    deadline = start + seconds
    while (perf_counter() < deadline or len(plain) < MIN_REPS
           or len(setup) < SETUP_CHILDREN):
        if len(plain) < MIN_REPS or perf_counter() < deadline:
            plain.append(run_rep(workload, seed, False, reference))
            if traced:
                traced_reps.append(run_rep(workload, seed, True, reference))
        elapsed = min(1.0, (perf_counter() - start) / seconds)
        if len(setup) < SETUP_CHILDREN * elapsed:
            setup.append(spawn_setup(traced))
    return setup, plain, traced_reps


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def quantile(samples, q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    if len(samples) == 1:
        return float(samples[0])
    return statistics.quantiles(samples, n=100)[q - 1]


def end_to_end(reps: list, setup: list, batch: bool) -> dict:
    walls = [rep["wall_ns"] / 1e9 * rep["host"] for rep in reps]
    # The batch executor hands back whole packs, so its per-run samples
    # are the lanes it actually simulated.
    samples = "run_ns" if batch else "call_ns"
    run_ms = [ns / 1e6 * rep["host"] for rep in reps for ns in rep[samples]]
    print(f"# uncalibrated medians: setup_s "
          f"{statistics.median(raw for _, _, raw in setup):.6f} wall_s "
          f"{statistics.median(rep['wall_ns'] / 1e9 for rep in reps):.6f}; "
          f"host factor {statistics.median(rep['host'] for rep in reps):.4f}")
    return {
        "setup_s": (statistics.median(t for t, _, _ in setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "stepped_cycles_per_s": (
            statistics.median(rep["stepped"] / w for rep, w in zip(reps, walls)),
            "1/s",
        ),
        "run_ms_p50": (statistics.median(run_ms), "ms"),
        "run_ms_p90": (quantile(run_ms, 90), "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def per_layer(plain: list, traced: list, setup: list) -> dict:
    ordered = sorted(traced, key=lambda rep: rep["wall_ns"])
    rep = ordered[(len(ordered) - 1) // 2]
    clock, tracer = rep["clock"], rep["tracer"]
    ms = {layer: clock.ns[layer] / 1e6 for layer in LAYERS}
    imports = [import_times_ms(stderr) for _, stderr, _ in setup]
    runs = rep["attempted"]
    batch = rep["batched"]
    simulated = sum(stats.simulated for stats in batch)
    derived = sum(stats.derived for stats in batch)
    retired = sum(stats.retired for stats in batch)
    stored = rep["stored"]
    return {
        "setup.import_repro_ms": (statistics.median(r for r, _ in imports), "ms"),
        "setup.import_numpy_ms": (statistics.median(n for _, n in imports), "ms"),
        "harness.build_ms": (median_ms(rep["build_ns"]), "ms"),
        "harness.builds": (clock.calls["harness.build"], "count"),
        "harness.build_total_ms": (ms["harness.build"], "ms"),
        "sim.stepped_cycles": (rep["stepped"], "count"),
        "sim.cycles_leaped": (tracer.cycles_leaped, "count"),
        "sim.leaps": (tracer.leaps, "count"),
        "sim.kernel_self_ms": (ms["sim.kernel"], "ms"),
        "axi.crossbar_ms": (ms["axi.crossbar"], "ms"),
        "axi.manager_ms": (ms["axi.manager"], "ms"),
        "axi.subordinate_ms": (ms["axi.subordinate"], "ms"),
        "axi.memory_ms": (ms["axi.memory"], "ms"),
        "axi.memory_calls": (clock.calls["axi.memory"], "count"),
        "tmu.unit_ms": (ms["tmu.unit"], "ms"),
        "tmu.counter_ms": (ms["tmu.counter"], "ms"),
        "tmu.counter_calls": (clock.calls["tmu.counter"], "count"),
        "soc.periph_ms": (ms["soc.periph"], "ms"),
        "orchestrate.batch_simulated": (simulated, "count"),
        "orchestrate.batch_derived": (derived, "count"),
        "orchestrate.batch_retired": (retired, "count"),
        "orchestrate.batch_derived_frac": (
            derived / runs if batch else 0.0, "ratio"
        ),
        "orchestrate.store_get_ms": (ms["orchestrate.store_get"], "ms"),
        "orchestrate.store_put_ms": (ms["orchestrate.store_put"], "ms"),
        "orchestrate.store_reused_runs": (
            runs - rep["executed"] if stored else 0, "count"
        ),
        "orchestrate.store_frontier_runs": (
            rep["executed"] if stored else 0, "count"
        ),
        "orchestrate.plan_ms": (ms["orchestrate.plan"], "ms"),
        "orchestrate.executor_ms": (ms["orchestrate.executor"], "ms"),
        "orchestrate.overhead_ms": (
            (clock.wall_ns - sum(rep["call_ns"])) / 1e6, "ms"
        ),
        "analysis.export_ms": (ms["analysis.export"], "ms"),
        "other_ms": (ms["other"], "ms"),
        "trace.wall_ms": (clock.wall_ns / 1e6, "ms"),
        "trace.overhead_frac": (
            statistics.median(r["wall_ns"] * r["host"] for r in traced)
            / statistics.median(r["wall_ns"] * r["host"] for r in plain) - 1,
            "ratio",
        ),
    }


# ----------------------------------------------------------------------
# Environment and output
# ----------------------------------------------------------------------
def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "numpy": numpy_version,
        "commit": git_commit(),
    }


def measure(args) -> dict:
    reference = load_reference(args.workload)
    if reference is None:
        raise RuntimeError(f"no pinned reference for {args.workload}")
    workload, seed = args.workload, args.seed
    warm = run_rep(workload, seed, False, reference, exports=True)
    setup, plain, traced = measure_loop(
        workload, seed, reference, args.seconds, bool(args.trace)
    )
    reps = [warm] + plain + traced
    if args.trace:
        metrics = per_layer(plain, traced, setup)
    else:
        metrics = end_to_end(plain, setup, workload == "fig11_batch")
    # Stepped cycles are deterministic, traced or not; the layer times
    # of every traced repetition add up to its wall time.
    checks_ok = all(rep["exports_ok"] for rep in reps)
    checks_ok &= len({rep["stepped"] for rep in reps}) == 1
    for rep in reps:
        if "clock" in rep:
            clock = rep["clock"]
            checks_ok &= abs(sum(clock.ns.values()) - clock.wall_ns) < 1e6
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    print(f"# workload {workload} seed {seed} trace {args.trace} "
          f"repetitions {len(reps) - 1} (+1 warm-up)")
    print(f"# failed_frac {failed / max(attempted, 1):.6f} "
          f"({failed}/{attempted} runs)")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6f} {unit}")
    return {
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def record_reference(workloads) -> None:
    """Pin the seed-0 outcome digests of each workload."""
    REFERENCE.mkdir(exist_ok=True)
    for workload in workloads:
        ctx = Context(NullClock(), WORK)
        digests = {}
        bad = 0
        try:
            for step in WORKLOADS[workload](ctx, DEFAULT_SEED):
                results = step.results
                if callable(results):
                    results = results()
                digests[step.label] = "".join(map(digest, results))
                bad += check_step(step, results, DEFAULT_SEED, None)[1]
        finally:
            ctx.close()
        if bad:
            raise SystemExit(f"{workload}: {bad} runs break the invariants; "
                             "not pinning them as the reference")
        payload = {
            "workload": workload,
            "seed": DEFAULT_SEED,
            "outcome": ["variant", "stage", "detected", "inject_cycle",
                        "detect_cycle", "fault_kind", "fault_phase",
                        "recovered", "resets"],
            "digest_format": f"per step, the first {DIGEST_CHARS} hex "
                             "digits of each run's sha256 over its compact "
                             "JSON outcome list, concatenated in run order",
            "digests": digests,
        }
        path = REFERENCE / f"{workload}.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="append the result to this JSON lines file")
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("PARENT", "CHANGE"))
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        from compare import compare

        return compare(*args.compare)
    if args.record_reference:
        record_reference([args.workload] if args.workload else WORKLOADS)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    try:
        result = measure(args)
    except Exception:
        traceback.print_exc()
        return 1
    if args.out is not None:
        record = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "seconds": args.seconds,
                  "env": env, "result": result}
        with open(args.out, "a") as stream:
            stream.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
