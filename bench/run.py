"""metaprice benchmark: one command, three workloads, every metric with its unit.

    python3 bench/run.py --workload exante-sweep --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics and ``--trace 1`` the per-layer ones; see
``bench/README.md`` for the glossary.  Scratch files and per-run records go
to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# the keys of workloads.WORKLOADS, named here so that arguments are parsed and
# thread pools capped before numpy is imported
WORKLOAD_NAMES = ("exante-sweep", "blinded-cap", "center-sweep")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-up probes before and after the timed passes, so that the median
# samples the host at two moments of the run
SETUP_BEFORE, SETUP_AFTER = 3, 4
PROBE_TIMEOUT_S = 60
RUN_SECONDS = 35.0  # run_seconds in BENCHMARK.json
# an item's time in a run: this percentile of its times over the passes
ITEM_PERCENTILE = 80.0


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100] (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _caches() -> dict:
    """Per-level cache sizes of cpu0 as Linux reports them, e.g. ``{"L1d": "48K"}``."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        out["L" + level + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return out


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _blas() -> dict:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: deps[k].get("name", "?") + " " + str(deps[k].get("version", "?")) for k in ("blas", "lapack")}
    except (TypeError, KeyError, AttributeError):
        return {}


def provenance(args, nproc: int) -> dict:
    import numpy as np
    import scipy
    from workloads import DEFAULT_BINS, DEFAULT_SUBSAMPLES
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_cap": {var: os.environ[var] for var in THREAD_VARS},
        "cpu_model": _cpu_model(),
        "nproc": nproc,
        "caches": _caches(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "bins": DEFAULT_BINS,
        "subsamples": DEFAULT_SUBSAMPLES,
    }


def _workload(args, workdir: Path):
    from workloads import WORKLOADS
    return WORKLOADS[args.workload](args.seed, workdir)


def probe_setup(args) -> int:
    """Child process: set the workload up and print the monotonic clock.

    The monotonic clock is system-wide on Linux, so the parent can subtract
    its own reading taken before the spawn.
    """
    _workload(args, OUT / args.workload / "probe").setup()
    print(repr(time.monotonic()))
    return 0


def measure_setup(args, repeats: int) -> list[float]:
    """Fresh process to first solve's inputs ready, ``repeats`` times."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(repeats):
        start = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-400:]}")
        times.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return times


class Tally:
    """Per-pass and per-item figures, kept instead of the items.

    Holding every item of every pass would make the process's peak memory,
    itself a metric, grow with the number of passes; a float per item and
    pass does not move it measurably.
    """

    def __init__(self) -> None:
        self.kinds: list[str] = []
        self.walls: list[float] = []
        # untraced passes only, by item name: seconds, and ms per round
        self.seconds: dict[str, list[float]] = {}
        self.round_ms: dict[str, list[float]] = {}
        self.solves: list[str] = []
        self.layer: list[dict] = []
        self.attempted = 0
        self.failed: list[dict] = []
        self.raised = False
        self.notes: dict = {}

    def add(self, kind: str, items, layer: dict | None = None) -> None:
        if not self.kinds:
            self.notes = {i.name: i.notes for i in items if i.notes}
        self.kinds.append(kind)
        self.walls.append(sum(i.seconds for i in items))
        self.attempted += len(items)
        self.failed += [{"item": i.name, "why": i.failures} for i in items if i.failures]
        self.raised = self.raised or any(i.kind == "error" for i in items)
        if layer is not None:
            self.layer.append(layer)
        if kind != "plain":
            return
        for i in items:
            if i.kind == "error":
                continue
            if i.name not in self.seconds:
                self.seconds[i.name] = []
                if i.kind == "solve":
                    self.solves.append(i.name)
            self.seconds[i.name].append(i.seconds)
            if i.round_ms is not None:
                self.round_ms.setdefault(i.name, []).append(i.round_ms)

    def walls_of(self, kind: str) -> list[float]:
        return [w for k, w in zip(self.kinds, self.walls) if k == kind]


def run_passes(workload, seconds: float, tracer=None) -> Tally:
    """Whole passes until the next one would take the timed total past ``seconds``.

    With a tracer, passes alternate untraced and traced, so the run yields
    the tracing overhead as well as the per-layer figures.  A pass that
    raised ends the run as soon as the passes the metrics need are done: the
    run is incorrect already, and a pass that fails at once would otherwise
    repeat without end.  There is no warm-up pass: on the reference machine
    the first pass ran within 2 % of the next three.
    """
    from spans import layer_metrics, write_spans
    from workloads import guarded_pass
    tally, spent = Tally(), 0.0
    workload.timer.install()  # before the tracer, so a traced pass wraps the timed call
    try:
        while True:
            index = len(tally.kinds)
            kind = "traced" if tracer is not None and index % 2 == 1 else "plain"
            traced = kind == "traced"
            workload.tracer = tracer if traced else None
            if traced:
                tracer.install()
            try:
                items = guarded_pass(workload, index)
            finally:
                if traced:
                    tracer.uninstall()
            wall = sum(i.seconds for i in items)
            layer = None
            if traced:
                spans, counts = tracer.take()
                if index == 1:
                    write_spans(spans, OUT / "results" / f"spans-{workload.name}-seed{workload.seed}.jsonl")
                layer = layer_metrics(spans, counts, wall)
            tally.add(kind, items, layer)
            spent += wall
            enough = {"traced", "plain"} <= set(tally.kinds) if tracer is not None else "plain" in tally.kinds
            if enough and (tally.raised or spent + wall > seconds):
                return tally
    finally:
        workload.timer.uninstall()


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else float("nan")


def _percentile(values: list[float], q: float) -> float:
    return percentile(values, q) if values else float("nan")


def end_to_end(tally: Tally, setup_times: list[float]) -> dict:
    """The user-visible figures over the measured untraced passes.

    Each item's time in the run is first taken as the ``ITEM_PERCENTILE``-th
    percentile of its times over the passes; the figures are sums, medians
    and percentiles of those times over the workload's items.  The
    reference machine runs in a usual speed and, for stretches of seconds
    to tens of seconds, up to 1.7 times faster.  Means and medians over
    passes follow the share of fast passes, which differs from run to run;
    an upper percentile stays at the usual speed.  Taken per item, it also
    drops an item's rare interrupted passes, which otherwise set the
    within-pass tail (on center-sweep the 10 slowest of 1000 solves) and
    make it swing by half between runs.
    """
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    typical = {name: percentile(times, ITEM_PERCENTILE) for name, times in tally.seconds.items()}
    solves = [1e3 * typical[name] for name in tally.solves]
    values = {
        "setup_s": (median(setup_times), "s"),
        "wall_s": (sum(typical.values()) if typical else float("nan"), "s"),
        "round_ms": (_percentile([percentile(v, ITEM_PERCENTILE) for v in tally.round_ms.values()], 50.0), "ms"),
        "solve_ms.p50": (_percentile(solves, 50.0), "ms"),
        "solve_ms.p99": (_percentile(solves, 99.0), "ms"),
        "rss_mb": (rss, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


LAYER_UNITS = {"ms": "ms", "calls": "count", "nfev": "count", "count": "count", "rounds": "count",
               "self_ms": "ms", "useful_ratio": "ratio", "round_frac": "ratio", "wall_frac": "ratio",
               "artifact_bytes": "bytes", "overhead_frac": "ratio"}


def per_layer(tally: Tally) -> dict:
    values = {name: _mean([p[name] for p in tally.layer]) for name in tally.layer[0]}
    values["trace.overhead_frac"] = _mean(tally.walls_of("traced")) / _mean(tally.walls_of("plain")) - 1.0
    return {k: {"value": v, "unit": LAYER_UNITS[k.rsplit(".", 1)[1]]} for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "metaprice" / "__init__.py").is_file():
        print(f"bench: no metaprice sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    if args.probe_setup:
        return probe_setup(args)

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    setup_times = [] if args.trace else measure_setup(args, SETUP_BEFORE)

    workload = _workload(args, workdir / "run")
    workload.setup()
    from spans import Tracer
    tracer = Tracer() if args.trace else None
    tally = run_passes(workload, args.seconds, tracer)
    if not args.trace:
        setup_times += measure_setup(args, SETUP_AFTER)

    metrics = per_layer(tally) if args.trace else end_to_end(tally, setup_times)
    record = {
        "provenance": provenance(args, nproc),
        "passes": tally.kinds,
        "pass_wall_s": tally.walls,
        "setup_s_samples": setup_times,
        "failed_frac": len(tally.failed) / tally.attempted,
        "failures": tally.failed[:50],
        "absent": tracer.absent if tracer else [],
        "notes": tally.notes,
        "metrics": metrics,
    }
    path = OUT / "results" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({k: record[k] for k in ("provenance", "failed_frac", "absent", "passes")}, sort_keys=True))
    print(json.dumps({"correct": not tally.failed, "attempted": tally.attempted,
                      "failed": len(tally.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
