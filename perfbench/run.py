"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload table --seed 20260825 --seconds 25 --trace 0

Imports ``diracbound`` from ``src/`` next to this directory, builds the
workload's inputs from the seed, calls the library item by item for
``--seconds`` seconds in this one process and checks every result. Lines
starting with ``#`` describe the run; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. Each pass over the inputs after the first runs on a freshly
imported library, so no input is solved twice by one library state.

A traced run measures untraced for half the time, then runs the same items
again, on a fresh library, with the tracer installed; the ratio of the two
is the tracing overhead. Its spans are written to
``perfbench/out/spans-<workload>.npz``.
"""

from __future__ import annotations

import os

# Pin the BLAS and OpenMP pools before numpy loads: the OpenBLAS build
# allows 64 threads and would oversubscribe a small machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from gauge import REFERENCE_S, Gauge  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("channels", "potentials", "coulomb", "radial", "envelope", "comparison", "table1")
DEFAULT_SEED = 20260825  # the acceptance tests' seed
# set-up is short (a fresh import of the package plus input generation), so
# it is repeated and the median reported; the first repeat also pays for
# importing scipy and is left out
SETUP_REPEATS = 16
PROBE_REPEATS = 5
TRACE_ROUNDS = 4


def load_library() -> SimpleNamespace:
    """Fresh import of every diracbound module from src/."""
    for name in [m for m in sys.modules if m == "diracbound" or m.startswith("diracbound.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("diracbound")
    where = Path(pkg.__file__).resolve().parent
    if where != (SRC / "diracbound").resolve():
        raise ImportError(f"diracbound imported from {where}, not from {SRC}")
    return SimpleNamespace(
        **{name: importlib.import_module(f"diracbound.{name}") for name in MODULES}
    )


def setup(workload, seed: int):
    """Import plus input generation, repeated with a speed-gauge mark after
    each repeat; returns the last library and inputs and the median gauged
    time of the repeats after the first."""
    gauge = Gauge()
    gauge.mark(0)
    times = []
    for done in range(1, SETUP_REPEATS + 1):
        t0 = perf_counter()
        lib = load_library()
        items = workload.inputs(lib, seed)
        times.append(perf_counter() - t0)
        gauge.mark(done)
    scaled = np.array(times) * gauge.scales(SETUP_REPEATS)
    return lib, items, float(np.median(scaled[1:]))


def fresh(workload, seed: int, tracer=None):
    """Re-import the library and rebuild the inputs, so that no state the
    library keeps between calls (a cache, say) carries over: a pass over
    the inputs starts like a new process. A tracer is moved over to the new
    modules. Not timed."""
    if tracer is not None:
        tracer.uninstall()
    lib = load_library()
    items = workload.inputs(lib, seed)
    if tracer is not None:
        tracer.install(lib)
    # collect the old modules now rather than inside a timed call
    gc.collect()
    return lib, items


def _attempt(lib, workload, item) -> tuple[float, str | None]:
    """Time one library call, then check its result; returns the call time
    and why the item failed, or None. A call or check that raises is a
    failed item: the run goes on measuring."""
    t0 = perf_counter()
    try:
        result = workload.call(lib, item)
    except Exception:
        return perf_counter() - t0, traceback.format_exc(limit=1).splitlines()[-1]
    elapsed = perf_counter() - t0
    try:
        ok = workload.check(item, result)
    except Exception:
        return elapsed, "check raised " + traceback.format_exc(limit=1).splitlines()[-1]
    return elapsed, None if ok else "check failed"


def run_items(lib, workload, items, seed, *, seconds=None, count=None, first=0, tracer=None):
    """Call and check items in order, from item ``first`` on, until the time
    or the count is used up. Each later pass over the inputs runs on a
    fresh library (see :func:`fresh`), so no item meets a second time the
    library state it left behind.

    Returns per-item call times in seconds, each item's speed-gauge scale
    (multiply the two for reference-speed seconds), the gauge, and a Counter
    of failed item labels. Only the library call is timed; the check and
    the gauge run between calls."""
    times: list[float] = []
    failures: Counter[str] = Counter()
    gauge = Gauge()
    gauge.mark(0)
    begin = perf_counter()
    i = first
    while True:
        if i % len(items) == 0 and i != first:
            lib, items = fresh(workload, seed, tracer)
        item = items[i % len(items)]
        if tracer is not None:
            tracer.item_id = i
        seconds_taken, error = _attempt(lib, workload, item)
        times.append(seconds_taken)
        if error is not None:
            failures[f"{item.label}: {error}"] += 1
        i += 1
        if gauge.due():
            gauge.mark(len(times))
        if count is not None:
            if len(times) >= count:
                break
        elif perf_counter() - begin >= seconds:
            break
    if gauge.marks[-1][0] != len(times):
        gauge.mark(len(times))
    return np.array(times), gauge.scales(len(times)), gauge, failures


def known_defects(workload, seed: int) -> list[str]:
    """Call and check, once and untimed on a fresh library, the items left
    out of the workload because the library is known to fail them; one
    line per item saying whether it still fails. They do not count towards
    the result."""
    if workload.known_defects is None:
        return []
    lib = load_library()
    lines = []
    for item in workload.known_defects(lib, seed):
        _, error = _attempt(lib, workload, item)
        state = f"still fails ({error})" if error else "now passes"
        lines.append(f"known defect, left out of the inputs, {state}: {item.label}")
    return lines


def probes(lib) -> tuple[dict[str, float], int]:
    """Fixed single-call timings of the two public sweep entry points."""
    pot = lib.potentials.ScreenedCoulomb.from_charge(80)
    ch = lib.channels.parse_state_label("1s_1/2")
    grid = lib.radial.build_grid(0.25)
    calls = {
        "integrate_radial": lambda: lib.radial.integrate_radial(pot, ch, 0.9, grid),
        "matching_mismatch": lambda: lib.radial.matching_mismatch(pot, ch, 0.9, grid),
    }
    gauge = Gauge()
    gauge.mark(0)
    medians = {}
    for name, call in calls.items():
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = perf_counter()
            call()
            times.append(perf_counter() - t0)
        medians[name] = statistics.median(times)
    gauge.mark(1)
    scale = gauge.scales(1)[0]
    out = {f"radial.{name}.probe_ms": 1e3 * t * scale for name, t in medians.items()}
    return out, grid.count


def environment() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def tail_level(n: int) -> float:
    """p90 when at least ten items lie beyond it, else the median.

    Levels above p90 are not used: on a shared machine the top percent of
    even 2 ms items is set by scheduler stalls, not by the library."""
    return 0.9 if n >= 100 else 0.5


def quantile(x: np.ndarray, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of all order
    statistics, weighted by the Beta((n+1)q, (n+1)(1-q)) mass of each
    one's slot. The radial workloads finish only 10-25 items of two cost
    clusters per run, and a single order statistic jumps between the
    clusters from run to run; this estimate moves smoothly. On thousands
    of items it agrees with the sample quantile."""
    from scipy.special import betainc

    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    weights = np.diff(betainc(a, b, np.linspace(0.0, 1.0, n + 1)))
    return float(weights @ np.sort(x))


def end_to_end(wall, scale, gauge, failures, setup_s) -> tuple[dict[str, float], str]:
    n = len(wall)
    times = wall * scale
    level = tail_level(n)
    metrics = {
        "items_per_s": n / times.sum(),
        "item_p50_s": quantile(times, 0.5),
        "item_tail_s": quantile(times, level),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": (n - sum(failures.values())) / n,
    }
    note = (
        f"item_tail_s is p{100 * level:g} of {n} items; wall clock: items_per_s "
        f"{n / wall.sum():.6g}, item_p50_s {np.median(wall):.6g}; gauge kernel median "
        f"{1e3 * gauge.kernel_median():.4g} ms against {1e3 * REFERENCE_S:g} ms"
    )
    return metrics, note


def traced(workload, seed, seconds, name) -> tuple[dict[str, float], int, Counter, str]:
    """Untraced and traced passes over the same items, in alternating rounds
    so that drift in machine speed falls on both sides alike. Each round
    starts on a fresh library, so the traced re-run gains nothing from the
    untraced run before it."""
    tracer = Tracer()
    base, again, scales = 0.0, 0.0, []
    failures: Counter[str] = Counter()
    for _ in range(TRACE_ROUNDS):
        first = sum(len(s) for s in scales)
        lib, items = fresh(workload, seed)
        wall, scale, _, f = run_items(
            lib, workload, items, seed, seconds=seconds / (2 * TRACE_ROUNDS), first=first
        )
        lib, items = fresh(workload, seed)
        tracer.install(lib)
        try:
            wall_t, scale_t, _, f_t = run_items(
                lib, workload, items, seed, count=len(wall), first=first, tracer=tracer
            )
        finally:
            tracer.uninstall()
        base += float(wall @ scale)
        again += float(wall_t @ scale_t)
        scales.append(scale_t)
        failures += f + f_t
    item_scale = np.concatenate(scales)
    spans = tracer.arrays()
    metrics = tracer.layer_metrics(spans, item_scale)
    metrics["trace.overhead_frac"] = again / base - 1.0
    probe, points = probes(load_library())
    metrics.update(probe)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{name}.npz"
    np.savez(path, item_scale=item_scale, **spans)
    note = (
        f"traced {len(item_scale)} items, each also run untraced; probe grid "
        f"{points} points; {len(spans['start'])} spans written to {path.relative_to(ROOT)}"
    )
    return metrics, 2 * len(item_scale), failures, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        config = json.loads((ROOT / "BENCHMARK.json").read_text())
        workload = WORKLOADS[args.workload]
        lib, items, setup_s = setup(workload, args.seed)
    except (OSError, ValueError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2

    print("# env " + json.dumps(environment()))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        values, attempted, failures, note = traced(
            workload, args.seed, args.seconds, args.workload
        )
        wanted = config["per_layer"]
    else:
        wall, scale, gauge, failures = run_items(
            lib, workload, items, args.seed, seconds=args.seconds
        )
        values, note = end_to_end(wall, scale, gauge, failures, setup_s)
        attempted = len(wall)
        wanted = config["end_to_end"]
    print(f"# {note}")
    for line in known_defects(workload, args.seed):
        print(f"# {line}")
    failed = sum(failures.values())
    print(f"# attempted {attempted}, failed {failed} (failed_frac {failed / attempted:.6g})")
    for label, count in sorted(failures.items()):
        print(f"# failed x{count}: {label}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"# {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
