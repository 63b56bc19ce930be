"""Run workloads through run.py, one process per run, and summarise them.

    python3 perfbench/report.py                  # every workload once, default seed
    python3 perfbench/report.py --seeds 10       # ten seeds each, with spreads
    python3 perfbench/report.py --trace 1        # per-layer metrics instead

Every workload of BENCHMARK.json runs for its ``run_seconds``. For each
workload and metric it prints the median over the runs with its unit; with
two or more runs it adds the spread, the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from BENCHMARK.json. Seeds are
``--first-seed``, ``--first-seed + 1``, and so on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED, HERE, ROOT


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1]), [line for line in lines[:-1] if line.startswith("#")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write all runs as JSON here")
    args = parser.parse_args(argv)
    spec = config["per_layer" if args.trace else "end_to_end"]

    summary = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in (w["name"] for w in config["workloads"]):
        runs = []
        for k in range(args.seeds):
            seed = args.first_seed + k
            result, notes = run_once(workload, seed, seconds, args.trace)
            summary.setdefault("env", notes[0].removeprefix("# env "))
            runs.append({"seed": seed, "result": result, "notes": notes})
            print(
                f"{workload} seed {seed}: attempted {result['attempted']}, "
                f"failed {result['failed']}, correct {result['correct']}",
                flush=True,
            )
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{workload}: failed_frac {failed}/{attempted} = {failed / attempted:.6g}")
        for m in spec:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            line = f"{workload:9s} {m['name']:42s} {statistics.median(values):12.6g} {m['unit']}"
            if len(values) >= 2 and "bound" in m:
                line += f"  spread {spread(values):.4f} (bound {m['bound']})"
            print(line, flush=True)
        summary["workloads"][workload] = runs
    print(f"env {summary.get('env')}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
