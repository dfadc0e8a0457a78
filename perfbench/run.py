"""End-to-end benchmark of hfstrata's CLI: verify-prop31, cone-curve, oracle.

    python3 perfbench/run.py --workload truncation|cone_curve|oracle
                             --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
its src/ directory.  Set-up (interpreter start, `import hfstrata`,
writing the input files) is timed over several fresh processes; the
workload then runs in one more fresh process (worker.py).  With
--trace 0 the last stdout line reports wall_s, peak_rss_mb and setup_s;
with --trace 1 it reports the per-layer metrics of layers.py instead.
A copy of the full result goes to .perfbench_out/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 9


def round_s(op_s):
    """One round's time with each operation at its median over the rounds."""
    return sum(statistics.median(times) for times in op_s)


def worker(args, workdir, *extra, timeout):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", str(workdir), *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)


def time_setup(args):
    """Wall seconds of fresh processes that only set up."""
    walls = []
    for k in range(SETUP_SAMPLES + 1):  # the first one also compiles bytecode
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            t0 = time.perf_counter()
            proc = worker(args, workdir, "--setup-only", timeout=60)
            t1 = time.perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        if k:
            walls.append(t1 - t0)
    return walls


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "hfstrata" / "__init__.py").is_file():
        print(f"error: no hfstrata sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        setup_wall = time_setup(args)
        with tempfile.TemporaryDirectory(dir=OUT) as workdir:
            # the last round starts before `seconds` is up; a truncation round
            # takes 35-50 s, and a slow host can double that
            proc = worker(args, workdir, timeout=args.seconds + 130)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        import layers

        # self times are scaled like wall_s, by each round's reference/wall ratio
        scale = [sum(ref) / sum(wall) for ref, wall in
                 zip(zip(*result["op_ref_s"]), zip(*result["op_s"]))]
        metrics = {}
        for name, unit in layers.METRICS:
            values = [r[name] for r in result["trace"]]
            if unit == "ref_s":
                value = statistics.median(v * f for v, f in zip(values, scale))
            else:
                if len(set(values)) > 1:
                    print(f"note: {name} differs between rounds: {values}", file=sys.stderr)
                value = values[0]
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {
            "wall_s": {"value": round_s(result["op_ref_s"]), "unit": "ref_s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_wall), "unit": "s"},
        }
    for failure in result["failures"]:
        print(f"FAILED {' '.join(failure['argv'])}: {'; '.join(failure['problems'])}",
              file=sys.stderr)
    summary = {
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    detail = dict(summary, workload=args.workload, seed=args.seed, trace=args.trace,
                  op_s=result["op_s"], op_ref_s=result["op_ref_s"],
                  setup_s=setup_wall,
                  failures=result["failures"], trace_rounds=result["trace"])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{args.workload:>11} {name:<34} {m['value']:>14.6g} {m['unit']}")
    rounds = [sum(times) for times in zip(*result["op_s"])]
    print(f"{args.workload:>11} {'traced' if args.trace else 'untraced'}: {len(rounds)} rounds; "
          f"round wall time median {statistics.median(rounds):.3f} s; operation medians "
          f"{round_s(result['op_s']):.3f} s wall, {round_s(result['op_ref_s']):.3f} s "
          f"reference; set-up median {statistics.median(setup_wall):.3f} s; "
          f"operations {result['attempted']}, failed {result['failed']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
