"""One workload in one fresh process: write the inputs, run whole rounds
of CLI invocations through `hfstrata.cli.run`, then check every output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --trace 0|1 --dir DIR [--setup-only]

Prints one JSON object on its last stdout line: each operation's wall
and reference times (speed.py) in every round, peak RSS, the per-round
trace, and the check results.  The timed region is the loop of
`cli.run` calls, without the pauses in which speed.py samples the
host's speed; peak RSS and the trace are read before the checks run,
so neither includes checking work.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from speed import SpeedSampler

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_program():
    """Import hfstrata from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import hfstrata.cli
    import hfstrata.oracle  # noqa: F401  (bound by the tracer)

    if Path(hfstrata.__file__).resolve().parent != SRC / "hfstrata":
        raise SystemExit(f"hfstrata imported from {hfstrata.__file__}, not {SRC}")
    return hfstrata.cli


def run_rounds(cli, ops, workdir, seconds, tracer=None, clock=time.perf_counter):
    """Whole rounds of ops until `seconds` of wall time have passed (at
    least one round).

    Returns (spans, traces, outputs): spans[k] lists the (start, end)
    `clock()` of op k in each round, traces the per-round trace
    snapshots, and outputs every op's (op, rc, stdout, stderr) in every
    round.
    """
    spans, traces, outputs = [[] for _ in ops], [], []
    start = time.perf_counter()
    while not traces or time.perf_counter() - start < seconds:
        if tracer:
            tracer.reset()
        for k, op in enumerate(ops):
            argv = [str(workdir / a) if a == op["file"] else a for a in op["argv"]]
            out, err = io.StringIO(), io.StringIO()
            t0 = clock()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(argv)
            spans[k].append((t0, clock()))
            outputs.append((op, rc, out.getvalue(), err.getvalue()))
        traces.append(tracer.snapshot() if tracer else None)
    return spans, traces, outputs


class Reference:
    """Second paths through the program for `workloads.check_operation`."""

    def __init__(self):
        from hfstrata import cli, deform, invariants, oracle

        self._cli, self._deform, self._inv, self._oracle = cli, deform, invariants, oracle
        self._cache = {}

    def _ideal(self, text):
        return self._cli.parse_ideal_file(text)[1]

    def hilbert(self, text, up_to):
        key = ("hilbert", text, up_to)
        if key not in self._cache:
            ideal = self._ideal(text)
            self._cache[key] = [self._oracle.hf_bruteforce(ideal, d) for d in range(up_to + 1)]
        return self._cache[key]

    def engine(self, text, up_to):
        key = ("engine", text, up_to)
        if key not in self._cache:
            ideal = self._ideal(text)
            self._cache[key] = (
                [self._inv.hilbert_function(ideal, d) for d in range(up_to + 1)],
                dict(self._inv.betti_table(ideal).entries),
                self._deform.tangent_space(ideal).dimension,
            )
        return self._cache[key]


def check_outputs(outputs):
    """(failed, wrong, failures): failed counts every operation that exited
    non-zero or whose output fails a check; wrong counts the latter."""
    reference = Reference()
    failures = []
    failed = wrong = 0
    for op, rc, out, err in outputs:
        problems = workloads.check_operation(op, rc, out, reference)
        if problems:
            failed += 1
            wrong += rc == 0
            failures.append({"argv": op["argv"], "problems": problems[:5], "stderr": err[-500:]})
    return failed, wrong, failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli = import_program()
    workdir = Path(args.dir)
    files, ops = workloads.build(args.workload, args.seed)
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    if args.setup_only:
        return

    tracer = None
    with SpeedSampler() as speed:
        if args.trace:
            import layers

            tracer = layers.Tracer(speed.clock)
            tracer.install()
        spans, traces, outputs = run_rounds(cli, ops, workdir, args.seconds, tracer, speed.clock)
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, wrong, failures = check_outputs(outputs)
    print(json.dumps({
        "op_s": [[t1 - t0 for t0, t1 in s] for s in spans],
        "op_ref_s": [[speed.ref_seconds(t0, t1) for t0, t1 in s] for s in spans],
        "attempted": len(outputs),
        "failed": failed,
        "wrong": wrong,
        "failures": failures[:20],
        "peak_rss_mb": peak_rss_mb,
        "trace": traces,
    }))


if __name__ == "__main__":
    main()
