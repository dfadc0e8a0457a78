"""The benchmark's own checks: closed forms, and one wrong value per workload.

    python3 -m pytest perfbench/test_checks.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

cli = worker.import_program()


def test_closed_forms():
    tc, qc = workloads.CORPUS["twisted_cubic"], workloads.CORPUS["quadric_cone"]
    assert [tc.h(d) for d in range(10)] == [3 * d + 1 for d in range(10)]
    assert [qc.h(d) for d in range(10)] == [(d + 1) ** 2 for d in range(10)]
    assert [workloads.CORPUS["ci_x3_y3"].h(d) for d in range(7)] == [1, 2, 3, 2, 1, 0, 0]
    assert [workloads.CORPUS["max_sq_n3"].h(d) for d in range(4)] == [1, 3, 0, 0]
    # t_1 = h_m(S/I_Y) and the alternating sums of Betti_Gamma
    assert workloads.strands(tc, 4) == [13, 36, 33, 10]
    assert workloads.strands(tc, 4)[0] == tc.h(4)


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.METRICS


def corrupt_verify(out):
    doc = json.loads(out)
    doc["report"]["strand_multiplicities"][0] += 1  # t_1 off by one
    return json.dumps(doc)


def corrupt_cone(out):
    doc = json.loads(out)
    doc["report"]["dim_C"] += 1
    return json.dumps(doc)


def corrupt_betti(out):
    assert "    2: 3 2" in out
    return out.replace("    2: 3 2", "    2: 3 3")  # beta_{1,3} changed


class CorruptingCli:
    """cli.run with its stdout passed through `corrupt`."""

    def __init__(self, corrupt):
        self.corrupt = corrupt

    def run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.run(argv)
        sys.stdout.write(self.corrupt(buf.getvalue()))
        return rc


CASES = [
    ("truncation", "verify-prop31 ci_x2_y2 --m 5", corrupt_verify),
    ("cone_curve", "cone-curve quadric_cone --m 4", corrupt_cone),
    ("oracle", "oracle betti twisted_cubic --max-step", corrupt_betti),
]


@pytest.mark.parametrize("workload,prefix,corrupt", CASES)
def test_one_wrong_value_fails_one_operation(tmp_path, workload, prefix, corrupt):
    files, ops = workloads.build(workload, 1)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    op = next(o for o in ops if " ".join(o["argv"]).startswith(prefix))
    _, _, clean = worker.run_rounds(cli, [op], tmp_path, 0)
    assert worker.check_outputs(clean)[:2] == (0, 0)
    _, _, outputs = worker.run_rounds(CorruptingCli(corrupt), [op], tmp_path, 0)
    failed, wrong, failures = worker.check_outputs(outputs)
    assert (failed, wrong) == (1, 1), failures
