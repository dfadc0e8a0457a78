"""The benchmark's per-layer tracer still finds every function it wraps.

perfbench/layers.py wraps hfstrata functions by module and name and reads
some of their arguments and results; a rename or a changed signature
would crash `perfbench/run.py --trace 1`.
"""

import contextlib
import io
import sys
from pathlib import Path

import hfstrata.cli
import hfstrata.oracle  # noqa: F401  (bound by the tracer)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import layers  # noqa: E402

from test_cli import TWISTED_CUBIC  # noqa: E402


def test_tracer_wraps_every_layer_and_sees_nakayama(tmp_path):
    path = tmp_path / "twisted_cubic.ideal"
    path.write_text(TWISTED_CUBIC)
    tracer = layers.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = hfstrata.cli.run(["verify-prop31", str(path), "--m", "5"])
    finally:
        tracer.uninstall()
    assert rc == 0
    stats = tracer.snapshot()
    assert stats["invariants.nakayama.calls"] > 0
    assert tracer.stats["cli.parse"]["calls"] > 0  # cli.parse.self_s times the parser
    assert stats["linalg.kernel.max_cells"] < 10**6
