"""Per-layer counters and self times, by wrapping hfstrata from outside.

Each layer is one or more public functions.  `install()` replaces every
binding of those functions in the loaded hfstrata modules (a name taken
with `from .x import f` is bound in each importing module) by a wrapper
that counts calls and accumulates self time: the call's wall time minus
the wall time of the wrapped calls beneath it, on the clock given
(speed.py's, which leaves out its sampling pauses).  `ring` and `field`
work per term and are not wrapped; their cost lands in their callers.
"""

import sys
import time

# layer -> functions (module, name); several functions may share a layer
LAYERS = {
    "linalg.kernel": [("hfstrata.linalg", "rref_inplace")],
    "linalg.as_matrix": [("hfstrata.linalg", "as_matrix")],
    "invariants.nakayama": [("hfstrata.invariants", "minimal_generator_subset")],
    "invariants.resolution": [("hfstrata.invariants", "minimal_free_resolution")],
    "invariants.hilbert_series": [("hfstrata.invariants", "hilbert_series")],
    "groebner.gb": [("hfstrata.groebner", "buchberger_basis")],
    "groebner.syzygies": [("hfstrata.groebner", "vector_syzygies")],
    "groebner.divide": [("hfstrata.groebner", "divide")],
    "deform.tangent": [("hfstrata.deform", "tangent_space"), ("hfstrata.deform", "_solve_tangent")],
    "deform.ext1": [("hfstrata.deform", "ext1_space")],
    "deform.compare": [("hfstrata.deform", "compare_truncation")],
    "strata.verify": [("hfstrata.strata", "verify_prop31")],
    "strata.cone": [("hfstrata.strata", "cone_curve")],
    "strata.regseq": [("hfstrata.strata", "is_regular_sequence")],
    "oracle.hf": [("hfstrata.oracle", "hf_bruteforce")],
    "oracle.syz": [("hfstrata.oracle", "syzygies_bruteforce")],
    "oracle.tangent": [("hfstrata.oracle", "tangent_bruteforce")],
    "oracle.betti": [("hfstrata.oracle", "betti_bruteforce")],
    "cli.parse": [("hfstrata.cli", "parse_ideal_file")],
    "cli.run": [("hfstrata.cli", "run")],
}

# reported metrics: (name, unit); BENCHMARK.json's per_layer lists the same
# names (test_checks.py holds the two together)
METRICS = [
    ("linalg.kernel.calls", "count"),
    ("linalg.kernel.self_s", "ref_s"),
    ("linalg.kernel.cells", "count"),
    ("linalg.kernel.max_cells", "count"),
    ("linalg.kernel.work", "count"),
    ("linalg.as_matrix.self_s", "ref_s"),
    ("invariants.nakayama.calls", "count"),
    ("invariants.nakayama.self_s", "ref_s"),
    ("invariants.nakayama.kept_ratio", "ratio"),
    ("invariants.resolution.calls", "count"),
    ("invariants.resolution.computed", "count"),
    ("invariants.resolution.self_s", "ref_s"),
    ("invariants.hilbert_series.calls", "count"),
    ("invariants.hilbert_series.self_s", "ref_s"),
    ("groebner.gb.calls", "count"),
    ("groebner.gb.self_s", "ref_s"),
    ("groebner.syzygies.calls", "count"),
    ("groebner.syzygies.out", "count"),
    ("groebner.syzygies.self_s", "ref_s"),
    ("groebner.divide.calls", "count"),
    ("groebner.divide.self_s", "ref_s"),
    ("deform.tangent.self_s", "ref_s"),
    ("deform.ext1.calls", "count"),
    ("deform.ext1.self_s", "ref_s"),
    ("deform.compare.self_s", "ref_s"),
    ("strata.verify.self_s", "ref_s"),
    ("strata.cone.self_s", "ref_s"),
    ("strata.regseq.calls", "count"),
    ("oracle.hf.self_s", "ref_s"),
    ("oracle.syz.self_s", "ref_s"),
    ("oracle.tangent.self_s", "ref_s"),
    ("oracle.betti.self_s", "ref_s"),
    ("cli.parse.self_s", "ref_s"),
    ("cli.run.self_s", "ref_s"),
]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack = [0.0]
        self._restore = []
        self.reset()

    def reset(self):
        self.stats = {layer: dict.fromkeys(
            ("calls", "self_s", "cells", "max_cells", "work", "offered", "kept", "computed",
             "out"), 0) for layer in LAYERS}

    def _wrap(self, layer, fn):
        stack = self._stack
        clock = self._clock

        def wrapper(*args, **kwargs):
            cached = layer == "invariants.resolution" and args[0]._resolution is not None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stats = self.stats[layer]
                stats["calls"] += 1
                stats["self_s"] += elapsed - stack.pop()
                stack[-1] += elapsed
            if layer == "linalg.kernel":
                rows, cols = args[0].shape
                stats["cells"] += rows * cols
                stats["max_cells"] = max(stats["max_cells"], rows * cols)
                stats["work"] += result[0] * rows * cols  # rank x rows x cols
            elif layer == "invariants.nakayama":
                stats["offered"] += len(args[1])
                stats["kept"] += len(result[0])
            elif layer == "invariants.resolution":
                stats["computed"] += not cached
            elif layer == "groebner.syzygies":
                stats["out"] += len(result)
            return result

        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "hfstrata"]
        for layer, targets in LAYERS.items():
            for module, name in targets:
                original = getattr(sys.modules[module], name)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def snapshot(self):
        """The METRICS of everything traced since the last reset."""
        out = {}
        for name, _ in METRICS:
            layer, key = name.rsplit(".", 1)
            stats = self.stats[layer]
            if key == "kept_ratio":
                out[name] = stats["kept"] / stats["offered"] if stats["offered"] else 0.0
            else:
                out[name] = stats[key]
        return out
