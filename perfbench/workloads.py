"""Workload inputs, operation lists and independent output checks.

Nothing here imports hfstrata: the inputs are ideal-file texts and CLI
argument lists, and every expected value comes from a closed form
(Hilbert series numerators, Koszul and Eagon-Northcott Betti tables,
normal-bundle tangent dimensions).  Only the optional `reference`
argument of `check_operation` calls back into the program.
"""

import json
import random
import re
from itertools import combinations, combinations_with_replacement
from math import comb

P = 32003
WORKLOADS = ("truncation", "cone_curve", "oracle")


# ---------------------------------------------------------------------------
# polynomials in t as coefficient lists
# ---------------------------------------------------------------------------


def pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def one_minus_t(k):
    """1 - t^k."""
    return [1] + [0] * (k - 1) + [-1]


def one_minus_t_pow(n):
    """(1 - t)^n."""
    out = [1]
    for _ in range(n):
        out = pmul(out, [1, -1])
    return out


def trim(a):
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def hilbert_value(numerator, n, d):
    """Coefficient of t^d in numerator / (1-t)^n."""
    return sum(c * comb(n - 1 + d - k, n - 1) for k, c in enumerate(numerator) if k <= d)


def dim_s(n, d):
    return comb(n - 1 + d, n - 1) if d >= 0 else 0


# ---------------------------------------------------------------------------
# ideals with their closed forms
# ---------------------------------------------------------------------------


class Spec:
    """An ideal file plus the invariants the paper's closed forms give.

    numerator: HS(S/I) = numerator / (1-t)^n
    betti:     {(i, j): beta_ij} of the ideal (index 0 = generators)
    tangent:   dim Hom_S(I, S/I)_0
    """

    def __init__(self, names, gens, numerator, betti, tangent):
        self.names = names
        self.gens = gens
        self.n = len(names)
        self.numerator = trim(numerator)
        self.betti = {k: v for k, v in betti.items() if v}
        self.tangent = tangent

    def h(self, d):
        return hilbert_value(self.numerator, self.n, d)

    def reg(self):
        return max((j - i for i, j in self.betti), default=0)

    def gen_degrees(self):
        """Degrees of the generators as written (not necessarily minimal)."""
        return [min(form_degrees(g)) for g in self.gens]

    def text(self):
        body = "".join(g + "\n" for g in self.gens)
        return f"field {P}\nvars {' '.join(self.names)}\norder grevlex\nideal:\n{body}"


def monomials(n, d):
    for combo in combinations_with_replacement(range(n), d):
        exps = [0] * n
        for i in combo:
            exps[i] += 1
        yield tuple(exps)


def monomial_text(names, exps):
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e)


def complete_intersection(names, gens, degrees):
    """A complete intersection: Koszul Betti table, HS prod(1-t^d), and
    tangent dimension sum_j h(d_j) (I/I^2 is free over S/I)."""
    numerator = [1]
    for d in degrees:
        numerator = pmul(numerator, one_minus_t(d))
    betti = {}
    for i in range(len(degrees)):
        for subset in combinations(degrees, i + 1):
            betti[(i, sum(subset))] = betti.get((i, sum(subset)), 0) + 1
    spec = Spec(names, gens, numerator, betti, 0)
    spec.tangent = sum(spec.h(d) for d in degrees)
    return spec


def max_ideal_power(names, k):
    """(x_1..x_n)^k: linear Eagon-Northcott resolution, no tangent vectors."""
    n = len(names)
    gens = [monomial_text(names, e) for e in monomials(n, k)]
    numerator = pmul([dim_s(n, d) for d in range(k)], one_minus_t_pow(n))
    betti = {(i, k + i): comb(n + k - 1, k + i) * comb(k + i - 1, i) for i in range(n)}
    return Spec(names, gens, numerator, betti, 0)


XY = ("x", "y")
XYZ = ("x", "y", "z")
XYZW = ("x", "y", "z", "w")

# The acceptance corpus of tests/conftest.py.
CORPUS = {
    # HS = (1+2t)/(1-t)^2, i.e. h(d) = 3d + 1; Hilbert scheme component of dim 12
    "twisted_cubic": Spec(
        XYZW, ["x*z - y^2", "x*w - y*z", "y*w - z^2"],
        pmul([1, 2], one_minus_t_pow(2)), {(0, 2): 3, (1, 3): 2}, 12,
    ),
    # HS = (1+t)/(1-t)^3, i.e. h(d) = (d+1)^2
    "quadric_cone": complete_intersection(XYZW, ["x*w - y*z"], [2]),
    "ci_x2_y2": complete_intersection(XY, ["x^2", "y^2"], [2, 2]),
    "ci_x3_y3": complete_intersection(XY, ["x^3", "y^3"], [3, 3]),
    "max_ideal_n2": max_ideal_power(XY, 1),
    "max_ideal_n3": max_ideal_power(XYZ, 1),
    "max_sq_n2": max_ideal_power(XY, 2),
    "max_sq_n3": max_ideal_power(XYZ, 2),
    "zero_n2": Spec(XY, [], [1], {}, 0),
}
SURFACES = {
    "quadric_cone": CORPUS["quadric_cone"],
    "fermat_cubic": complete_intersection(XYZW, ["x^3 + y^3 + z^3 + w^3"], [3]),
}


def truncation(spec, m):
    """I_Y + m^m: HS = sum_{d<m} h_Y(d) t^d, Betti_Y plus one strand
    t_{i+1} at (i, m+i) read off the alternating sums, same tangent space."""
    numerator = pmul([spec.h(d) for d in range(m)], one_minus_t_pow(spec.n))
    betti = dict(spec.betti)
    for i, t in enumerate(strands(spec, m)):
        betti[(i, m + i)] = betti.get((i, m + i), 0) + t
    gens = spec.gens + [monomial_text(spec.names, e) for e in monomials(spec.n, m)]
    return Spec(spec.names, gens, numerator, betti, spec.tangent)


def strands(spec, m):
    """[t_1, .., t_n]: (-1)^i t_{i+1} is the coefficient of t^{m+i} in
    (1 - numerator of the truncation) minus the alternating Betti sum of Y."""
    gamma_num = pmul([spec.h(d) for d in range(m)], one_minus_t_pow(spec.n))
    out = []
    for i in range(spec.n):
        j = m + i
        alt_gamma = -(gamma_num[j] if j < len(gamma_num) else 0)
        alt_y = sum((-1) ** a * b for (a, jj), b in spec.betti.items() if jj == j)
        out.append((-1) ** i * (alt_gamma - alt_y))
    return out


def random_form(rng, names, m):
    """A dense degree-m form with nonzero coefficients in F_P."""
    return " + ".join(
        f"{rng.randrange(1, P)}*{monomial_text(names, e)}" for e in monomials(len(names), m)
    )


def cone_curve_spec(surface, m, rng):
    """I_X + (g1, g2) for dense random g1, g2 of degree m: generically a
    complete intersection of degrees (e, m, m)."""
    degrees = surface.gen_degrees() + [m, m]
    gens = surface.gens + [random_form(rng, surface.names, m) for _ in range(2)]
    return complete_intersection(surface.names, gens, degrees)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


# cone_curve and oracle keep each operation near a second or less, so
# that a 20 s run repeats it several times (wall_s takes each one's
# median over the rounds; see README.md)
CONE_M = {"quadric_cone": (4, 5, 6), "fermat_cubic": (5, 6)}
ORACLE_MODES = ("hilb", "syz", "tangent", "betti")


def build(workload, seed):
    """(files, operations): files maps a file name to its text; each
    operation is a dict with the CLI argv, the input file name in it
    (relative to the input directory) and what its output must satisfy."""
    rng = random.Random(seed)
    files, ops = {}, []
    if workload == "truncation":
        for name, spec in CORPUS.items():
            files[name] = spec.text()
            for m in (spec.reg() + 2, spec.reg() + 3):
                argv = ["verify-prop31", name, "--m", str(m)]
                ops.append({"kind": "verify", "argv": argv, "file": name, "spec": spec, "m": m})
    elif workload == "cone_curve":
        for name, ms in CONE_M.items():
            files[name] = SURFACES[name].text()
            for m in ms:
                form_seed = rng.randrange(1, 2**31)
                argv = ["cone-curve", name, "--m", str(m), "--seed", str(form_seed)]
                ops.append({"kind": "cone", "argv": argv, "file": name,
                            "spec": SURFACES[name], "m": m, "seed": form_seed})
    elif workload == "oracle":
        # (name, spec, modes, cross-check with the engine): the engine
        # resolves the dense cone curves far more slowly than the oracle,
        # so those rely on their closed forms alone
        tc4 = truncation(CORPUS["twisted_cubic"], 4)
        qc4t = truncation(CORPUS["quadric_cone"], 4)
        qc4 = cone_curve_spec(SURFACES["quadric_cone"], 4, rng)
        fc5 = cone_curve_spec(SURFACES["fermat_cubic"], 5, rng)
        inputs = [(name, spec, ORACLE_MODES, True) for name, spec in CORPUS.items()] + [
            ("twisted_cubic_trunc4", tc4, ("hilb", "betti"), True),
            ("quadric_cone_trunc4", qc4t, ("hilb", "tangent"), True),
            ("quadric_cone_curve4", qc4, ORACLE_MODES, False),
            ("fermat_cubic_curve5", fc5, ("hilb", "syz", "tangent"), False),
        ]
        for name, spec, modes, engine in inputs:
            files[name] = spec.text()
            # syzygies and tangent conditions must reach the top first-syzygy degree
            bound = max([8] + [j for (i, j) in spec.betti if i == 1])
            top = max([8] + [j for (i, j) in spec.betti])
            options = {
                "hilb": ["--up-to", str(bound)],
                "syz": ["--bound", str(bound)],
                "tangent": ["--bound", str(bound)],
                "betti": ["--max-step", str(spec.n + 2), "--bound", str(top)],
            }
            for mode in modes:
                argv = ["oracle", mode, name] + options[mode]
                ops.append({"kind": "oracle-" + mode, "argv": argv, "file": name,
                            "spec": spec, "bound": bound, "engine": engine})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files, ops


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def betti_from_json(rows):
    return {(r["i"], r["j"]): r["beta"] for r in rows}


def parse_betti_render(text):
    """Entries of a Macaulay-style Betti table as printed by `oracle betti`."""
    lines = text.strip().splitlines()
    if lines == ["(empty Betti table)"]:
        return {}
    entries = {}
    for line in lines[2:]:
        label, cells = line.split(":")
        for i, cell in enumerate(cells.split()):
            if cell != ".":
                entries[(i, int(label) + i)] = int(cell)
    return entries


TERM = re.compile(r"^(\d+\*)?([a-z]\w*(\^\d+)?(\*[a-z]\w*(\^\d+)?)*)$")


def form_degrees(text):
    """Total degrees of the terms of a printed form."""
    degrees = set()
    for term in re.split(r" [+-] ", text.lstrip("-")):
        match = TERM.match(term)
        if not match:
            return {None}
        degrees.add(sum(int(f.split("^")[1]) if "^" in f else 1
                        for f in match.group(2).split("*")))
    return degrees


def check_operation(op, rc, out, reference=None):
    """List of failed checks (empty when the output is right).

    `reference`, when given, computes the same invariants by a second
    path in the program: `hilbert(text, up_to)` by dense elimination
    (the oracle) and `engine(text, up_to)` as (h list, Betti dict,
    tangent dim) by the Groebner engine.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    spec, kind = op["spec"], op["kind"]
    bad = []

    def expect(label, got, want):
        if got != want:
            bad.append(f"{label}: got {got!r}, expected {want!r}")

    try:
        if kind == "verify":
            m = op["m"]
            rep = json.loads(out)["report"]
            expect("all_ok", rep["all_ok"], True)
            expect("hilbert_ok", rep["hilbert_ok"], True)
            expect("reg", rep["reg"], spec.reg())
            expect("t1 = h_m(S/I_Y)", rep["strand_multiplicities"][0], spec.h(m))
            expect("t1_expected", rep["t1_expected"], spec.h(m))
            expect("strands", rep["strand_multiplicities"], strands(spec, m))
            expect("Betti_Y", betti_from_json(rep["betti_Y"]), spec.betti)
            # strands only at (i, m+i), alternating sums = numerator of the truncation
            expect("Betti_Gamma", betti_from_json(rep["betti_Gamma"]), truncation(spec, m).betti)
            comparison = rep["comparison"]
            expect("tangent_dim_Y", comparison["tangent_dim_Y"], spec.tangent)
            expect("tangent_dim_Gamma", comparison["tangent_dim_Gamma"], spec.tangent)
            expect("obstruction_kernel_dim", comparison["obstruction_kernel_dim"], 0)
        elif kind == "cone":
            m = op["m"]
            doc = json.loads(out)
            rep, forms = doc["report"], doc["added_forms"]
            curve = complete_intersection(spec.names, spec.gens + forms,
                                          spec.gen_degrees() + [m, m])
            dim_x = spec.n - len(spec.gens)  # X is a hypersurface
            expect("all_ok", rep["all_ok"], True)
            expect("seed", rep["seed"], op["seed"])
            expect("degrees", rep["degrees"], [m, m])
            expect("dim_X", rep["dim_X"], dim_x)
            expect("dim_C = dim_X - 2", rep["dim_C"], dim_x - 2)
            expect("added form degrees", [form_degrees(f) for f in forms], [{m}, {m}])
            if reference is not None:
                # HS numerator (1-t^e)(1-t^m)^2, through the t^(m+e) term
                top = m + max(spec.gen_degrees()) + 1
                expect("h(S/I_C)", reference.hilbert(curve.text(), top),
                       [curve.h(d) for d in range(top + 1)])
        elif kind == "oracle-hilb":
            got = [int(v) for v in out.split()]
            expect("h", got, [spec.h(d) for d in range(op["bound"] + 1)])
        elif kind == "oracle-syz":
            got = {int(e): int(c) for e, c in (line.split() for line in out.splitlines())}
            degs = spec.gen_degrees()
            want = {
                e: sum(dim_s(spec.n, e - d) for d in degs) - dim_s(spec.n, e) + spec.h(e)
                for e in range(min(degs, default=op["bound"] + 1), op["bound"] + 1)
            }
            expect("syzygies per degree", got, want)
        elif kind == "oracle-tangent":
            expect("tangent", int(out), spec.tangent)
        elif kind == "oracle-betti":
            expect("betti", parse_betti_render(out), spec.betti)
        if kind.startswith("oracle-") and op["engine"] and reference is not None:
            hilb, betti, tangent = reference.engine(spec.text(), op["bound"])
            expect("engine h", hilb, [spec.h(d) for d in range(op["bound"] + 1)])
            expect("engine betti", betti, spec.betti)
            expect("engine tangent", tangent, spec.tangent)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        bad.append(f"unreadable output: {exc!r}")
    return bad
