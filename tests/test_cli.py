import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hfstrata.cli import format_ideal_file, parse_ideal_file, run
from hfstrata.errors import ParseError

TWISTED_CUBIC = """\
# twisted cubic over F_32003
field 32003
vars x y z w
ideal:
x*z - y^2
x*w - y*z
y*w - z^2
"""

ZERO_N2 = """\
field 32003
vars x y
ideal:
"""


@pytest.fixture
def tc_file(tmp_path):
    path = tmp_path / "twisted_cubic.ideal"
    path.write_text(TWISTED_CUBIC)
    return str(path)


@pytest.fixture
def zero_file(tmp_path):
    path = tmp_path / "zero.ideal"
    path.write_text(ZERO_N2)
    return str(path)


def test_parse_twisted_cubic():
    ring, ideal = parse_ideal_file(TWISTED_CUBIC)
    assert ring.names == ("x", "y", "z", "w")
    assert ring.field.p == 32003
    assert ring.order.kind == "grevlex"
    assert len(ideal.generators) == 3


def test_parse_inhomogeneous_reports_degrees():
    text = "field 7\nvars x y\nideal:\nx^2 + y\n"
    with pytest.raises(ParseError) as exc:
        parse_ideal_file(text)
    msg = str(exc.value)
    assert "generator 0" in msg and "2" in msg and "1" in msg
    assert exc.value.line == 4


def test_parse_non_prime_field():
    with pytest.raises(ParseError) as exc:
        parse_ideal_file("field 10\nvars x\nideal:\nx\n")
    assert "not prime" in str(exc.value)


def test_field_modulus_out_of_range(monkeypatch, capsys, tmp_path):
    """A prime above the 2^31 limit is out of range, not "not prime":
    through the `field` line and through HFSTRATA_FIELD, exit 2 either way."""
    big = 2147483659  # prime, and above 2^31
    path = tmp_path / "big.ideal"
    path.write_text(f"field {big}\nvars x y\nideal:\nx\n")
    monkeypatch.setenv("HFSTRATA_FIELD", str(big))
    for text in (path.read_text(), "vars x y\nideal:\nx\n"):
        with pytest.raises(ParseError) as exc:
            parse_ideal_file(text)
        assert str(exc.value) == (
            f"line 1, col 1: field modulus {big} is out of range: it must be a prime below 2^31"
        )
    assert run(["hilb", str(path), "--up-to", "2"]) == 2
    assert "must be a prime below 2^31" in capsys.readouterr().err


def test_cli_non_utf8_input_exit2(capsys, tmp_path):
    path = tmp_path / "latin1.ideal"
    path.write_bytes(b"field 7\nvars x y\nideal:\nx*y\nx\xe9y\n")
    assert run(["hilb", str(path), "--up-to", "2"]) == 2
    assert capsys.readouterr().err == "error: line 5, col 2: byte 0xe9 is not valid UTF-8\n"


def test_parse_undeclared_variable_position():
    with pytest.raises(ParseError) as exc:
        parse_ideal_file("field 7\nvars x y\nideal:\nx*q\n")
    assert exc.value.line == 4 and exc.value.col == 3


@pytest.mark.parametrize("name", ["y-z", "2", "1x", "x.y", "x^2"])
def test_vars_name_that_is_not_one_token_exit2(capsys, tmp_path, name):
    """A declared name that the expression tokenizer would split or read
    as a number fits in no generator, and `truncate` would write strand
    monomials that do not reparse: the vars line is refused."""
    path = tmp_path / "bad.ideal"
    path.write_text(f"field 7\nvars x {name}\nideal:\nx^2\n")
    assert run(["truncate", str(path), "--m", "3", "--force", "-o", str(tmp_path / "back.ideal")]) == 2
    assert capsys.readouterr().err == f"error: line 2, col 1: variable name {name!r} is not one name token\n"
    assert not (tmp_path / "back.ideal").exists()


def test_accepted_names_reparse(tmp_path):
    """Every name the vars line accepts survives format_ideal_file."""
    path, out = tmp_path / "names.ideal", tmp_path / "back.ideal"
    path.write_text("field 7\nvars x_1 _y Z9 \u00e9\nideal:\nx_1^2 - 3*_y*Z9\n\u00e9^3 + x_1*_y*\u00e9\n")
    assert run(["truncate", str(path), "--m", "4", "--force", "-o", str(out)]) == 0
    _, first = parse_ideal_file(out.read_text())
    assert len(first.generators) > 2
    _, second = parse_ideal_file(format_ideal_file(first))
    assert first.generators == second.generators


def test_parse_order_and_default_field():
    ring, _ = parse_ideal_file("vars x y\norder lex\nideal:\nx*y\n")
    assert ring.order.kind == "lex"
    assert ring.field.p == 32003  # default modulus


def test_field_env_override(monkeypatch):
    monkeypatch.setenv("HFSTRATA_FIELD", "101")
    ring, _ = parse_ideal_file("vars x y\nideal:\nx\n")
    assert ring.field.p == 101


def test_roundtrip(tmp_path, tc_file):
    out = tmp_path / "trunc.ideal"
    code = run(["truncate", tc_file, "--m", "4", "-o", str(out)])
    assert code == 0
    _, first = parse_ideal_file(out.read_text())
    rewritten = format_ideal_file(first)
    _, second = parse_ideal_file(rewritten)
    assert first.generators == second.generators


def test_cli_gb_and_hilb(capsys, tc_file, zero_file):
    assert run(["gb", tc_file]) == 0
    gb_out = capsys.readouterr().out.strip().splitlines()
    assert len(gb_out) == 3
    assert run(["hilb", zero_file, "--up-to", "3"]) == 0
    assert capsys.readouterr().out.strip() == "1 2 3 4"
    assert run(["hilb", tc_file, "--up-to", "4"]) == 0
    assert capsys.readouterr().out.strip() == "1 4 7 10 13"


def test_cli_reg_res_tangent_ext1(capsys, tc_file):
    assert run(["reg", tc_file]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run(["res", tc_file]) == 0
    out = capsys.readouterr().out
    assert "S(-3)^2" in out and "total:" in out
    assert run(["tangent", tc_file]) == 0
    assert capsys.readouterr().out.strip() == "12"
    assert run(["ext1", tc_file]) == 0
    capsys.readouterr()


def test_cli_truncate_precondition_exit2(capsys, tc_file):
    code = run(["truncate", tc_file, "--m", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "m >= reg(I_Y) + 2 = 4" in err


def test_cli_verify_exit_codes_and_json(capsys, tmp_path, tc_file):
    json_path = tmp_path / "report.json"
    code = run(["verify-prop31", tc_file, "--m", "4", "--json", str(json_path)])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["comparison"]["tangent_bijective"] is True
    assert payload["report"]["all_ok"] is True
    assert payload["version"]
    assert payload["input"]["text"] == TWISTED_CUBIC
    assert json_path.read_text() == out

    # identical invocation, byte-identical report
    assert run(["verify-prop31", tc_file, "--m", "4"]) == 0
    assert capsys.readouterr().out == out

    code = run(["verify-prop31", tc_file, "--m", "2", "--force"])
    capsys.readouterr()
    assert code == 1  # checks failed is data, not a crash


def test_cli_verify_huge_m_exits_3_at_once(capsys, tc_file):
    """At m = 40000, x^m is a standard monomial of the twisted cubic,
    past the engine's exponent limit: exit 3 before any degree of S/I_Y
    is enumerated."""
    start = time.perf_counter()
    assert run(["verify-prop31", tc_file, "--m", "40000"]) == 3
    assert "error: an exponent reached 32768" in capsys.readouterr().err
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize(
    "names, generators",
    [("x y z w", "x*z - y^2\nx*w - y*z\ny*w - z^2\n"), ("x y z", "x*y\n"), ("x y", "x*y\n"), ("x", "x^2\n")],
    ids=["twisted_cubic", "xy_in_3_vars", "xy_in_2_vars", "x2_in_1_var"],
)
def test_cli_truncate_huge_m_exits_3_at_once(capsys, tmp_path, names, generators):
    """m^m has the generator x_1^m, past the engine's exponent limit at
    m = 40000: exit 3 before any degree-m monomial is listed."""
    path = tmp_path / "in.ideal"
    path.write_text(f"field 32003\nvars {names}\nideal:\n{generators}")
    start = time.perf_counter()
    assert run(["truncate", str(path), "--m", "40000"]) == 3
    assert "error: an exponent reached 32768" in capsys.readouterr().err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("m", [32768, 40000])
def test_cli_cone_curve_huge_m_exits_3_at_once(capsys, tmp_path, m):
    """A degree-m form has the term x^m, past the engine's exponent limit:
    exit 3 before any degree-m monomial is listed."""
    path = tmp_path / "quadric.ideal"
    path.write_text("field 32003\nvars x y z w\nideal:\nx*w - y*z\n")
    start = time.perf_counter()
    assert run(["cone-curve", str(path), "--m", str(m), "--seed", "1"]) == 3
    assert "error: an exponent reached 32768" in capsys.readouterr().err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("m", [1000, 32767])
def test_cli_cone_curve_too_many_monomials_exits_3_at_once(capsys, tmp_path, m):
    """Below the exponent limit a degree-m form still has C(m + 3, 3)
    terms in 4 variables, 1.7e8 at m = 1000: exit 3 before any degree-m
    monomial is listed."""
    path = tmp_path / "quadric.ideal"
    path.write_text("field 32003\nvars x y z w\nideal:\nx*w - y*z\n")
    start = time.perf_counter()
    assert run(["cone-curve", str(path), "--m", str(m), "--seed", "1"]) == 3
    assert capsys.readouterr().err.startswith(f"error: S_{m} in 4 variables has ")
    assert time.perf_counter() - start < 5


def test_cli_cone_curve(capsys, tc_file, tmp_path):
    quadric = tmp_path / "quadric.ideal"
    quadric.write_text("field 32003\nvars x y z w\nideal:\nx*w - y*z\n")
    code = run(["cone-curve", str(quadric), "--m", "4", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["hs_ok"] and payload["report"]["dim_ok"]
    assert payload["report"]["trials_used"] <= 5
    assert len(payload["added_forms"]) == 2


def test_cli_oracle(capsys, tc_file):
    assert run(["oracle", "hilb", tc_file, "--up-to", "4"]) == 0
    assert capsys.readouterr().out.strip() == "1 4 7 10 13"
    assert run(["oracle", "tangent", tc_file, "--bound", "4"]) == 0
    assert capsys.readouterr().out.strip() == "12"
    assert run(["oracle", "syz", tc_file, "--bound", "3"]) == 0
    assert "3 2" in capsys.readouterr().out
    assert run(["oracle", "betti", tc_file, "--max-step", "3", "--bound", "6"]) == 0
    assert "total:" in capsys.readouterr().out


def test_cli_oracle_bound_below_generators_exit2(capsys, tmp_path):
    """syz, tangent and betti all refuse a --bound below a generator degree."""
    path = tmp_path / "ci.ideal"
    path.write_text("field 32003\nvars x y\nideal:\nx^2\ny^3\n")
    for mode in ("syz", "tangent", "betti"):
        assert run(["oracle", mode, str(path), "--bound", "1"]) == 2, mode
        captured = capsys.readouterr()
        assert captured.out == "" and "degree_bound below" in captured.err, mode
    assert run(["oracle", "betti", str(path), "--bound", "5"]) == 0
    assert capsys.readouterr().out.split() == "0 1 total:2 1 2: 1 . 3: 1 . 4: . 1".split()


@pytest.mark.parametrize("names, gens, argv, code, out", [
    # the unit ideal: level 0 finds (S/I)_0 = 0, and I ⊄ m keeps the search
    ("x y", "1 x", [], 0, "0 total:1 0: 1"),
    ("x y", "1 x", ["--bound", "0"], 2, ""),
    ("x y", "", [], 0, "(empty Betti table)"),
    # (x, y, z)^2 takes the Koszul path unless max_step = 0
    ("x y z", "x^2 x*y y^2 x*z y*z z^2", ["--max-step", "0"], 0, "0 total:6 2: 6"),
    ("x y z", "x^2 x*y y^2 x*z y*z z^2", ["--max-step", "1"], 0, "0 1 total:6 8 2: 6 8"),
    ("x y z", "x^2 x*y y^2 x*z y*z z^2", ["--max-step", "7", "--bound", "4"], 0,
     "0 1 2 total:6 8 3 2: 6 8 3"),
    # (x, y^3): level 0 finds z = 3, the search runs at bound 3, Koszul above
    ("x y", "x y^3", ["--bound", "2"], 2, ""),
    ("x y", "x y^3", ["--bound", "3"], 0, "0 total:2 1: 1 3: 1"),
    ("x y", "x y^3", ["--max-step", "5", "--bound", "4"], 0, "0 1 total:2 1 1: 1 . 3: 1 1"),
])
def test_cli_oracle_betti_edges(capsys, tmp_path, names, gens, argv, code, out):
    """`oracle betti` on the inputs at the edges of its Koszul path."""
    path = tmp_path / "edge.ideal"
    path.write_text(f"field 32003\nvars {names}\nideal:\n" + "".join(f + "\n" for f in gens.split()))
    assert run(["oracle", "betti", str(path)] + argv) == code
    captured = capsys.readouterr()
    assert captured.out.split() == out.split()
    assert ("degree_bound below" in captured.err) == bool(code)


def test_cli_tangent_of_the_unit_ideal_exit2(capsys, tmp_path):
    """The engine's and the oracle's tangent both refuse the unit ideal."""
    path = tmp_path / "unit.ideal"
    path.write_text("field 32003\nvars x y\nideal:\n1\nx\n")
    for argv in (["tangent", str(path)], ["oracle", "tangent", str(path)]):
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: tangent space of the unit ideal is undefined\n"), argv


def test_cli_oracle_refuses_codes_past_int64(capsys, tmp_path):
    """In 40 variables the oracle's monomial codes fit in int64 up to
    degree 2, 2 * 3**39 < 2**63, and not from degree 3 on: every mode
    that reaches degree 3 exits 3 with a typed error and prints no value,
    where wrapped codes once printed h_3 = 11414 and 14 cubic syzygies.
    The engine's h_3 is the complete intersection's C(42, 3) - 2 * 40."""
    path = tmp_path / "wide.ideal"
    names = " ".join(f"x{i}" for i in range(40))
    path.write_text(f"field 32003\nvars {names}\nideal:\nx0*x1 + x2^2\nx3*x39\n")
    assert run(["oracle", "hilb", str(path), "--up-to", "2"]) == 0
    assert capsys.readouterr() == ("1 40 818\n", "")
    assert run(["hilb", str(path), "--up-to", "3"]) == 0
    assert capsys.readouterr().out.split() == ["1", "40", "818", "11400"]
    for mode, *argv in (["hilb", "--up-to", "3"], ["syz", "--bound", "4"], ["tangent", "--bound", "4"],
                        ["betti", "--max-step", "2", "--bound", "4"]):
        assert run(["oracle", mode, str(path)] + argv) == 3, mode
        out, err = capsys.readouterr()
        assert out == "", mode
        assert err.startswith("error: the oracle's codes of monomials of degree 3 in 40 variables"), (mode, err)


def test_python_m_hfstrata_from_a_checkout(tc_file):
    """`PYTHONPATH=src python -m hfstrata` runs the CLI without an install."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-m", "hfstrata", "hilb", tc_file, "--up-to", "3"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "1 4 7 10\n", "")


def test_cli_parse_error_exit2(capsys, tmp_path):
    bad = tmp_path / "bad.ideal"
    bad.write_text("field 10\nvars x\nideal:\nx\n")
    assert run(["gb", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


GEN = "vars x y\nideal:\n"  # generators start on line 3
BIG = "1" * 5000
PARSE_ERRORS = [  # (id, file text, HFSTRATA_FIELD, error after "error: ")
    ("character", GEN + "x $ y\n", None, "line 3, col 3: unexpected character '$'"),
    ("exponent", GEN + "x^y\n", None, "line 3, col 3: expected NUMBER, found 'y'"),
    ("exponent-eol", GEN + "  x^\n", None, "line 3, col 5: expected NUMBER, found end of line"),
    ("factor", GEN + "x*+y\n", None, "line 3, col 3: expected a coefficient or variable, found '+'"),
    ("factor-eol", GEN + "x +\n", None,
     "line 3, col 4: expected a coefficient or variable, found end of line"),
    ("operator", GEN + "x y\n", None, "line 3, col 3: expected '+' or '-', found 'y'"),
    ("zero", GEN + "x - x\n", None, "line 3, col 1: generator 0 is zero"),
    ("env", GEN + "x\n", "seven", "line 1, col 1: HFSTRATA_FIELD='seven' is not an integer"),
    ("field-twice", "field 7\nfield 7\n" + GEN, None, "line 2, col 1: duplicate field declaration"),
    ("vars-twice", "vars x\n" + GEN, None, "line 2, col 1: duplicate vars declaration"),
    ("order-twice", "order lex\n order lex\n" + GEN, None, "line 2, col 2: duplicate order declaration"),
    ("field-usage", "field seven\n" + GEN, None, "line 1, col 1: usage: field <prime>"),
    ("vars-usage", "vars\nideal:\n", None, "line 1, col 1: usage: vars <name> [<name> ...]"),
    ("order-usage", "order revlex\n" + GEN, None, "line 1, col 1: usage: order grevlex|lex"),
    ("distinct", "vars x x\nideal:\n", None, "line 1, col 1: variable names must be distinct"),
    ("vars-late", "ideal:\nx\n", None, "line 1, col 1: vars must be declared before ideal:"),
    ("directive", "vars x\nfoo\n", None, "line 2, col 1: unknown directive 'foo'"),
    ("no-vars", "field 7\n", None, "line 1, col 1: missing vars declaration"),
    ("no-ideal", "vars x\n", None, "line 1, col 1: missing 'ideal:' section"),
    # digits int() will not read: a superscript, or more than its 4300-digit limit
    ("superscript-exponent", GEN + "x^\u00b2\n", None, "line 3, col 3: unexpected character '\u00b2'"),
    ("superscript-factor", GEN + "\u00b2*x\n", None, "line 3, col 1: unexpected character '\u00b2'"),
    ("superscript-field", "field \u00b2\n" + GEN, None, "line 1, col 1: usage: field <prime>"),
    ("long-coefficient", GEN + BIG + "*x\n", None,
     "line 3, col 1: number too long: 5000 digits (the limit is 4300)"),
    ("long-exponent", GEN + "x^" + BIG + "\n", None,
     "line 3, col 3: number too long: 5000 digits (the limit is 4300)"),
    ("long-field", "field " + BIG + "\n" + GEN, None,
     "line 1, col 7: number too long: 5000 digits (the limit is 4300)"),
]


@pytest.mark.parametrize(
    "text, env, message", [case[1:] for case in PARSE_ERRORS], ids=[case[0] for case in PARSE_ERRORS]
)
def test_cli_parse_errors_exit2(monkeypatch, capsys, tmp_path, text, env, message):
    """Each rejection of the ideal file grammar exits 2 with its position."""
    if env is None:
        monkeypatch.delenv("HFSTRATA_FIELD", raising=False)
    else:
        monkeypatch.setenv("HFSTRATA_FIELD", env)
    path = tmp_path / "bad.ideal"
    path.write_text(text)
    assert run(["gb", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_parse_returns_or_raises_parse_error(monkeypatch):
    """A file of random lines over names, decimal and non-decimal digits,
    the operators, a refused character and space either parses or raises
    ParseError, and nothing else."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    monkeypatch.delenv("HFSTRATA_FIELD", raising=False)
    line = st.text(alphabet="xy_\u00e90123456789\u0663\u00b2+-*^$ ", max_size=12)
    head = st.sampled_from(["", "field ", "vars x ", "order "])

    @hypothesis.settings(derandomize=True, max_examples=500, deadline=None, database=None)
    @hypothesis.given(st.lists(st.tuples(head, line), max_size=3), st.lists(line, max_size=4))
    def check(header, generators):
        lines = [h + rest for h, rest in header] + ["vars x y \u00e9 _", "ideal:"] + generators
        try:
            parse_ideal_file("\n".join(lines) + "\n")
        except ParseError:
            pass

    check()


def test_cli_internal_error_exit3(monkeypatch, capsys, tc_file):
    """A Betti table that drops an entry disagrees with the Hilbert series:
    `betti_table` raises, and the CLI reports an internal error, exit 3."""
    from conftest import twisted_cubic
    from hfstrata import invariants

    real = invariants._koszul_betti

    def dropped(ideal):
        entries = real(ideal)
        entries.pop(max(entries))
        return entries

    monkeypatch.setattr(invariants, "_koszul_betti", dropped)
    with pytest.raises(RuntimeError, match="Betti table disagrees with the Hilbert series"):
        invariants.betti_table(twisted_cubic())
    assert run(["verify-prop31", tc_file, "--m", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError('Betti table disagrees with the Hilbert series')\n"


def test_cli_missing_file_exit2(capsys):
    assert run(["gb", "/nonexistent/nope.ideal"]) == 2
    capsys.readouterr()


def test_cli_usage_error_exit2(capsys):
    assert run(["hilb"]) == 2  # missing required arguments
    capsys.readouterr()


def test_verify_prop31_leaves_no_cycles_among_its_objects(tc_file, tmp_path, capsys):
    """The caches on an `Ideal` hold nothing that points back to it, so a
    run frees its ideals, quotient bases, syzygies and polynomials by
    reference counting alone: with the collector off during the run, a
    collection afterwards finds none of them unreachable."""
    import gc

    from hfstrata.groebner import Ideal
    from hfstrata.invariants import QuotientBasis
    from hfstrata.ring import Polynomial

    gc.collect()
    gc.disable()
    try:
        assert run(["verify-prop31", tc_file, "--m", "4", "--json", str(tmp_path / "r.json")]) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [type(o).__name__ for o in gc.garbage
                  if isinstance(o, (Ideal, QuotientBasis, Polynomial))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    capsys.readouterr()
    assert leaked == []
