"""Golden digests of CLI outputs: performance work must not change answers.

Each case runs `hfstrata.cli.run` on an ideal file in a fixed working
directory and hashes its exit code, stdout and stderr.  The engine
digests were recorded with the max-scan reduction loop that preceded
heap-ordered normal forms, the `oracle` digests with the per-term
`row_of` matrix builders that preceded the coordinate builders, and the
`verify-prop31` error paths, negative control and further truncations
with the two separate truncation presentations that preceded
`deform.Truncation`; the two negative `--up-to` cases were recorded
when they started to exit 2 instead of printing an empty line.  The two
`gb` cases on the dense cone curve were recorded with the tuple-keyed
engine that preceded packed integer terms; the `--bound` below `m`,
negative `--trials` and negative `--max-step` cases were recorded when
they started to exit 2 (before: a vacuous `all_ok: true`, exit 3 and a
level-0 table).  The `oracle` cases on the Fermat cubic curve and on the
truncation over F_(2^31 - 1) were recorded with the limb-split `V @ R`
tangent projection and the Nakayama selection over full kernel rows
that preceded the normal-form table and kernel coordinates.  The
three negative `--bound` cases on the zero ideal were recorded when they
started to exit 2 (before: no output, `0` and an empty Betti table,
exit 0).  The `verify-prop31` cases at `m = 1, 3` on the twisted cubic
and on two skew lines were recorded with the polynomial round trip
(lift, then reduce modulo Gamma) that preceded comparing the tangent and
obstruction spaces by row selection.  The four cases at p = 2^31 - 1
on the twisted cubic and a quadric cone curve (`verify-prop31`,
`tangent`, `ext1`, `oracle syz`) were recorded with the mod-p kernels
that ran the row split only where unreduced row updates fit in int64,
and eliminated the whole matrix by the pivot loop elsewhere.  Any
change that alters a printed Gröbner basis, resolution, Betti table,
dimension or report shows up here.

A failure lists the cases whose digests moved; `pytest -vv` also
prints their new values, to record after a deliberate output change.
"""

import hashlib
from itertools import combinations_with_replacement

import pytest

from hfstrata.cli import run

HEADER = "field 32003\nvars x y z w\nideal:\n"
HEADER_P31 = HEADER.replace("32003", "2147483647")
TWISTED_CUBIC = "x*z - y^2\nx*w - y*z\ny*w - z^2\n"


def _monomials(d):
    """The degree-d monomials in x, y, z, w as ideal-file text."""
    out = []
    for c in combinations_with_replacement("xyzw", d):
        out.append("*".join(v if c.count(v) == 1 else f"{v}^{c.count(v)}" for v in dict.fromkeys(c)))
    return out


def _dense_form(d, k):
    """A dense degree-d form with fixed coefficients."""
    return " + ".join(f"{(1 + 37 * i + 101 * k) % 32003}*{m}" for i, m in enumerate(_monomials(d)))


FILES = {
    "twisted_cubic.ideal": HEADER + TWISTED_CUBIC,
    "twisted_cubic_lex.ideal": (
        "field 32003\nvars x y z w\norder lex\nideal:\nx*z - y^2\nx*w - y*z\ny*w - z^2\n"
    ),
    "quadric_cone.ideal": "field 32003\nvars x y z w\nideal:\nx*w - y*z\n",
    "fermat_cubic.ideal": "field 32003\nvars x y z w\nideal:\nx^3 + y^3 + z^3 + w^3\n",
    "ci_x2_y2.ideal": "field 32003\nvars x y\nideal:\nx^2\ny^2\n",
    "max_cube_sq.ideal": "field 32003\nvars x y z\nideal:\nx^2\nx*y\nx*z\ny^2\ny*z\nz^2\n",
    "twisted_cubic_trunc4.ideal": HEADER + TWISTED_CUBIC + "".join(m + "\n" for m in _monomials(4)),
    "twisted_cubic_trunc4_p31.ideal": (
        HEADER_P31 + TWISTED_CUBIC + "".join(m + "\n" for m in _monomials(4))
    ),
    "twisted_cubic_p31.ideal": HEADER_P31 + TWISTED_CUBIC,
    "quadric_cone_curve4.ideal": (
        HEADER + "x*w - y*z\n" + _dense_form(4, 1) + "\n" + _dense_form(4, 2) + "\n"
    ),
    "quadric_cone_curve4_p31.ideal": (
        HEADER_P31 + "x*w - y*z\n" + _dense_form(4, 1) + "\n" + _dense_form(4, 2) + "\n"
    ),
    "quadric_cone_curve4_lex.ideal": (
        "field 32003\nvars x y z w\norder lex\nideal:\nx*w - y*z\n"
        + _dense_form(4, 1) + "\n" + _dense_form(4, 2) + "\n"
    ),
    "zero.ideal": "field 32003\nvars x y\nideal:\n",
    "skew_lines.ideal": HEADER + "x*z\nx*w\ny*z\ny*w\n",
    "fermat_cubic_curve5.ideal": (
        HEADER + "x^3 + y^3 + z^3 + w^3\n" + _dense_form(5, 1) + "\n" + _dense_form(5, 2) + "\n"
    ),
}

ORACLE_INPUTS = (
    "twisted_cubic.ideal",
    "quadric_cone.ideal",
    "ci_x2_y2.ideal",
    "max_cube_sq.ideal",
    "twisted_cubic_trunc4.ideal",
    "quadric_cone_curve4.ideal",
)

CASES = (
    [
        ("cone-curve", surface, "--m", str(m), "--seed", "1")
        for surface in ("quadric_cone.ideal", "fermat_cubic.ideal")
        for m in (4, 5, 6, 7)  # the Fermat cubic at m = 4 is a precondition error
    ]
    + [
        ("cone-curve", "quadric_cone.ideal", "--m", "4", "--seed", "2"),
        ("cone-curve", "fermat_cubic.ideal", "--m", "5", "--seed", "2"),
    ]
    + [("verify-prop31", "twisted_cubic.ideal", "--m", str(m)) for m in (4, 5)]
    + [
        ("verify-prop31", "twisted_cubic.ideal", "--m", "2"),  # below reg + 2: exit 2
        ("verify-prop31", "twisted_cubic.ideal", "--m", "2", "--force"),  # negative control
        ("verify-prop31", "twisted_cubic.ideal", "--m", "0", "--force"),  # m < 1: exit 2
        ("verify-prop31", "quadric_cone.ideal", "--m", "4"),
        ("verify-prop31", "ci_x2_y2.ideal", "--m", "5"),
        ("truncate", "twisted_cubic.ideal", "--m", "4"),
    ]
    + [
        (cmd, name)
        for name in ("twisted_cubic.ideal", "twisted_cubic_lex.ideal", "quadric_cone.ideal")
        for cmd in ("gb", "res", "tangent", "ext1")
    ]
    + [
        ("oracle", mode, name)
        for name in ORACLE_INPUTS
        for mode in ("hilb", "syz", "tangent", "betti")
        if (mode, name) != ("betti", "quadric_cone_curve4.ideal")
    ]
    # the complete intersection of degrees 2, 4, 4 ends at (2, 10)
    + [("oracle", "betti", "quadric_cone_curve4.ideal", "--bound", "10", "--max-step", "3")]
    # a negative --up-to exits 2
    + [
        ("hilb", "twisted_cubic.ideal", "--up-to", "-1"),
        ("oracle", "hilb", "twisted_cubic.ideal", "--up-to", "-2"),
    ]
    # dense reduced GBs: 10 grevlex elements, 58 lex elements with exponents up to 32
    + [("gb", "quadric_cone_curve4.ideal"), ("gb", "quadric_cone_curve4_lex.ideal")]
    # a degree bound below m, a negative trial budget or step count exits 2
    + [
        ("verify-prop31", "twisted_cubic.ideal", "--m", "4", "--bound", "-1"),
        ("verify-prop31", "twisted_cubic.ideal", "--m", "4", "--bound", "3"),
        ("cone-curve", "quadric_cone.ideal", "--m", "4", "--seed", "1", "--trials", "-1"),
        ("oracle", "betti", "twisted_cubic.ideal", "--max-step", "-1"),
    ]
    # the heaviest tangent case: first syzygies of degrees 3, 5, 5 reach 10
    + [("oracle", "tangent", "fermat_cubic_curve5.ideal", "--bound", "10")]
    # the normal-form table and kernel-coordinate selection at p = 2^31 - 1
    + [("oracle", mode, "twisted_cubic_trunc4_p31.ideal") for mode in ("tangent", "betti")]
    # the engine's and the oracle's eliminations at p = 2^31 - 1, where the
    # pivot loop reduces each updated block at once from min(m, n) = 3 on
    + [
        ("verify-prop31", "twisted_cubic_p31.ideal", "--m", "4"),
        ("tangent", "quadric_cone_curve4_p31.ideal"),
        ("ext1", "quadric_cone_curve4_p31.ideal"),
        ("oracle", "syz", "twisted_cubic_trunc4_p31.ideal"),
    ]
    # a negative --bound on the zero ideal exits 2
    + [("oracle", mode, "zero.ideal", "--bound", "-1") for mode in ("syz", "tangent", "betti")]
    # truncations below reg + 2: at m = 1, Gamma = m and its block generators
    # are not minimal; at m = 3 the tangent map is injective, not onto
    + [("verify-prop31", "twisted_cubic.ideal", "--m", str(m), "--force") for m in (1, 3)]
    # two skew lines: the only case where Y cycles become Gamma-boundaries
    # (obstruction_kernel_dim = 6 at m = 3), and one passing truncation
    + [
        ("verify-prop31", "skew_lines.ideal", "--m", "3", "--force"),
        ("verify-prop31", "skew_lines.ideal", "--m", "4"),
    ]
)

DIGESTS = {
    "cone-curve quadric_cone.ideal --m 4 --seed 1": "051c979993662a8be9d175f7799e1772d25f529bf7bf3edd95daf57ed54a446f",
    "cone-curve quadric_cone.ideal --m 5 --seed 1": "992607876777bae16ce7855fb35b746ecf3f2dca0d804645f530e8c99563aa3f",
    "cone-curve quadric_cone.ideal --m 6 --seed 1": "2ea64dc000e9f7fac598e19c62ea44bd69b6dc7fff0835b3d3c2fadd32bf6603",
    "cone-curve quadric_cone.ideal --m 7 --seed 1": "79345153b3389e1901a986328fe936625a5d6a8c518f4f74786293a994819fff",
    "cone-curve fermat_cubic.ideal --m 4 --seed 1": "3b9ccd34521c7a3fa7840ac3cdc8db0965d94415a2a5485b38d1f3ccceaab6d2",
    "cone-curve fermat_cubic.ideal --m 5 --seed 1": "1bc78df87c0abe773c9cc76ef77b3474320c392fbecdf845fc763b016114f9c8",
    "cone-curve fermat_cubic.ideal --m 6 --seed 1": "e8ae589854cb670af43cddf90cbf88c856babf79997a99f44d2e8bdbc1caccee",
    "cone-curve fermat_cubic.ideal --m 7 --seed 1": "d00d0e4bba4b8dcecb578fad19953b5287b3610fa04cc10f3c6ee249257aaa4a",
    "cone-curve quadric_cone.ideal --m 4 --seed 2": "d0b21570e0db00c2214f49e06a434ae5704144f2ec06421248e8fef843e1ec79",
    "cone-curve fermat_cubic.ideal --m 5 --seed 2": "c7e7a2f307dd88b105a99e539e668f1ccb9dda6868f2207d799e02c4eebf8d0f",
    "verify-prop31 twisted_cubic.ideal --m 4": "c45a535f6cc602e92c48cc22a2a7a2fe13944d60108dac06ecff74d80f7e17ba",
    "verify-prop31 twisted_cubic.ideal --m 5": "7b0970c8c631a3f0c5a8b4c8ab57039080b0cda19c0151477b5cfcb54740057d",
    "verify-prop31 twisted_cubic.ideal --m 2": "46722cadf5ca9afcb7976d17e4ffad7b3112ad3afab877f55e6ebebcc59d22c8",
    "verify-prop31 twisted_cubic.ideal --m 2 --force": "a6ee80c45cd7974b8b25e75437f0e440d2564e89a60e83cf0fa6015365b58ee5",
    "verify-prop31 twisted_cubic.ideal --m 0 --force": "7ab9fd2fe86f08e99955a6ed1c660a0809f957f5ab32cfbacb5d44f8111d2f75",
    "verify-prop31 quadric_cone.ideal --m 4": "204a26004936e21171329d9de2114dee2d34e7aedbdb6a373fd742d776769562",
    "verify-prop31 ci_x2_y2.ideal --m 5": "6265090348438983f0461c814fca5eaeab1fdd7825652ff950129d340613e900",
    "truncate twisted_cubic.ideal --m 4": "fccc226421cb2cb99bcc320318e02c98fb7f4aa25127c226ad84210a52457231",
    "gb twisted_cubic.ideal": "7441f73bdecee15892ce80aa1b354d6ae5bc31375401c703cce84bf2b66857ec",
    "res twisted_cubic.ideal": "4d553c2f08a82f241f6280a9cc7ab040e7100d32a36bef7578722d4b05cc3494",
    "tangent twisted_cubic.ideal": "6505a84d518f06d520ae15d26bb21e690f87acd18fa38bcd57ce042a8052b133",
    "ext1 twisted_cubic.ideal": "fc87c05ce3f4718ed4da4c0cbc695a0e8e2f1e3b06c347f78e0daad18b676bbe",
    "gb twisted_cubic_lex.ideal": "9533ffc1a12a74787a53e7a830800a8ea77abd1e564bc11639d63bcc580288c8",
    "res twisted_cubic_lex.ideal": "4d553c2f08a82f241f6280a9cc7ab040e7100d32a36bef7578722d4b05cc3494",
    "tangent twisted_cubic_lex.ideal": "6505a84d518f06d520ae15d26bb21e690f87acd18fa38bcd57ce042a8052b133",
    "ext1 twisted_cubic_lex.ideal": "fc87c05ce3f4718ed4da4c0cbc695a0e8e2f1e3b06c347f78e0daad18b676bbe",
    "gb quadric_cone.ideal": "f77b2fa2a2faaad456f6e41badc02f3cdf35bf3741fd6d0b2e6051278a65b5dc",
    "res quadric_cone.ideal": "b4292cabda2faf8d5ff4168296b489c997fa00211fe32a0f768ce306b04a6451",
    "tangent quadric_cone.ideal": "81972a1db6a81b009a6b7d9623a10d9f4bfe683e4e87e56e82d1f2a9e81ab4a1",
    "ext1 quadric_cone.ideal": "46897a2f2d99891be415dc8c08dca470a93c530c8a81a5c6d3d73acaa86748dd",
    "oracle hilb twisted_cubic.ideal": "79457904ee28461817291cc526758ab5f46622f6399e7898290a33a8e1cf0c91",
    "oracle syz twisted_cubic.ideal": "57d5d7d2d56e53c6ccb8492079358d10bc8f06a9f729a76166934597a63ec07b",
    "oracle tangent twisted_cubic.ideal": "6505a84d518f06d520ae15d26bb21e690f87acd18fa38bcd57ce042a8052b133",
    "oracle betti twisted_cubic.ideal": "6015fa5d894bff7ddbf3633f5871d3e7721b8e816dd26414233c66507e09c661",
    "oracle hilb quadric_cone.ideal": "33b340a5c0b25aa9b0a9ecaa31e737e24b91e0f2998450274786701094de0925",
    "oracle syz quadric_cone.ideal": "625a595a58f8889f907efb677e717f4a01edb0dd5cf470b11c59f43c5f44cef4",
    "oracle tangent quadric_cone.ideal": "81972a1db6a81b009a6b7d9623a10d9f4bfe683e4e87e56e82d1f2a9e81ab4a1",
    "oracle betti quadric_cone.ideal": "6cdeb6c7df87dddf132317987d815c02fdd0ef13beb8fabae58224323667c693",
    "oracle hilb ci_x2_y2.ideal": "aa3134011cef05b13a4191351c1d45bc937f58bb7a6f4ee50d6994c68264d413",
    "oracle syz ci_x2_y2.ideal": "c7f467b07f9b958927810f01da3b42dae69c5fa0631fe06114116e4ec836050f",
    "oracle tangent ci_x2_y2.ideal": "8c2f6041c1dee88b300c38229caf1070735bc56732dff3aef46c01af5da26888",
    "oracle betti ci_x2_y2.ideal": "0993f98eb886cbc683e3a3cb2fb775f285f9e74154b375e8070b0dbcf5c6890d",
    "oracle hilb max_cube_sq.ideal": "4e1a861204866267eb604094dbb1556e9c610c3ef8ef60928a83f001fdd5c68a",
    "oracle syz max_cube_sq.ideal": "93878b78f8bd75a453fcaaa52c8f7f44183e9f4f3af0b8f1e6c445d847683a86",
    "oracle tangent max_cube_sq.ideal": "46897a2f2d99891be415dc8c08dca470a93c530c8a81a5c6d3d73acaa86748dd",
    "oracle betti max_cube_sq.ideal": "a6b86d1988031ebc78021a68e586f8340f890b81a844744f708bee72995f888f",
    "oracle hilb twisted_cubic_trunc4.ideal": "43c91ead59865f254e977bc5a719bee80608d19b523c5101b32ac65481ad9cea",
    "oracle syz twisted_cubic_trunc4.ideal": "90f5f0b9f0a3fa36f846dffdc9ec144e71fbeb9af2c1e94e4876d08106df0a39",
    "oracle tangent twisted_cubic_trunc4.ideal": "6505a84d518f06d520ae15d26bb21e690f87acd18fa38bcd57ce042a8052b133",
    "oracle betti twisted_cubic_trunc4.ideal": "ac0be032c4adc4452e257f5050276527f355d0db1a3bb226d4c5a8dcd14f3ad4",
    "oracle hilb quadric_cone_curve4.ideal": "699b06235d1fb711e04d5b67902dc747107f94947c59c19201d111637b1ecd7a",
    "oracle syz quadric_cone_curve4.ideal": "47d3ffa93ffe2c898423e00ed84f9accaa0899b6a880f5ae4af7367a41819e56",
    "oracle tangent quadric_cone_curve4.ideal": "8e3b286102ebd565f98893eaed656974928c33024fbec701e3d81d515ccbdb6f",
    "oracle betti quadric_cone_curve4.ideal --bound 10 --max-step 3": "3a933269b87304d8def69be58df8083e22f966453785e268efa5d89a61bbe391",
    "hilb twisted_cubic.ideal --up-to -1": "a8413c20cc3222db63611cb50c6f2896cfe51b92f35c2504bb56f4be9b351bd0",
    "oracle hilb twisted_cubic.ideal --up-to -2": "0a4ba220b178b2fc931531b278447de072af6a931dcb33206845ebdd124d5feb",
    "gb quadric_cone_curve4.ideal": "3ea902b1c7dab11b76f74d1bb157395764d85e514189dc396534051bbcbcfbda",
    "gb quadric_cone_curve4_lex.ideal": "2850281f80d884616db9e04d958c5e588e63f9c7dad222d16bcada4d3db5e14f",
    "verify-prop31 twisted_cubic.ideal --m 4 --bound -1": "05647d862176b9172aa56a979a7c85794a1e8fe1406ce7a738847661faa34e0d",
    "verify-prop31 twisted_cubic.ideal --m 4 --bound 3": "d1b44a19c03d5bce0deda76c3af8e10c50e6cc2ffffc713a687039aff8790bf8",
    "cone-curve quadric_cone.ideal --m 4 --seed 1 --trials -1": "22a1eac0ef537cffa28e497d488220a276626c88d814c114d1945a8497c40908",
    "oracle betti twisted_cubic.ideal --max-step -1": "6e8a253acc894607dcd9286a28b637ed27e4abd20985569f100b4c194308e844",
    "oracle tangent fermat_cubic_curve5.ideal --bound 10": "c74cb04eb0f892f6df7e006325d12c71c23d302e4b04f2d742dc18b179d8cf93",
    "oracle tangent twisted_cubic_trunc4_p31.ideal": "6505a84d518f06d520ae15d26bb21e690f87acd18fa38bcd57ce042a8052b133",
    "oracle betti twisted_cubic_trunc4_p31.ideal": "ac0be032c4adc4452e257f5050276527f355d0db1a3bb226d4c5a8dcd14f3ad4",
    "verify-prop31 twisted_cubic_p31.ideal --m 4": "da907cde5e8fb225db336c5e109c19c730467d903204d726461dc2d7b59957a3",
    "tangent quadric_cone_curve4_p31.ideal": "8e3b286102ebd565f98893eaed656974928c33024fbec701e3d81d515ccbdb6f",
    "ext1 quadric_cone_curve4_p31.ideal": "e57aba4e5076b8f5bf327583d9547779c6c6bebe5817304458f5b74ce0ed465e",
    "oracle syz twisted_cubic_trunc4_p31.ideal": "90f5f0b9f0a3fa36f846dffdc9ec144e71fbeb9af2c1e94e4876d08106df0a39",
    "oracle syz zero.ideal --bound -1": "5bd85a159b0b91679b1daee10d3b09a6960196b1931ece4d2d837f2395a54ca2",
    "oracle tangent zero.ideal --bound -1": "5bd85a159b0b91679b1daee10d3b09a6960196b1931ece4d2d837f2395a54ca2",
    "oracle betti zero.ideal --bound -1": "5bd85a159b0b91679b1daee10d3b09a6960196b1931ece4d2d837f2395a54ca2",
    "verify-prop31 twisted_cubic.ideal --m 1 --force": "2ffd1ff2fa75a0ff40728f1f6f22ad636c9ce16761c98df3625115dcb4962ee1",
    "verify-prop31 twisted_cubic.ideal --m 3 --force": "1923b3bbf173c60bac733ba6a216780d9d72c50a4ec74781881205cc9159f024",
    "verify-prop31 skew_lines.ideal --m 3 --force": "08a50c41f9f1d5f66e200a069c0e94fd1e8e347f849bc5ca1c3226e928a2f5da",
    "verify-prop31 skew_lines.ideal --m 4": "3aa108a49534291935dfc632c97b7ea97ba64ba067cb81f256d6d15cf82c4688",
}


def _digests(capsys):
    out = {}
    for argv in CASES:
        code = run(list(argv))
        captured = capsys.readouterr()
        blob = f"{code}\n--stdout--\n{captured.out}--stderr--\n{captured.err}"
        out[" ".join(argv)] = hashlib.sha256(blob.encode()).hexdigest()
    return out


@pytest.fixture
def ideal_dir(tmp_path, monkeypatch):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)  # reports echo the file path as given
    monkeypatch.delenv("HFSTRATA_FIELD", raising=False)
    return tmp_path


def test_cli_outputs_match_golden_digests(ideal_dir, capsys):
    assert _digests(capsys) == DIGESTS
