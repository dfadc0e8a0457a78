"""Golden digests of CLI outputs: performance work must not change answers.

Each case runs `hfstrata.cli.run` on an ideal file in a fixed working
directory and hashes its exit code, stdout and stderr.  The digests were
recorded with the max-scan reduction loop that preceded heap-ordered
normal forms; any change that alters a printed Gröbner basis,
resolution, Betti table, dimension or report shows up here.

A failure lists the cases whose digests moved; `pytest -vv` also
prints their new values, to record after a deliberate output change.
"""

import hashlib

import pytest

from hfstrata.cli import run

FILES = {
    "twisted_cubic.ideal": "field 32003\nvars x y z w\nideal:\nx*z - y^2\nx*w - y*z\ny*w - z^2\n",
    "twisted_cubic_lex.ideal": (
        "field 32003\nvars x y z w\norder lex\nideal:\nx*z - y^2\nx*w - y*z\ny*w - z^2\n"
    ),
    "quadric_cone.ideal": "field 32003\nvars x y z w\nideal:\nx*w - y*z\n",
    "fermat_cubic.ideal": "field 32003\nvars x y z w\nideal:\nx^3 + y^3 + z^3 + w^3\n",
}

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
        (cmd, name)
        for name in ("twisted_cubic.ideal", "twisted_cubic_lex.ideal", "quadric_cone.ideal")
        for cmd in ("gb", "res", "tangent", "ext1")
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
