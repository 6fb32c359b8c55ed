"""Golden digests of the exact engines' output.

The Hopf and twist engines and the Seiberg-Witten map compute in exact
arithmetic, so their printed results are fixed bytes.  The digests below
were first taken from a nested container (basis keys to Laurent
polynomials in the scale with Fraction coefficients) and held unchanged
through the flat (key, power) container; any later change of the scalar
type, the containers or the interpreter must reproduce them.
"""

import hashlib
import json

import pytest

import test_twist as TT
from qstkit import cli, gauge as GA, hopf_algebra as H, twist as T


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def order6():
    return T.twisted_structures(T.abelian_twist(6))


def test_twist_order6_digests(order6):
    assert order6["passed"]
    assert _sha(repr(order6["R"])) == \
        "636708feeaaff1081d3c2986c66c990fd3b607d8dcd59fe2f1711bcd0063b436"
    # the twisted coproduct and antipode, built by the twist tests from the engine's series
    F = T.abelian_twist(6)
    assert _sha(repr(TT._chi(F))) == \
        "66fea00f0d553cc1a8c6d9cdc294ad449c4f20092752c3a7d93e749c87c25bc5"
    assert _sha(repr(TT._twisted_coproduct(F, 1, 1))) == \
        "8aa7f7729862b7176108bb109d8120e9fffed5a09418e71978dce552d70605eb"
    assert _sha(repr(TT._twisted_antipode(F, 2, 1))) == \
        "bb800e4e4672f5b0c218b65aafce5bb8e5192d47f50a4dfe31ce84f5e1fa17e1"


def test_hopf_full_suite_digest():
    assert _sha(repr(H.full_suite())) == \
        "981b64507e5af0a51944534099fd002a7bee9b3cf021c7dfb8edf9a8fd9b3c22"


def test_sw_map_default_field_digest():
    doc = GA.poly_field_to_jsonable(GA.sw_map_order1(cli._sw_field(), cli._SW_THETA))
    assert _sha(json.dumps(doc, sort_keys=True)) == \
        "c90e3fef8d84fa7d312f2aff47e40dcddecfd8d63dc829cdfe00b929d708d4bb"
