"""Golden digests of the exact engines' output.

The Hopf and twist engines and the Seiberg-Witten map compute in exact
arithmetic, so their printed results are fixed bytes.  The digests below
were first taken from a nested container (basis keys to Laurent
polynomials in the scale with Fraction coefficients) and held unchanged
through the flat (key, power) container; any later change of the scalar
type, the containers or the interpreter must reproduce them.

The structure constants of the named presets are digested the same way,
bytes of C and every meta value with its type, so a rewrite of the preset
builders must reproduce them bit for bit.
"""

import hashlib
import json

import numpy as np
import pytest

import test_twist as TT
from qstkit import cli, gauge as GA, hopf_algebra as H, twist as T
from qstkit.momentum import group_preset


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


def _structure_digest(g) -> str:
    """sha256 of a group's structure: name, dim, the bytes of C, each meta value and its type."""
    sc = g.structure
    parts = [sc.name, str(sc.dim), str(sc.C.dtype), sc.C.tobytes().hex()]
    for key in sorted(sc.meta):
        v = sc.meta[key]
        body = f"{v.dtype}{v.shape}{v.tobytes().hex()}" if isinstance(v, np.ndarray) else repr(v)
        parts.append(f"{key}:{type(v).__name__}:{body}")
    return _sha("|".join(parts))


# every group_preset call of src and perfbench at the default configuration, a few other
# parameters, and the third phase convention at an odd dimension above 5
STRUCTURE_DIGESTS = {
    ("kappa_minkowski", (("d", 1), ("kappa", 1.0))):
        "5b6dbc1b8e7963367fc339b74a08df72a886afb9573d74faab85fb01311f0468",
    ("kappa_minkowski", (("d", 3), ("kappa", 1.0))):
        "8880ff768f845fbfd06f692576bec39b878b71d187947a3b1c0199e353c5d733",
    ("kappa_minkowski", (("d", 3), ("kappa", 0.3))):
        "6e5ac4ba1bf0bbe1d2250a68334e5a2e3293ed3768a0f4fe9b811fde4030b6e0",
    ("moyal_extended", (("theta", 1.0),)):
        "9ba869c2f42a583f3de290ac5b622a0b78099dd26c791535f4b8e85c6b75772f",
    ("moyal_extended", (("theta", 1000.0),)):
        "af6c979575cf1ed00f70448e428041e793fd4bff8af01a07b47ed4b7d3edfc11",
    ("moyal_extended", (("phase_convention", "real"), ("theta", 1.0))):
        "6bcda70e7ad697e180194a17a031bb93f3f7a13ef11eddb1fdf8225c399ee758",
    ("moyal_extended", (("dim", 7), ("phase_convention", "imaginary"), ("theta", -2.0))):
        "d50579f8dde6fb6cb854ed3d5a64861726ba4c2b47f1c289acea042c0f6ea903",
    ("rho_minkowski", (("rho", 1.0),)):
        "5b552b6226b0a0252724b889462b2f32c8e4efe1889aeb4c4d6b24bf8a864c16",
    ("su2_lambda", (("lam", 1.0),)):
        "1941ca888b5049ba985872dd94ff608f94579330fbeed13a91675cc0e8d9f3c1",
    ("commutative", (("dim", 4),)):
        "6d39b22b97c0ae4383623655a1fb75fb1026aa6a26196f466cd5612bd2e77588",
    ("commutative", (("dim", 2),)):
        "aa8d7d9880c2d70ff0f55e2e7af689eb64faf13ec934fff052e6463b5bfb1d2c",
}


@pytest.mark.parametrize("name,kw", sorted(STRUCTURE_DIGESTS))
def test_preset_structure_digests(name, kw):
    assert _structure_digest(group_preset(name, **dict(kw))) == STRUCTURE_DIGESTS[name, kw]
