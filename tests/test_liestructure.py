import dataclasses
import json

import numpy as np
import pytest

import momentum_oracle as MO
from structure_json import structure_json
from qstkit.liestructure import (HESSIAN_STEP, StructureConstants, _hessian_fd, jacobi_check,
                                 recover_from_group_law)
from qstkit.momentum import MOYAL_PHASE_CONVENTIONS, group_preset

PRESETS = [
    ("kappa_minkowski", dict(kappa=1.0, d=1)),
    ("kappa_minkowski", dict(kappa=2.0, d=3)),
    ("moyal_extended", dict(theta=1.0)),
    ("rho_minkowski", dict(rho=1.0)),
    ("su2_lambda", dict(lam=1.0)),
]


@pytest.mark.parametrize("name,kw", PRESETS)
def test_presets_are_lie_algebras(name, kw):
    sc = group_preset(name, **kw).structure
    assert jacobi_check(sc)["passed"]
    assert sc.antisymmetry_violation() == 0.0


def test_kappa_entries():
    sc = group_preset("kappa_minkowski", kappa=1.0, d=1).structure
    assert sc.C[0, 1, 1] == 1j
    assert sc.C[1, 0, 1] == -1j
    # every other entry vanishes
    C = sc.C.copy()
    C[0, 1, 1] = 0
    C[1, 0, 1] = 0
    assert np.all(C == 0)


def test_su2_entries_are_epsilon():
    sc = group_preset("su2_lambda", lam=1.0).structure
    assert sc.C[0, 1, 2] == 1j
    assert sc.C[1, 2, 0] == 1j
    assert sc.C[1, 0, 2] == -1j


def test_corrupted_tensor_fails_jacobi():
    sc = group_preset("su2_lambda", lam=1.0).structure
    C = sc.C.copy()
    C[0, 1, 2] = -C[0, 1, 2]  # flip one sign
    bad = StructureConstants("corrupt", 3, C)
    assert jacobi_check(bad)["max_violation"] > 0.1


def test_preset_errors():
    with pytest.raises(ValueError):
        group_preset("kappa_minkowski", kappa=-1.0, d=1)
    with pytest.raises(ValueError):
        group_preset("moyal_extended", theta=0.0)
    with pytest.raises(ValueError):
        group_preset("rho_minkowski", rho=1.0, dim=5)
    with pytest.raises(ValueError):
        group_preset("nope", kappa=1.0)
    with pytest.raises(ValueError):
        group_preset("moyal_extended", theta=1.0, dim=4)
    for name, kw in (("kappa_minkowski", dict(d=0)), ("kappa_minkowski", dict(d=3, dim=5)),
                     ("su2_lambda", dict(dim=4)), ("moyal_extended", dict(dim=1)),
                     ("moyal_extended", dict(phase_convention="complex"))):
        with pytest.raises(ValueError):
            group_preset(name, **kw)
    # a dim that agrees with the preset's own is accepted
    assert group_preset("kappa_minkowski", d=5, dim=6).dim == 6
    assert group_preset("rho_minkowski", dim=4).dim == 4


GROUPS = [
    ("kappa_minkowski", dict(kappa=1.0, d=1)),
    ("kappa_minkowski", dict(kappa=1.0, d=3)),
    ("moyal_extended", dict(theta=1.0)),
    ("rho_minkowski", dict(rho=1.0)),
    ("su2_lambda", dict(lam=1.0)),
]


@pytest.mark.parametrize("name,kw", GROUPS)
def test_recover_from_group_law_fd(name, kw):
    g = group_preset(name, **kw)
    rec = recover_from_group_law(g)  # finite differences of the law itself
    assert np.max(np.abs(rec.C - g.structure.C)) < 1e-6


@pytest.mark.parametrize("name,kw", GROUPS[:4])
def test_recover_from_group_law_symbolic(name, kw):
    g = group_preset(name, **kw)
    C = MO.structure_from_hessian(MO.exact_hessian(g))  # the hand-written Hessian
    assert np.max(np.abs(C - g.structure.C)) == 0.0


ORACLE_GROUPS = GROUPS[:4] + [
    ("kappa_minkowski", dict(kappa=0.4, d=2)),
    ("rho_minkowski", dict(rho=-0.7)),
    ("commutative", dict(dim=4)),
] + [("moyal_extended", dict(theta=th, dim=n, phase_convention=c))
     for c in MOYAL_PHASE_CONVENTIONS for th, n in ((0.3, 3), (-2.0, 7))]


@pytest.mark.parametrize("name,kw", ORACLE_GROUPS)
def test_oracle_hessian_matches_the_law(name, kw):
    g = group_preset(name, **kw)
    d1 = _hessian_fd(g.add, g.dim, HESSIAN_STEP)
    d2 = _hessian_fd(g.add, g.dim, HESSIAN_STEP / 2)
    assert np.max(np.abs((4 * d2 - d1) / 3 - MO.exact_hessian(g))) < 1e-6


@pytest.mark.parametrize("conv", sorted(MOYAL_PHASE_CONVENTIONS))
@pytest.mark.parametrize("dim", [3, 5, 7])
def test_moyal_structure_follows_its_law(conv, dim):
    g = group_preset("moyal_extended", theta=0.8, dim=dim, phase_convention=conv)
    rec = recover_from_group_law(g)
    assert np.max(np.abs(rec.C - g.structure.C)) < 1e-6
    assert jacobi_check(g.structure)["passed"]


def test_hessian_stencil_is_one_call_per_step():
    g = group_preset("kappa_minkowski", kappa=1.0, d=3)
    shapes = []

    def add(p, q):
        shapes.append((p.shape, q.shape))
        return g.add(p, q)

    rec = recover_from_group_law(dataclasses.replace(g, add=add))
    assert shapes == [((4, 4, 4, 4), (4, 4, 4, 4))] * 2
    assert np.max(np.abs(rec.C - g.structure.C)) < 1e-6


def test_unstable_hessian_names_the_first_pair():
    g = group_preset("commutative", dim=3)

    def add(p, q):  # p_1 q_2 and p_2 q_0 terms seen at step h only, not at h/2
        out = np.asarray(p + q, float)
        wide = np.abs(p) > 0.75 * HESSIAN_STEP
        out[..., 0] += p[..., 1] * q[..., 2] * wide[..., 1] + p[..., 2] * q[..., 0] * wide[..., 2]
        return out

    with pytest.raises(ArithmeticError, match=r"\(mu,nu\)=\(1,2\)"):
        recover_from_group_law(dataclasses.replace(g, add=add))


def test_recover_kappa_value():
    g = group_preset("kappa_minkowski", kappa=2.0, d=1)
    rec = recover_from_group_law(g)
    assert rec.C[0, 1, 1] == pytest.approx(1j / 2.0)


def test_abelian_law_recovers_zero():
    g = group_preset("commutative", dim=4)
    rec = recover_from_group_law(g)
    assert np.max(np.abs(rec.C)) == 0.0


def test_json_round_trip():
    sc = group_preset("rho_minkowski", rho=0.7).structure
    text = structure_json(sc)
    back = StructureConstants.from_json(text)
    assert back.dim == sc.dim
    assert np.max(np.abs(back.C - sc.C)) == 0.0
    # and it is valid JSON with the documented shape
    data = json.loads(text)
    assert set(data) == {"name", "dim", "entries"}
    assert all(set(e) == {"mu", "nu", "rho", "re", "im"} for e in data["entries"])
    # a document that still carries a deformation scale parses as before
    old = StructureConstants.from_json(json.dumps({**data, "deformation": 0.7}))
    assert (old.name, old.dim) == (back.name, back.dim) and np.array_equal(old.C, back.C)
