import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waves_oracle import QuadSpec, numeric_star_oracle, packet_value, unit_wave
from qstkit.momentum import group_preset
from qstkit.waves import (DeltaSum, GroupMismatch, WavePacket, act, dagger, integral_star,
                          plane_wave, star, twisted_trace_check)

LN2 = math.log(2.0)


@pytest.fixture(scope="module")
def kappa1():
    return group_preset("kappa_minkowski", kappa=1.0, d=1)


@pytest.fixture(scope="module")
def kappa3():
    return group_preset("kappa_minkowski", kappa=1.0, d=3)


def _packet(g, rng, n=4, inverses_of=None):
    out = None
    moms = list(inverses_of or [])
    while len(moms) < n:
        moms.append(rng.normal(size=g.dim))
    for m in moms:
        t = plane_wave(g, m, rng.normal() + 1j * rng.normal())
        out = t if out is None else out + t
    return out


def test_star_unit_and_example(kappa1):
    ep = plane_wave(kappa1, [LN2, 1.0])
    eq = plane_wave(kappa1, [0.0, 2.0])
    e0 = unit_wave(kappa1)
    assert (star(ep, e0) - ep).norm() < 1e-14
    assert (star(e0, ep) - ep).norm() < 1e-14
    prod = star(ep, eq)
    assert len(prod) == 1
    mom, amp = prod.terms[0]
    assert np.allclose(mom, [LN2, 2.0])
    assert amp == pytest.approx(1.0)


def test_star_associativity_random(kappa3):
    rng = np.random.default_rng(0)
    for _ in range(30):
        f, g, h = (_packet(kappa3, rng, 2) for _ in range(3))
        lhs = star(star(f, g), h)
        rhs = star(f, star(g, h))
        assert (lhs - rhs).norm() < 1e-10 * (1 + lhs.norm())


def test_packet_merge_contract(kappa3):
    rng = np.random.default_rng(11)
    p = rng.normal(size=4)
    near = p + 1e-13  # within MERGE_TOL·(1 + max|p|) of p
    # momenta within tolerance merge into the first one, and their amplitudes add
    f = WavePacket(kappa3, [(p, 1.0), (near, 2.0j)])
    assert len(f) == 1
    mom, amp = f.terms[0]
    assert np.array_equal(mom, p) and amp == 1.0 + 2.0j
    # a packet summed wave by wave with + is the packet built in one call, term for term
    terms = [(m, complex(*a)) for m, a in zip(rng.normal(size=(12, 4)), rng.normal(size=(12, 2)))]
    terms.append((terms[3][0] + 1e-14, 0.5))
    summed = WavePacket(kappa3)
    for m, a in terms:
        summed = summed + plane_wave(kappa3, m, a)
    whole = WavePacket(kappa3, terms)
    assert len(whole) == 12
    assert all(np.array_equal(m1, m2) and a1 == a2
               for (m1, a1), (m2, a2) in zip(summed.terms, whole.terms, strict=True))
    # a term whose amplitude cancels is dropped
    g = WavePacket(kappa3, [(p, 1.0), (terms[0][0], 1.0), (near, -1.0)])
    assert len(g) == 1 and np.array_equal(g.terms[0][0], terms[0][0])
    assert len(f - f) == 0


def _merge_by_scan(terms):
    """Reference merge: each term joins the first stored term within tolerance."""
    moms, amps = [], []
    for p, a in terms:
        for i, p0 in enumerate(moms):
            if np.max(np.abs(p0 - p)) <= 1e-12 * (1.0 + np.max(np.abs(p))):
                amps[i] += a
                break
        else:
            moms.append(p)
            amps.append(complex(a))
    return [(p, a) for p, a in zip(moms, amps) if abs(a) > 1e-12]


@pytest.mark.parametrize("seed", range(4))
def test_merge_matches_the_pairwise_scan(kappa3, seed):
    # near-copies, exact copies, shared p_0 and cancelling pairs, in random order
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(30, 4))
    base[:10, 0] = base[0, 0]
    moms = np.vstack([base, base[rng.integers(30, size=40)]
                      + rng.choice([0.0, 5e-13, 3e-12], size=(40, 1)) * rng.normal(size=(40, 4))])
    moms[-5:] = moms[:5]
    amps = rng.normal(size=70) + 1j * rng.normal(size=70)
    amps[-5:] = -amps[:5]
    order = rng.permutation(70)
    terms = list(zip(moms[order], amps[order]))
    got = WavePacket(kappa3, terms).terms
    want = _merge_by_scan(terms)
    assert len(got) == len(want) and len(want) < 70
    assert all(np.array_equal(m1, m2) and a1 == a2 for (m1, a1), (m2, a2) in zip(got, want))


def test_nan_amplitude_stays_in_the_packet(kappa3):
    f = plane_wave(kappa3, [0.1, 0.2, 0.3, 0.4], np.nan)
    assert len(f) == 1
    assert math.isnan(f.norm())


def test_star_of_two_50_term_packets(kappa3):
    rng = np.random.default_rng(12)
    P, Q = rng.normal(size=(50, 4)), rng.normal(size=(50, 4))
    a, b = (rng.normal(size=50) + 1j * rng.normal(size=50) for _ in range(2))
    prod = star(WavePacket(kappa3, list(zip(P, a))), WavePacket(kappa3, list(zip(Q, b))))
    assert len(prod) == 2500
    moms = np.array([m for m, _ in prod.terms])
    assert np.array_equal(moms, kappa3.add(np.repeat(P, 50, axis=0), np.tile(Q, (50, 1))))
    assert np.array_equal([amp for _, amp in prod.terms], np.outer(a, b).ravel())


def test_star_group_mismatch(kappa1):
    other = group_preset("rho_minkowski", rho=1.0)
    with pytest.raises(GroupMismatch):
        star(unit_wave(kappa1), unit_wave(other))


def test_dagger(kappa1):
    ep = plane_wave(kappa1, [LN2, 1.0])
    d = dagger(ep)
    mom, amp = d.terms[0]
    assert np.allclose(mom, [-LN2, -2.0])
    assert (dagger(d) - ep).norm() < 1e-14


def test_dagger_antihomomorphism(kappa3):
    rng = np.random.default_rng(1)
    for _ in range(10):
        f, g = _packet(kappa3, rng, 3), _packet(kappa3, rng, 3)
        lhs = dagger(star(f, g))
        rhs = star(dagger(g), dagger(f))
        assert (lhs - rhs).norm() < 1e-10 * (1 + lhs.norm())


def test_act_examples(kappa1):
    e0 = unit_wave(kappa1)
    assert (act("E", e0) - e0).norm() < 1e-15
    ep = plane_wave(kappa1, [LN2, 1.0])
    x0 = act("X", ep, index=0)
    assert x0.terms[0][1] == pytest.approx(0.5)  # kappa(1 - e^{-ln2}) = 1/2
    x1 = act("X", ep, index=1)
    assert x1.terms[0][1] == pytest.approx(1.0)
    p0 = act("P", ep, index=0)
    assert p0.terms[0][1] == pytest.approx(LN2)


def test_act_commutative_limit():
    p = np.array([0.4, 0.2])
    vals = []
    for kappa in (1e2, 1e4, 1e6):
        g = group_preset("kappa_minkowski", kappa=kappa, d=1)
        vals.append(act("X", plane_wave(g, p), index=0).terms[0][1])
    errs = [abs(v - p[0]) for v in vals]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-6


def test_act_requires_kappa():
    g = group_preset("rho_minkowski", rho=1.0)
    with pytest.raises(ValueError):
        act("X", unit_wave(g))


def test_integral_unit_is_formal_volume(kappa1):
    e0 = unit_wave(kappa1)
    ds = integral_star(e0, e0)  # ∫ 1 * 1 = ∫ 1
    assert len(ds) == 1
    amp, atoms = ds.terms[0]
    assert atoms == ()  # the formal volume delta(0), symbolic
    assert amp == pytest.approx(1.0)


def test_integral_star_normal_form_rotation(kappa1):
    # delta(p ⊞ q) rewrites to Delta((-)q)-weighted delta(q ⊞ p): the two
    # orderings must land on the same normal form
    p = np.array([0.7, 0.4])
    q = np.asarray(kappa1.inv(p))
    f = plane_wave(kappa1, p, 2.0)
    g = plane_wave(kappa1, q, 3.0)
    lhs = integral_star(f, g)
    # amplitude-weighted reverse with the modular factor
    g2 = plane_wave(kappa1, q, 3.0 * kappa1.modular(np.asarray(kappa1.inv(q))))
    rhs = integral_star(g2, f)
    assert lhs.equals(rhs)


def test_deltasum_equal_words_straddling_a_rounding_step(kappa1):
    # 8e-14 apart on either side of 1.5e-12: one momentum under the relative tolerance
    p = np.array([0.7, 1.5e-12 - 4e-14])
    q = np.array([0.7, 1.5e-12 + 4e-14])
    lhs = DeltaSum(kappa1, [(1.0, (p, kappa1.inv(p)))])
    rhs = DeltaSum(kappa1, [(1.0, (q, kappa1.inv(q)))])
    assert len(lhs) == 1
    assert lhs.equals(rhs)


def test_off_support_terms_vanish(kappa1):
    f = plane_wave(kappa1, [0.3, 0.4])
    g = plane_wave(kappa1, [0.2, 0.1])
    ds = integral_star(f, g)  # p ⊞ q != 0: the zero distribution
    assert ds.is_zero()


def test_twisted_trace_kappa(kappa3):
    rng = np.random.default_rng(2)
    for _ in range(25):
        moms = [rng.normal(size=4) for _ in range(3)]
        f = _packet(kappa3, rng, 3, inverses_of=moms)
        g = _packet(kappa3, rng, 4, inverses_of=[kappa3.inv(m) for m in moms])
        assert twisted_trace_check(f, g)


def test_plain_cyclicity_fails_on_kappa(kappa3):
    rng = np.random.default_rng(3)
    p = rng.normal(size=4)
    f = plane_wave(kappa3, p)
    g = plane_wave(kappa3, kappa3.inv(p))
    assert not integral_star(f, g).equals(integral_star(g, f))


def test_plain_cyclicity_unimodular():
    rng = np.random.default_rng(4)
    for name, kw in (("rho_minkowski", dict(rho=1.0)),
                     ("moyal_extended", dict(theta=1.0))):
        g = group_preset(name, **kw)
        for _ in range(10):
            moms = [rng.normal(size=g.dim) for _ in range(2)]
            f = _packet(g, rng, 2, inverses_of=moms)
            h = _packet(g, rng, 3, inverses_of=[np.asarray(g.inv(m)) for m in moms])
            assert integral_star(f, h).equals(integral_star(h, f))
            assert twisted_trace_check(f, h)


def test_trace_trivial(kappa1):
    e0 = unit_wave(kappa1)
    assert twisted_trace_check(e0, e0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_deltasum_confluence_random_rewrite_order(seed):
    g = group_preset("kappa_minkowski", kappa=1.0, d=2)
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(6):
        p = rng.normal(size=3)
        atoms = [p, np.asarray(g.inv(p))]
        if rng.integers(2):
            atoms.append(np.zeros(3))
        amp = rng.normal() + 1j * rng.normal()
        terms.append((amp, atoms))
    base = DeltaSum(g, terms)
    shuffled = DeltaSum(g, terms, rng=np.random.default_rng(seed + 1))
    assert base.equals(shuffled, tol=1e-9)


def test_bracket_recovery_from_star(kappa1):
    # antisymmetric O(eps^2) part of e_{eps a} * e_{eps b} reproduces C
    eps = 1e-4
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    fwd = star(plane_wave(kappa1, eps * a), plane_wave(kappa1, eps * b)).terms[0][0]
    bwd = star(plane_wave(kappa1, eps * b), plane_wave(kappa1, eps * a)).terms[0][0]
    anti = (np.asarray(fwd) - np.asarray(bwd)) / eps ** 2
    C_recovered = -1j * anti  # C^{ab}_rho = -i(H - H^T) contracted with a,b
    assert abs(C_recovered[1] - kappa1.structure.C[0, 1, 1]) < 1e-4


# numeric star-product oracle -------------------------------------------------

def test_oracle_kappa_plane_waves(kappa1):
    ep = plane_wave(kappa1, [LN2, 1.0])
    eq = plane_wave(kappa1, [0.0, 2.0])
    x = np.array([0.3, 0.1])
    alg = packet_value(star(ep, eq), x)
    orc = numeric_star_oracle(ep, eq, x, QuadSpec(width=2e4, points=90))
    assert abs(alg - orc) < 1e-8


def test_oracle_unit_factor(kappa1):
    ep = plane_wave(kappa1, [0.4, -0.7])
    x = np.array([0.2, 0.5])
    orc = numeric_star_oracle(ep, unit_wave(kappa1), x, QuadSpec(width=1e4, points=80))
    assert abs(orc - packet_value(ep, x)) < 1e-8
    orc2 = numeric_star_oracle(unit_wave(kappa1), ep, x, QuadSpec(width=1e4, points=80))
    assert abs(orc2 - packet_value(ep, x)) < 1e-8


def test_oracle_moyal_phase():
    g = group_preset("moyal_extended", theta=1.0)
    p = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    q = np.array([0.0, 1.0, 0.0, 0.0, 0.0])
    f, h = plane_wave(g, p), plane_wave(g, q)
    x = np.array([0.2, -0.1, 0.05, 0.3, 1.0])
    alg = packet_value(star(f, h), x)  # weyl fifth slot: phase e^{-i/2 p.Th.q}
    orc = numeric_star_oracle(f, h, x, QuadSpec(width=3e3, points=140))
    assert abs(alg - orc) < 1e-6
    # the group-law phase increment is -(1/2) p.Theta.q
    mom = star(f, h).terms[0][0]
    assert complex(mom[4]) == pytest.approx(-0.5)


def test_oracle_rho():
    g = group_preset("rho_minkowski", rho=1.0)
    rng = np.random.default_rng(5)
    f = plane_wave(g, rng.normal(size=4))
    h = plane_wave(g, rng.normal(size=4))
    x = np.array([0.1, 0.2, -0.15, 0.4])
    alg = packet_value(star(f, h), x)
    orc = numeric_star_oracle(f, h, x, QuadSpec(width=2e4, points=90))
    assert abs(alg - orc) < 1e-8
