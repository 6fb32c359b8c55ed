import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waves_oracle import (QuadSpec, RefPacket, delta_sum, numeric_star_oracle, packet_value,
                          ref_act, ref_dagger, ref_integral_star, ref_star,
                          ref_twisted_trace_check, unit_wave)
from qstkit import waves
from qstkit.cli import RunConfig, _random_packets, suite_trace
from qstkit.momentum import group_preset
from qstkit.waves import (GroupMismatch, WavePacket, act, concat, dagger, integral_star,
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


def test_packets_on_different_groups_with_one_name_do_not_mix():
    k1 = group_preset("kappa_minkowski", kappa=1.0, d=3)
    k2 = group_preset("kappa_minkowski", kappa=2.0, d=3)
    p = np.array([0.3, 0.1, -0.2, 0.5])
    f, h = plane_wave(k1, p), plane_wave(k2, p)
    for op in (WavePacket.__add__, star, integral_star):
        with pytest.raises(GroupMismatch):
            op(f, h)
    with pytest.raises(GroupMismatch):
        integral_star(f, f).equals(integral_star(h, h))
    # one name, another dimension: a GroupMismatch, not a broadcast error
    e = plane_wave(group_preset("kappa_minkowski", kappa=1.0, d=1), p[:2])
    for op in (WavePacket.__add__, star):
        with pytest.raises(GroupMismatch):
            op(f, e)
    # Moyal groups differ in theta; Theta arrays compare by value
    m1, m1b = group_preset("moyal_extended", theta=1.0), group_preset("moyal_extended", theta=1.0)
    m2 = group_preset("moyal_extended", theta=2.0)
    q = np.array([0.3, 0.1, -0.2, 0.5, 0.0])
    with pytest.raises(GroupMismatch):
        plane_wave(m1, q) + plane_wave(m2, q)
    assert len(plane_wave(m1, q) + plane_wave(m1b, q)) == 1
    assert len(f + plane_wave(group_preset("kappa_minkowski", kappa=1.0, d=3), p)) == 1


def test_a_momentum_of_the_wrong_length_is_refused(kappa3):
    for build in (lambda p: WavePacket(kappa3, [(p, 1.0)]), lambda p: plane_wave(kappa3, p),
                  lambda p: WavePacket.stack(kappa3, [p], [1.0], [0], 1)):
        with pytest.raises(ValueError):
            build([0.1, 0.2])
    with pytest.raises(ValueError):
        WavePacket.stack(kappa3, [[0.1, 0.2, 0.3, 0.4]], [1.0], [1], 1)  # label out of range


def test_stacks_of_different_counts_do_not_mix(kappa1):
    f = plane_wave(kappa1, [[0.1, 0.2], [0.3, 0.4]])
    with pytest.raises(ValueError):
        star(f, unit_wave(kappa1))


def _stacks(g, rng, count=7):
    """Two stacks of `count` packets, rows in shuffled order, and their rows per label.

    Packet 3 of f is empty.  Each other packet of f has four momenta, a
    repeat of its first within the merge tolerance, a copy of a momentum of
    the next packet and a zero amplitude; packet 5 has a NaN amplitude.  h
    holds the inverses of f's first three momenta and two more.
    """
    fm, fa, fl, hm, ha, hl = [], [], [], [], [], []
    base = rng.normal(size=(count, 4, g.dim))
    for k in range(count):
        if k != 3:
            m = [*base[k], base[k, 0] + 1e-14, base[(k + 1) % count, 1]]
            a = rng.normal(size=6) + 1j * rng.normal(size=6)
            a[2] = 0.0
            if k == 5:
                a[1] = np.nan
            fm += m
            fa += list(a)
            fl += [k] * 6
        m = [*np.asarray(g.inv(base[k, :3])), *rng.normal(size=(2, g.dim))]
        hm += m
        ha += list(rng.normal(size=5) + 1j * rng.normal(size=5))
        hl += [k] * 5
    out = []
    for m, a, lab in ((fm, fa, fl), (hm, ha, hl)):
        order = rng.permutation(len(a))
        m, a, lab = np.array(m)[order], np.array(a)[order], np.array(lab)[order]
        out.append((WavePacket.stack(g, m, a, lab, count),
                    [RefPacket(g, m[lab == k], a[lab == k]) for k in range(count)]))
    return out


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _rows_equal(stacked, refs):
    """Label k of the stack holds the rows of refs[k], bit for bit and in order."""
    labels = stacked._labels
    assert np.all(np.diff(labels) >= 0)  # grouped by label
    moms = np.array([m for m, _ in stacked.terms]).reshape(len(labels), -1)
    amps = np.array([a for _, a in stacked.terms], dtype=complex)
    return all(_same_bits(moms[labels == k], r.moms.reshape(-1, moms.shape[1]))
               and _same_bits(amps[labels == k], r.amps) for k, r in enumerate(refs))


def _sums_equal(stacked, refs):
    """Label k of the stacked DeltaSum holds the words of refs[k], bit for bit and in order."""
    for k, r in enumerate(refs):
        for L, (words, amps, labels) in stacked._words.items():
            rw, ra = r.words.get(L, (np.zeros((0, words.shape[1])), np.zeros(0, complex)))
            if not (_same_bits(words[labels == k], rw) and _same_bits(amps[labels == k], ra)):
                return False
        if set(r.words) - set(stacked._words):
            return False
    return True


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name, kw", [("kappa_minkowski", dict(kappa=1.0, d=3)),
                                      ("rho_minkowski", dict(rho=1.0)),
                                      ("moyal_extended", dict(theta=1.0))])
def test_stacks_equal_the_one_packet_reference_bit_for_bit(name, kw, seed):
    g = group_preset(name, **kw)
    rng = np.random.default_rng(seed)
    (f, fr), (h, hr) = _stacks(g, rng)
    assert len(f) < 6 * 6 and f.count == 7
    assert _rows_equal(f, fr) and _rows_equal(h, hr)
    assert _rows_equal(star(f, h), [ref_star(a, b) for a, b in zip(fr, hr)])
    assert _rows_equal(star(h, f), [ref_star(b, a) for a, b in zip(fr, hr)])
    assert _rows_equal(f + h, [a + b for a, b in zip(fr, hr)])
    assert _rows_equal(f - f, [a + a.scale(-1.0) for a in fr])
    assert _rows_equal(f.scale(0.5 - 2j), [a.scale(0.5 - 2j) for a in fr])
    assert _rows_equal(dagger(f), [ref_dagger(a) for a in fr])
    norms = f.norm()
    assert _same_bits(norms, np.array([a.norm() for a in fr], dtype=float))
    assert np.isnan(norms[5]) and not np.isnan(np.delete(norms, 5)).any() and norms[3] == 0.0
    assert _sums_equal(integral_star(f, h), [ref_integral_star(a, b) for a, b in zip(fr, hr)])
    twisted = act("E", h, power=3) if name == "kappa_minkowski" else h
    twisted_r = [ref_act("E", b, power=3) if name == "kappa_minkowski" else b for b in hr]
    assert _sums_equal(integral_star(twisted, f),
                       [ref_integral_star(b, a) for a, b in zip(fr, twisted_r)])
    eq = integral_star(f, h).equals(integral_star(h, f))
    assert list(eq) == [ref_integral_star(a, b).equals(ref_integral_star(b, a))
                        for a, b in zip(fr, hr)]
    ok = twisted_trace_check(f, h)
    assert list(ok) == [ref_twisted_trace_check(a, b) for a, b in zip(fr, hr)]
    # the NaN stays in its own label: every other packet passes
    assert list(ok) == [k != 5 for k in range(7)]
    if name == "kappa_minkowski":
        for gen, index, power in (("E", 0, 3), ("E", 0, -1), ("X", 0, 1), ("X", 2, 1), ("P", 1, 1)):
            assert _rows_equal(act(gen, f, index=index, power=power),
                               [ref_act(gen, a, index=index, power=power) for a in fr])


def test_a_plain_packet_is_the_one_label_stack(kappa3):
    rng = np.random.default_rng(9)
    (f, fr), (h, hr) = _stacks(kappa3, rng, count=1)
    assert _rows_equal(star(f, h), [ref_star(fr[0], hr[0])])
    assert isinstance(f.norm(), float) and f.norm() == fr[0].norm()
    assert twisted_trace_check(f, h) is ref_twisted_trace_check(fr[0], hr[0]) is True
    g = plane_wave(kappa3, [[0.1, 0.2, 0.3, 0.4]], 2.0)
    assert g.count == 1 and _rows_equal(g, [RefPacket(kappa3, [[0.1, 0.2, 0.3, 0.4]], [2.0])])


def test_concat_and_split_relabel_without_merging(kappa3):
    (f, fr), (h, hr) = _stacks(kappa3, np.random.default_rng(10))
    both = concat([f, h, f])
    assert both.count == 21 and _rows_equal(both, fr + hr + fr)
    parts = both.split(3)
    assert [p.count for p in parts] == [7, 7, 7]
    assert _rows_equal(parts[0], fr) and _rows_equal(parts[1], hr) and _rows_equal(parts[2], fr)
    with pytest.raises(ValueError):
        both.split(2)
    with pytest.raises(GroupMismatch):
        concat([f, plane_wave(group_preset("kappa_minkowski", kappa=2.0, d=3), [0.1, 0.2, 0.3, 0.4])])


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
    lhs = delta_sum(kappa1, [(1.0, (p, kappa1.inv(p)))])
    rhs = delta_sum(kappa1, [(1.0, (q, kappa1.inv(q)))])
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


def _trace_packets(kappa, seed, count=100):
    """The suite's seeded (f, h) stacks of the twisted-trace-kappa row."""
    g = group_preset("kappa_minkowski", kappa=kappa, d=3)
    return _random_packets(waves, g, np.random.default_rng(seed), count)


@pytest.mark.parametrize("kappa, seeds", [(1.0, (1160, 1292, 2826)), (0.5, range(40))])
def test_twisted_trace_equality_is_relative_to_the_amplitudes(kappa, seeds):
    # their words reach |amplitude| 1e6 and differ by rounding, ~1e-10 absolute
    for seed in seeds:
        row = suite_trace(RunConfig(kappa=kappa, seed=seed))[0]
        assert row["check"] == "twisted-trace-kappa" and row["passed"] is True, seed


@pytest.mark.parametrize("kappa, seeds", [(1.0, (1160, 1292, 2826)), (0.5, range(0, 40, 4))])
def test_twisted_trace_still_sees_a_wrong_twist(kappa, seeds):
    for seed in seeds:
        f, h = _trace_packets(kappa, seed)
        lhs = integral_star(f, h)
        # E^{d-1} instead of E^d: every packet holds inverse pairs, so every label fails
        wrong = lhs.equals(integral_star(act("E", h, power=2), f))
        assert not np.any(wrong), seed
        # a NaN or inf amplitude fails its own label and no other
        amps = np.array([a for _, a in f.terms])
        amps[f._labels == 7] = np.nan
        amps[np.flatnonzero(f._labels == 9)[0]] = np.inf
        with np.errstate(invalid="ignore"):  # inf times a complex factor
            ok = twisted_trace_check(f._reweighted(amps), h)
        assert not ok[7] and not ok[9] and np.all(np.delete(ok, [7, 9])), seed


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
    base = delta_sum(g, terms)
    shuffled = delta_sum(g, terms, rng=np.random.default_rng(seed + 1))
    with pytest.MonkeyPatch.context() as mp:  # a fixture would outlive one example
        mp.setattr(waves, "EQUAL_TOL", 1e-9)
        assert base.equals(shuffled)


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


def test_a_nan_in_any_coordinate_keeps_its_atom_and_its_word(kappa3):
    # a zero atom is one with every |coordinate| <= MERGE_TOL, and a word is off
    # the support when some |coordinate| of its value exceeds SUPPORT_TOL: a NaN
    # in any coordinate answers both questions with "no", as a maximum over the
    # coordinates that propagates NaN does
    nan = math.nan
    W = np.array([
        [[0.0, 0.0, nan, 0.0], [0.3, 0.1, 0.2, 0.4]],  # zero but for a NaN in coordinate 2
        [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, nan]],  # a zero atom, and a NaN in coordinate 3
        [[-1000.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],  # value (-999, inf·0, inf·0, inf·0)
        [[0.5, 0.2, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],  # a zero atom, then off the support
    ])
    amps = np.array([1.0, 2.0, 3.0, 4.0], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        ds = waves.DeltaSum._of(kappa3, W, amps, np.zeros(4, np.intp), 1)
    kept = {a.real: np.array(atoms) for a, atoms in ds.terms}  # no word rotates
    assert sorted(kept) == [1.0, 2.0, 3.0]
    assert kept[1.0].shape == (2, 4) and np.isnan(kept[1.0]).sum() == 1
    assert kept[2.0].shape == (1, 4) and np.isnan(kept[2.0][0, 3])
    assert kept[3.0].shape == (2, 4) and not np.isnan(kept[3.0]).any()
