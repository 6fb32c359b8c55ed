import math
import tracemalloc

import numpy as np
import pytest

import moyal_oracle as O
from qstkit import moyal_matrix as MM


def test_basis_product_matrix_form():
    N = 8
    a = O.basis_element(0, 1, 1.0, N)
    b = O.basis_element(1, 2, 1.0, N)
    prod = MM.star(a, b)
    assert np.array_equal(O.dense(prod), O.dense(O.basis_element(0, 2, 1.0, N)))
    zero = MM.star(a, O.basis_element(0, 2, 1.0, N))
    assert np.all(O.dense(zero) == 0)


def test_involution():
    N = 6
    e = O.basis_element(2, 4, 1.0, N)
    assert np.array_equal(O.dense(MM.dagger(e)), O.dense(O.basis_element(4, 2, 1.0, N)))


def test_trace_pairing():
    N = 6
    theta = 0.7
    f01 = O.basis_element(0, 1, theta, N)
    f10 = O.basis_element(1, 0, theta, N)
    assert MM.trace_pairing(f01, f01) == pytest.approx(2 * math.pi * theta)
    assert MM.trace_pairing(f01, f10) == 0
    rng = np.random.default_rng(0)
    a = O.from_matrix(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)), theta)
    assert MM.trace_pairing(a, a).real >= 0
    assert abs(MM.trace_pairing(a, a).imag) < 1e-12


def test_truncation_rejected_not_projected():
    with pytest.raises(MM.TruncationError):
        O.basis_element(8, 0, 1.0, 8)
    with pytest.raises(ValueError):
        MM.star(O.basis_element(0, 0, 1.0, 4), O.basis_element(0, 0, 1.0, 8))


def test_partition_check_N32():
    rep = MM.partition_check(32, 1.0)
    assert rep["passed"]
    assert rep["positivity_witness_error"] == 0.0
    assert rep["unity_reconstruction_error"] == 0.0
    assert rep["diagonal_commutation_error"] == 0.0


def test_positivity_witness_rule():
    # f_m0 * f_0m = f_mm via the delta_00 rule
    N = 8
    for m in range(N):
        w = MM.star(O.basis_element(m, 0, 1.0, N), O.basis_element(0, m, 1.0, N))
        assert np.array_equal(O.dense(w), O.dense(O.basis_element(m, m, 1.0, N)))


def test_diagonal_orthogonality():
    N = 8
    f11 = O.basis_element(1, 1, 1.0, N)
    f22 = O.basis_element(2, 2, 1.0, N)
    assert np.all(O.dense(MM.star(f11, f22)) == 0)
    assert np.all(O.dense(MM.star(f22, f11)) == 0)


def test_identity_checks_N32():
    rep = MM.identity_checks(32, 1.0)
    assert set(rep) == {"delta_rule", "involution", "orthonormality", "associativity"}
    for val in rep.values():
        assert val == 0.0


# --- supports against the dense oracle ----------------------------------------

@pytest.mark.parametrize("N", [1, 2, 8, 32, 256])
@pytest.mark.parametrize("seed", range(5))
def test_checks_equal_dense_oracle(N, seed):
    assert MM.identity_checks(N, 1.0, seed=seed) == O.identity_checks(N, 1.0, seed=seed)
    assert MM.partition_check(N, 1.0, seed=seed) == O.partition_check(N, 1.0, seed=seed)


def _random_support(rng, N, size, pool=None):
    """A support of `size` draws (repeats summed) with complex values; indices from `pool`."""
    idx = rng.integers(0, N if pool is None else pool, size=(2, size))
    vals = rng.normal(size=size) + 1j * rng.normal(size=size)
    return MM.TruncatedElement(idx[0], idx[1], vals, 0.7, N)


def _random_dense(rng, N):
    return O.from_matrix(rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N)), 0.7)


def _fast_paths_agree(seed, N=9):
    """Products, dagger and pairing of sparse and full supports against plain numpy."""
    rng = np.random.default_rng(seed)
    a, b = _random_support(rng, N, 12), _random_support(rng, N, 12)
    d = _random_dense(rng, N)
    # few distinct indices, so many product terms meet and partly cancel
    c = _random_support(rng, N, 6, pool=2)
    c_neg = MM.TruncatedElement(c.cols, c.rows, -c.vals, 0.7, N)
    ok = True
    for x, y in ((a, b), (b, a), (a, d), (d, a), (d, b), (c, c_neg), (c_neg, c), (a, a)):
        ok &= np.allclose(O.dense(MM.star(x, y)), O.dense(x) @ O.dense(y), rtol=0, atol=1e-12)
        ok &= abs(MM.trace_pairing(x, y) - O.trace_pairing(O.dense(x), O.dense(y), 0.7)) < 1e-12
    for x in (a, b, c, d):
        ok &= np.array_equal(O.dense(MM.dagger(x)), O.dense(x).conj().T)
    return bool(ok)


@pytest.mark.parametrize("seed", range(20))
def test_fast_paths_equal_dense_products(seed):
    assert _fast_paths_agree(seed)


def test_support_products_drop_cancelled_terms():
    N = 4
    a = MM.TruncatedElement([0, 0], [1, 2], [1.0, 1.0], 1.0, N)
    b = MM.TruncatedElement([1, 2], [3, 3], [1.0, -1.0], 1.0, N)
    prod = MM.star(a, b)  # f_03 - f_03 = 0
    assert len(prod.vals) == 0
    assert np.all(O.dense(prod) == 0)
    b2 = MM.TruncatedElement([1, 2], [3, 3], [1.0, 2.0], 1.0, N)
    assert MM.star(a, b2).vals.tolist() == [3.0]  # f_03 + 2 f_03


def test_sparse_sums_repeats_and_rejects_bad_supports():
    e = MM.TruncatedElement([1, 1, 0], [2, 2, 0], [1.0, 2j, 0.0], 1.0, 3)
    assert O.dense(e)[1, 2] == 1 + 2j and np.count_nonzero(O.dense(e)) == 1
    with pytest.raises(MM.TruncationError):
        MM.TruncatedElement([3], [0], [1.0], 1.0, 3)
    with pytest.raises(ValueError):
        MM.TruncatedElement([0], [0], [math.inf], 1.0, 3)
    with pytest.raises(ValueError):
        MM.TruncatedElement([0, 1], [0], [1.0], 1.0, 3)


def _support(e):
    return e.rows.tolist(), e.cols.tolist(), e.vals.tolist()


def test_basis_elements_hold_no_matrix():
    e = O.basis_element(3, 5, 1.0, 8)
    assert not hasattr(e, "dense") and not hasattr(e, "coeff")
    assert _support(e) == ([3], [5], [1])
    assert _support(MM.star(e, O.basis_element(5, 2, 1.0, 8))) == ([3], [2], [1])
    assert _support(MM.dagger(e)) == ([5], [3], [1])


def test_a_matrix_is_held_as_its_nonzero_entries():
    c = np.array([[0, 2j, 0], [1.5, 0, 0], [0, 0, -1]])
    e = O.from_matrix(c, 1.0)
    assert _support(e) == ([0, 1, 2], [1, 0, 2], [2j, 1.5, -1])
    assert np.array_equal(O.dense(e), c)
    with pytest.raises(ValueError, match="finite"):
        O.from_matrix(np.array([[0, math.nan], [0, 0]]), 1.0)


def test_partition_check_memory_is_below_one_matrix(monkeypatch):
    N = 4096
    monkeypatch.setattr(MM, "UNITY_SAMPLES", 0)  # a dense sample g is one N x N matrix
    tracemalloc.start()
    try:
        rep = MM.partition_check(N, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["passed"]
    assert peak < N * N, peak


# --- negative controls: a broken fast path must show in the checks -----------

def test_swapped_star_breaks_delta_rule(monkeypatch):
    real = MM.star
    monkeypatch.setattr(MM, "star", lambda a, b: real(b, a))
    assert MM.identity_checks(4, 1.0, seed=0)["delta_rule"] != 0


def test_untransposed_dagger_breaks_involution(monkeypatch):
    monkeypatch.setattr(MM, "dagger", lambda a: MM.TruncatedElement(
        a.rows, a.cols, a.vals.conj(), a.theta, a.N))
    assert MM.identity_checks(4, 1.0, seed=0)["involution"] != 0


def test_unconjugated_pairing_fails_on_complex_support(monkeypatch):
    real = MM.trace_pairing

    def no_conj(a, b):  # conjugating a's entries first cancels the pairing's conj
        return real(MM.TruncatedElement(a.rows, a.cols, a.vals.conj(), a.theta, a.N), b)

    monkeypatch.setattr(MM, "trace_pairing", no_conj)
    assert not _fast_paths_agree(0)


@pytest.mark.parametrize("N", [8, 32])
@pytest.mark.parametrize("wrong", ["transposed", "conjugated"])
def test_associativity_sees_a_wrong_product(wrong, N, monkeypatch):
    # the Gaussian-integer triples make a correct product read exactly 0
    real = MM.star

    def star(a, b):
        rows, cols, vals = (b.cols, b.rows, b.vals) if wrong == "transposed" else (
            b.rows, b.cols, b.vals.conj())
        return real(a, MM.TruncatedElement(rows, cols, vals, b.theta, b.N))

    assert MM.identity_checks(N, 1.0)["associativity"] == 0.0
    monkeypatch.setattr(MM, "star", star)
    assert MM.identity_checks(N, 1.0)["associativity"] > 1.0


# --- key order: every support is sorted by rows·N + cols ----------------------

def _in_key_order(e):
    keys = e.rows * e.N + e.cols
    return bool(np.all(keys[1:] > keys[:-1]))


def test_every_operation_returns_strictly_increasing_keys():
    N = 7
    rng = np.random.default_rng(3)
    rows, cols = rng.integers(0, N, size=(2, 40))  # unsorted, with repeated pairs
    a = MM.TruncatedElement(rows, cols, rng.normal(size=40) + 1j, 1.0, N)
    b = _random_support(rng, N, 30)
    assert len(a.vals) < 40 and _in_key_order(a) and _in_key_order(b)
    assert _in_key_order(O.basis_element(5, 2, 1.0, N))
    for x, y in ((a, b), (b, a), (a, a)):
        assert _in_key_order(MM.star(x, y))
    assert len(a.vals) > 1 and _in_key_order(MM.dagger(a)) and _in_key_order(MM.dagger(b))
    assert np.array_equal(O.dense(MM.dagger(a)), O.dense(a).conj().T)


def _paired_supports(rng, N, kind):
    """Two random supports whose key sets are equal, overlap, are disjoint or one is empty."""
    keys = rng.permutation(N * N)
    size = N * N // 3
    pick = {"equal": (keys[:size], keys[:size]),
            "overlapping": (keys[:size], keys[size // 2:size + size // 2]),
            "disjoint": (keys[:size], keys[size:2 * size]),
            "empty": (keys[:size], keys[:0]),
            "both-empty": (keys[:0], keys[:0])}[kind]
    return [MM.TruncatedElement(k // N, k % N, rng.normal(size=len(k)) + 1j * rng.normal(size=len(k)),
                                0.7, N) for k in pick]


@pytest.mark.parametrize("kind", ["equal", "overlapping", "disjoint", "empty", "both-empty"])
@pytest.mark.parametrize("seed", range(3))
def test_matched_keys_agree_with_the_dense_oracle(kind, seed):
    rng = np.random.default_rng(seed)
    a, b = _paired_supports(rng, 9, kind)
    for x, y in ((a, b), (b, a)):
        assert MM._max_diff(x, y) == np.max(np.abs(O.dense(x) - O.dense(y)))
        want = O.trace_pairing(O.dense(x), O.dense(y), 0.7)
        assert abs(MM.trace_pairing(x, y) - want) <= 1e-12 * (1 + abs(want))


def test_star_with_repeated_columns_matches_the_dense_product():
    N = 6
    rng = np.random.default_rng(5)
    # a's entries share two columns, so each of b's rows 1 and 4 meets many of them
    a = MM.TruncatedElement(np.arange(N).repeat(2), np.tile([1, 4], N),
                            rng.normal(size=2 * N) + 1j * rng.normal(size=2 * N), 1.0, N)
    b = _random_support(rng, N, 20)
    assert np.allclose(O.dense(MM.star(a, b)), O.dense(a) @ O.dense(b), rtol=0, atol=1e-12)
    assert np.allclose(O.dense(MM.star(b, a)), O.dense(b) @ O.dense(a), rtol=0, atol=1e-12)


# --- batched families: one product per identity, and each still sees a wrong kernel

def _star_calls(monkeypatch, N):
    calls, real = [], MM.star
    monkeypatch.setattr(MM, "star", lambda a, b: calls.append(1) or real(a, b))
    MM.partition_check(N, 1.0)
    MM.identity_checks(N, 1.0)
    return len(calls)


def test_star_calls_do_not_grow_with_N(monkeypatch):
    assert _star_calls(monkeypatch, 8) == _star_calls(monkeypatch, 256)


def test_positivity_witnesses_are_f_m0_up_to_one_block(monkeypatch):
    seen, real = [], MM.star
    monkeypatch.setattr(MM, "star", lambda a, b: seen.append((a, b)) or real(a, b))
    MM.partition_check(MM.WITNESS_BLOCK, 1.0)
    g = seen[0][0]
    assert _support(g) == (list(range(MM.WITNESS_BLOCK)), [0] * MM.WITNESS_BLOCK,
                           [1] * MM.WITNESS_BLOCK)


@pytest.mark.parametrize("N", [4, 32, 256])
def test_swapped_star_breaks_positivity_and_delta_rule(N, monkeypatch):
    real = MM.star
    monkeypatch.setattr(MM, "star", lambda a, b: real(b, a))
    assert MM.partition_check(N, 1.0)["positivity_witness_error"] != 0
    assert MM.identity_checks(N, 1.0)["delta_rule"] != 0


def test_star_dropping_one_term_breaks_positivity(monkeypatch):
    real = MM.star

    def star(a, b):
        r = real(a, b)
        return MM.TruncatedElement(r.rows[1:], r.cols[1:], r.vals[1:], r.theta, r.N)

    monkeypatch.setattr(MM, "star", star)
    assert MM.partition_check(256, 1.0)["positivity_witness_error"] != 0


@pytest.mark.parametrize("N", [4, 32, 256])
def test_untransposed_dagger_breaks_batched_involution(N, monkeypatch):
    monkeypatch.setattr(MM, "dagger", lambda a: MM.TruncatedElement(
        a.rows, a.cols, a.vals.conj(), a.theta, a.N))
    assert MM.identity_checks(N, 1.0)["involution"] != 0


@pytest.mark.parametrize("N", [2, 4, 8, 32, 256])
def test_unconjugated_pairing_breaks_orthonormality(N, monkeypatch):
    real = MM.trace_pairing
    monkeypatch.setattr(MM, "trace_pairing", lambda a, b: real(
        MM.TruncatedElement(a.rows, a.cols, a.vals.conj(), a.theta, a.N), b))
    assert MM.identity_checks(N, 1.0)["orthonormality"] != 0
