"""Ring-format cores: element/reconstruct oracles, subchains, rank bounds."""

import numpy as np
import pytest

from trtc import (
    TRCores,
    reconstruct,
    eq2_residual,
    rank_inequality_check,
    frobenius_norm,
)
from trtc.ring import TRRank, element, split_mode, subchain, subchain_gram, numerical_rank
from trtc.tensors import gamma_unfold, delta_unfold


def random_cores(rng, shape, ranks):
    n = len(shape)
    return TRCores(
        tuple(
            rng.standard_normal((ranks[i], shape[i], ranks[(i + 1) % n]))
            for i in range(n)
        )
    )


def element_oracle(cores, idx):
    # naive trace of the slice product, written independently of element()
    acc = np.eye(cores[0].shape[0])
    for c, i in zip(cores, idx):
        acc = acc @ c[:, i, :]
    return float(np.trace(acc))


def test_trrank_validation():
    with pytest.raises(ValueError):
        TRRank((3,))
    with pytest.raises(ValueError):
        TRRank((3, 0, 3))


def test_trcores_adjacency_validation():
    rng = np.random.default_rng(0)
    good = random_cores(rng, (3, 4, 5), (2, 3, 2))
    assert good.order == 3
    assert good.shape == (3, 4, 5)
    assert good.rank.ranks == (2, 3, 2)
    bad = (np.zeros((2, 3, 3)), np.zeros((2, 4, 2)))  # 3 != 2 on the shared bond
    with pytest.raises(ValueError):
        TRCores(bad)
    with pytest.raises(ValueError):
        TRCores((np.zeros((2, 3)),) * 2)


def test_element_rank_one_is_scalar_product():
    rng = np.random.default_rng(1)
    cores = random_cores(rng, (3, 4, 2), (1, 1, 1))
    for idx in np.ndindex(3, 4, 2):
        want = np.prod([c[0, i, 0] for c, i in zip(cores, idx)])
        assert abs(element(cores, idx) - want) < 1e-12


def test_element_order_two_rank_one_is_outer_product():
    rng = np.random.default_rng(2)
    u = rng.standard_normal(4)
    v = rng.standard_normal(3)
    cores = TRCores((u.reshape(1, 4, 1), v.reshape(1, 3, 1)))
    for i in range(4):
        for j in range(3):
            assert abs(element(cores, (i, j)) - u[i] * v[j]) < 1e-12


def test_element_matches_oracle_and_reconstruct():
    rng = np.random.default_rng(3)
    cores = random_cores(rng, (3, 2, 4, 2), (2, 3, 2, 2))
    z = reconstruct(cores)
    for idx in np.ndindex(*cores.shape):
        e = element(cores, idx)
        assert abs(e - element_oracle(cores, idx)) < 1e-10
        assert abs(e - z[idx]) < 1e-10


def test_element_index_errors():
    rng = np.random.default_rng(4)
    cores = random_cores(rng, (3, 3), (2, 2))
    with pytest.raises(IndexError):
        element(cores, (0, 3))
    with pytest.raises(ValueError):
        element(cores, (0, 0, 0))


def test_reconstruct_one_hot_chain():
    # rank-1 cores with a single unit slice each pick out one entry
    shape = (3, 4, 2)
    target = (2, 1, 0)
    cores = []
    for extent, t in zip(shape, target):
        c = np.zeros((1, extent, 1))
        c[0, t, 0] = 1.0
        cores.append(c)
    z = reconstruct(TRCores(tuple(cores)))
    want = np.zeros(shape)
    want[target] = 1.0
    np.testing.assert_array_equal(z, want)


def test_reconstruct_matches_element_on_random_indices():
    rng = np.random.default_rng(5)
    cores = random_cores(rng, (6, 6, 6, 6), (3, 3, 3, 3))
    z = reconstruct(cores)
    idxs = rng.integers(0, 6, size=(1000, 4))
    for idx in idxs:
        idx = tuple(int(i) for i in idx)
        assert abs(z[idx] - element(cores, idx)) < 1e-10


def test_reconstruct_norm_matches_elementwise_oracle():
    rng = np.random.default_rng(6)
    cores = random_cores(rng, (3, 4, 3), (2, 2, 2))
    vals = [element_oracle(cores, idx) for idx in np.ndindex(*cores.shape)]
    np.testing.assert_allclose(
        frobenius_norm(reconstruct(cores)), np.linalg.norm(vals), rtol=1e-10
    )


def test_element_trace_cyclic_invariance():
    rng = np.random.default_rng(7)
    cores = random_cores(rng, (3, 4, 2, 3), (2, 3, 2, 2))
    idx = (1, 3, 0, 2)
    base = element(cores, idx)
    cs = list(cores)
    for shift in range(1, 4):
        rotated = TRCores(tuple(cs[shift:] + cs[:shift]))
        ridx = idx[shift:] + idx[:shift]
        assert abs(element(rotated, ridx) - base) < 1e-10


def test_reconstruct_multilinear_in_each_core():
    rng = np.random.default_rng(8)
    cores = random_cores(rng, (3, 3, 3), (2, 2, 2))
    z = reconstruct(cores)
    for k in range(3):
        cs = list(cores)
        cs[k] = 2.5 * cs[k]
        np.testing.assert_allclose(reconstruct(TRCores(tuple(cs))), 2.5 * z, rtol=1e-10)


def test_subchain_order_two_single_factor():
    rng = np.random.default_rng(9)
    cores = random_cores(rng, (3, 4), (2, 3))
    np.testing.assert_array_equal(subchain(cores, 1), np.asarray(cores[1]))
    np.testing.assert_array_equal(subchain(cores, 2), np.asarray(cores[0]))


def test_subchain_rank_one_slices_are_scalar_products():
    rng = np.random.default_rng(10)
    cores = random_cores(rng, (2, 3, 2), (1, 1, 1))
    sc = subchain(cores, 2)  # merges cores 3 then 1, i3 fastest
    for i3 in range(2):
        for i1 in range(2):
            want = cores[2][0, i3, 0] * cores[0][0, i1, 0]
            assert abs(sc[0, i3 + 2 * i1, 0] - want) < 1e-12


def test_subchain_mode_out_of_range():
    rng = np.random.default_rng(11)
    cores = random_cores(rng, (2, 2), (1, 1))
    with pytest.raises(ValueError):
        subchain(cores, 3)


def test_chain_identity_small_suite():
    rng = np.random.default_rng(12)
    for _ in range(10):
        order = int(rng.integers(3, 6))
        shape = tuple(int(v) for v in rng.integers(2, 5, size=order))
        ranks = tuple(int(v) for v in rng.integers(1, 4, size=order))
        cores = random_cores(rng, shape, ranks)
        x = reconstruct(cores)
        nx = frobenius_norm(x)
        for n in range(1, order + 1):
            assert eq2_residual(cores, x, n) < 1e-9 * nx


def test_chain_identity_breaks_under_perturbation():
    rng = np.random.default_rng(13)
    cores = random_cores(rng, (3, 3, 3), (2, 2, 2))
    x = reconstruct(cores)
    cs = list(cores)
    cs[1] = cs[1].copy()
    cs[1][0, 0, 0] += 1.0
    assert eq2_residual(TRCores(tuple(cs)), x, 1) > 1e-3


def test_chain_identity_order_two_rank_one_exact():
    rng = np.random.default_rng(14)
    cores = random_cores(rng, (4, 5), (1, 1))
    x = reconstruct(cores)
    assert eq2_residual(cores, x, 1) < 1e-14
    assert eq2_residual(cores, x, 2) < 1e-14


def test_subchain_gram_matches_direct():
    # entry ((r_n, r_{n+1}), (r_n', r_{n+1}')), r_n fastest as in the columns
    # of Delta_2, is the sum over the merged index j of C[r_{n+1}, j, r_n]
    # C[r_{n+1}', j, r_n'], written independently of delta_unfold
    rng = np.random.default_rng(15)
    cores = random_cores(rng, (3, 4, 2, 3), (2, 3, 2, 2))
    for n in range(1, 5):
        c = subchain(cores, n)
        want = np.einsum("bja,djc->abcd", c, c).reshape(c.shape[0] * c.shape[2], -1, order="F")
        np.testing.assert_allclose(subchain_gram(cores, n), want, rtol=0, atol=1e-10)


def test_ring_references_reject_malformed_cores():
    # core 1's tail rank 2 is not core 2's head rank 3
    cores = [np.ones((2, 3, 2)), np.ones((3, 3, 2))]
    for reference in (lambda: element(cores, (0, 0)), lambda: subchain(cores, 1),
                      lambda: subchain_gram(cores, 1)):
        with pytest.raises(ValueError, match="core 1 tail rank 2 != core 2 head rank 3"):
            reference()
    with pytest.raises(ValueError, match="at least two cores"):
        subchain(cores[:1], 1)


@pytest.mark.parametrize("shape,m", [
    pytest.param((40, 40, 16), 1, id="reshape3"),
    pytest.param((5, 8, 5, 8, 4, 2, 2), 3, id="reshape7"),
    pytest.param((6,) * 8, 4, id="6^8"),
    pytest.param((10, 10, 10, 10), 2, id="10^4"),
    pytest.param((5, 6), 1, id="order2"),
    pytest.param((50, 2, 2, 2), 1, id="first-end"),
    pytest.param((2, 2, 2, 50), 3, id="last-end"),
    pytest.param((2, 2, 2), 1, id="tie"),
])
def test_split_mode_minimises_the_larger_half(shape, m):
    # halves 1..m and m+1..N; the first m on a tie
    assert split_mode(shape) == m


def test_numerical_rank_thresholding():
    m = np.diag([1.0, 1e-12, 0.0])
    assert numerical_rank(m) == 1
    assert numerical_rank(np.zeros((3, 3))) == 0


def test_rank_inequality_random_instances():
    rng = np.random.default_rng(16)
    for _ in range(10):
        order = int(rng.integers(3, 5))
        shape = tuple(int(v) for v in rng.integers(2, 5, size=order))
        ranks = tuple(int(v) for v in rng.integers(1, 4, size=order))
        cores = random_cores(rng, shape, ranks)
        x = reconstruct(cores)
        for n in range(1, order + 1):
            assert rank_inequality_check(cores, x, n)


def test_rank_inequality_zero_cores():
    cores = TRCores((np.zeros((2, 3, 2)), np.zeros((2, 3, 2)), np.zeros((2, 3, 2))))
    x = reconstruct(cores)
    for n in range(1, 4):
        assert rank_inequality_check(cores, x, n)


def test_rank_one_cores_bound_unfolding_rank_by_three():
    rng = np.random.default_rng(17)
    cores = random_cores(rng, (4, 4, 4), (1, 1, 1))
    x = reconstruct(cores)
    for n in range(1, 4):
        assert numerical_rank(delta_unfold(x, n)) <= 3
        # each unfolding of a rank-1-bond core is rank <= 1 here
        assert sum(numerical_rank(gamma_unfold(np.asarray(cores[n - 1]), i)) for i in (1, 2, 3)) <= 3


# malformed cores, the TRCores message each is rejected with, and an x of
# the extents they would have
MALFORMED = {
    "one core": ([np.ones((2, 3, 2))], "at least two cores", (3,)),
    "ranks do not chain": ([np.ones((2, 3, 2)), np.ones((3, 3, 2))], "tail rank", (3, 3)),
    "order-2 cores": ([np.ones((2, 3)), np.ones((3, 2))], "order 3", (3, 3)),
}
RING_FUNCTIONS = {
    "reconstruct": lambda cores, x: reconstruct(cores),
    "eq2_residual": lambda cores, x: eq2_residual(cores, x, 1),
    "rank_inequality_check": lambda cores, x: rank_inequality_check(cores, x, 1),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("fn", sorted(RING_FUNCTIONS))
def test_ring_functions_reject_malformed_cores(fn, case):
    cores, message, extents = MALFORMED[case]
    with pytest.raises(ValueError, match=message):
        RING_FUNCTIONS[fn](cores, np.ones(extents))


@pytest.mark.parametrize("x_shape", [(3, 4), (5, 4, 3), (3, 4, 5, 1)])
@pytest.mark.parametrize("fn", ["eq2_residual", "rank_inequality_check"])
def test_ring_checks_reject_x_of_other_extents(fn, x_shape):
    cores = random_cores(np.random.default_rng(18), (3, 4, 5), (2, 2, 2))
    with pytest.raises(ValueError, match="does not match the cores' extents"):
        RING_FUNCTIONS[fn](cores, np.ones(x_shape))
