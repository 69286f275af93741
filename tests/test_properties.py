"""Property tests: fold/unfold round trips, ring contractions and the .trtc file format."""

import functools

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from trtc import read_tensor, write_tensor, TensorFileError  # noqa: E402
from trtc.tensors import gamma_unfold, gamma_fold, delta_unfold  # noqa: E402
from trtc.ring import (  # noqa: E402
    _merge, _trace_contract, data_sweep, element, identity_chain, reconstruct,
    split_mode, subchain, subchain_gram, transfer, transfer_gram,
)
from trtc.prox import core_update_llrf, core_update_olrf, svt  # noqa: E402

# orders 1-5, extents 1-4; any float64, NaN and infinities included
ANY_TENSOR = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=5, min_side=1, max_side=4))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes(order="F") == b.tobytes(order="F")


@pytest.fixture(scope="module")
def tensor_path(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "t.trtc"


@given(ANY_TENSOR)
def test_fold_of_unfold_is_bitwise_identity(t):
    for n in range(1, t.ndim + 1):
        assert same_bits(gamma_fold(gamma_unfold(t, n), n, t.shape), t)
        # Delta_n entry by entry: row i_n, columns over modes n+1..N, 1..n-1,
        # first listed fastest
        rest = [(n - 1 + k) % t.ndim for k in range(1, t.ndim)]
        strides = np.cumprod([1] + [t.shape[a] for a in rest])
        want = np.empty((t.shape[n - 1], strides[-1]))
        for idx in np.ndindex(*t.shape):
            want[idx[n - 1], sum(idx[a] * s for a, s in zip(rest, strides))] = t[idx]
        assert same_bits(delta_unfold(t, n), want)
        # Gamma_n the same way, its columns over the other modes in natural order
        rest = [a for a in range(t.ndim) if a != n - 1]
        strides = np.cumprod([1] + [t.shape[a] for a in rest])
        want = np.empty_like(want)
        for idx in np.ndindex(*t.shape):
            want[idx[n - 1], sum(idx[a] * s for a, s in zip(rest, strides))] = t[idx]
        assert same_bits(gamma_unfold(t, n), want)
    # t as a stack of tensors along its first axis: each unfolds alone
    for n in range(1, t.ndim):
        m = gamma_unfold(t, n, stacked=True)
        assert all(same_bits(m[j], gamma_unfold(t[j], n)) for j in range(len(t)))
        assert same_bits(gamma_fold(m, n, t.shape[1:]), t)


SPECTRA = ("normal", "graded", "deficient")


@st.composite
def matrix_stacks(draw):
    # 1-5 matrices of one shape, tall, wide or square, up to 20 a side: iid
    # normal, graded (singular values 1 down to 1e-14) or rank deficient
    # (a product through an inner dimension of half the shorter side)
    shape = (draw(st.integers(1, 5)), draw(st.integers(1, 20)), draw(st.integers(1, 20)))
    return stack_of(shape, draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from(SPECTRA)))


def stack_of(shape, seed, spectrum="normal"):
    rng = np.random.default_rng(seed)
    if spectrum == "normal":
        return rng.standard_normal(shape)
    s, m, n = shape
    k = min(m, n)
    if spectrum == "deficient":
        return rng.standard_normal((s, m, k // 2)) @ rng.standard_normal((s, k // 2, n))
    u = np.linalg.qr(rng.standard_normal((s, m, k)))[0]
    v = np.linalg.qr(rng.standard_normal((s, n, k)))[0]
    return (u * np.logspace(0, -14, k)) @ np.swapaxes(v, 1, 2)


def truncated_svt(a, beta):
    # the reference: each matrix's SVD product over the values above beta
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    k = int(np.count_nonzero(s > beta))
    return (u[:, :k] * (s[:k] - beta)) @ vt[:k], s, k


# beta / s_max at s_max / beta just inside and just beyond svt's Gram route
NEAR_THE_GUARD = (1 / 0.999e4, 1 / 1.001e4)


# tall, wide and square; a threshold of 0, thresholds that keep different
# counts in the matrices of a stack, one above the largest singular value,
# and the two sides of the Gram route's guard, on graded and rank-deficient
# spectra too
@example(stack_of((3, 20, 6), 0), 0.0)
@example(stack_of((2, 5, 9), 1), 0.5)
@example(stack_of((4, 18, 18), 2), 0.4)
@example(stack_of((5, 19, 17), 3), 1.01)
@example(stack_of((3, 7, 16), 4, "graded"), 1e-13)
@example(stack_of((3, 16, 7), 5, "graded"), NEAR_THE_GUARD[0])
@example(stack_of((3, 16, 7), 5, "graded"), NEAR_THE_GUARD[1])
@example(stack_of((2, 12, 9), 6, "deficient"), 0.0)
@example(stack_of((2, 9, 12), 7, "deficient"), 0.3)
@given(matrix_stacks(), st.one_of(st.just(0.0), st.floats(0.0, 1.2), st.sampled_from(NEAR_THE_GUARD)))
def test_stacked_svt_matches_the_per_matrix_truncated_product(a, frac):
    beta = frac * np.linalg.svd(a, compute_uv=False).max()
    res = svt(a, beta)
    kept, tied = 0, False
    for j, aj in enumerate(a):
        # stacking changes no bit of a matrix's result
        assert same_bits(res.matrix[j], svt(aj, beta).matrix)
        want, s, k = truncated_svt(aj, beta)
        np.testing.assert_allclose(res.matrix[j], want, rtol=0, atol=1e-12 * s[0])
        kept += k
        tied = tied or np.abs(s - beta).min() <= 1e-6 * s[0]
    # a singular value within rounding of beta may count either way
    if not tied:
        assert res.effective_rank == kept


@st.composite
def rings(draw):
    # cores of a random ring: order 2-5, extents 1-3, ranks 1-3
    order = draw(st.integers(2, 5))
    extents = draw(st.lists(st.integers(1, 3), min_size=order, max_size=order))
    ranks = draw(st.lists(st.integers(1, 3), min_size=order, max_size=order))
    values = st.floats(-2.0, 2.0, allow_nan=False)
    return [
        draw(hnp.arrays(np.float64, (ranks[i], extents[i], ranks[(i + 1) % order]), elements=values))
        for i in range(order)
    ]


@given(rings())
def test_subchain_and_reconstruct_match_element(cores):
    order = len(cores)
    for n in range(1, order + 1):
        chain = subchain(cores, n)
        others = [cores[(n - 1 + k) % order] for k in range(1, order)]
        merged = tuple(c.shape[1] for c in others)
        assert chain.shape == (others[0].shape[0], int(np.prod(merged)), cores[n - 1].shape[0])
        for j in range(chain.shape[1]):
            # merged index j runs over (i_{n+1},...,i_N,i_1,...,i_{n-1}), first fastest
            idx = np.unravel_index(j, merged, order="F")
            want = others[0][:, idx[0], :]
            for c, i in zip(others[1:], idx[1:]):
                want = want @ c[:, i, :]
            np.testing.assert_allclose(chain[:, j, :], want, rtol=1e-12, atol=1e-12)
    z = reconstruct(cores)
    assert z.shape == tuple(c.shape[1] for c in cores)
    for idx in np.ndindex(z.shape):
        np.testing.assert_allclose(z[idx], element(cores, idx), rtol=1e-12, atol=1e-12)


@st.composite
def ring_problems(draw):
    # extents (order 2-6, extents 1-4), ranks 1-3 and a seed for the values
    order = draw(st.integers(2, 6))
    extents = tuple(draw(st.lists(st.integers(1, 4), min_size=order, max_size=order)))
    ranks = tuple(draw(st.lists(st.integers(1, 3), min_size=order, max_size=order)))
    return extents, ranks, draw(st.integers(0, 2**32 - 1))


def ring_instance(problem):
    # random cores and a random dense x of the ring's shape
    extents, ranks, seed = problem
    rng = np.random.default_rng(seed)
    order = len(extents)
    cores = [rng.standard_normal((ranks[i], extents[i], ranks[(i + 1) % order])) for i in range(order)]
    return cores, rng.standard_normal(extents)


def layouts(x):
    # the same tensor C-ordered, Fortran-ordered and as a strided view
    big = np.zeros(tuple(2 * e for e in x.shape))
    view = big[tuple(slice(None, None, 2) for _ in x.shape)]
    view[...] = x
    return np.ascontiguousarray(x), np.asfortranarray(x), view


@given(rings())
def test_merge_with_identity_chain_returns_the_core(cores):
    # the empty side is exact: merging it in on either side changes no bit,
    # but for a -0.0 entry, which comes back +0.0 (hence the + 0.0)
    for c in cores:
        assert same_bits(_merge(identity_chain(c.shape[0]), c), c + 0.0)
        assert same_bits(_merge(c, identity_chain(c.shape[2])), c + 0.0)


def dense_terms(x, cores, n):
    # the data term and the Gram of core n from the dense unfoldings, each
    # with the scale of its rounding error: the data term's entries can
    # cancel, so its error is bounded by the product of its factors' norms
    dx, d2 = delta_unfold(x, n), delta_unfold(subchain(cores, n), 2)
    gram = d2.T @ d2
    return (dx @ d2, np.linalg.norm(dx) * np.linalg.norm(d2)), (gram, np.linalg.norm(gram))


def assert_close(got, want, scale=None):
    # within 1e-12 of want, relative to want's norm or to the scale given
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * (np.linalg.norm(want) if scale is None else scale)


# (2, 2, 3, 2) splits at m = 2, so both halves have a core with chains on
# both sides; (3, 2, 4) splits at m = N - 1 and (4, 2, 2) at m = 1, so one
# half is a single core; order 2 has identity chains at both ends
@example(((2, 2, 3, 2), (2, 3, 1, 2), 0))
@example(((3, 2, 4), (2, 1, 3), 1))
@example(((4, 2, 2), (3, 2, 1), 3))
@example(((3, 2), (2, 3), 2))
@given(ring_problems())
def test_data_term_matches_dense_reference(problem):
    # a Gauss-Seidel sweep that replaces each core after its terms yields,
    # for core n, the data term and Gram of the cores as they now are, for
    # x C-ordered, Fortran-ordered and strided. Resumed after the last core,
    # it yields the halves that reconstruct contracts; resumed once more, it
    # sweeps again over x as it now is, refilled in place as a solver does
    cores, x = ring_instance(problem)
    rng = np.random.default_rng(problem[2] + 1)
    for xl in layouts(x):
        cs = list(cores)
        terms = data_sweep(xl, cs)
        for _ in range(2):
            for n in range(1, len(cs) + 1):
                for got, (want, scale) in zip(next(terms), dense_terms(xl, cs, n)):
                    assert_close(got, want, scale)
                cs[n - 1] = rng.standard_normal(cs[n - 1].shape)
            prefix, suffix = next(terms)
            z = _trace_contract(prefix, suffix).reshape(problem[0], order="F")
            assert same_bits(z, reconstruct(cs))
            xl[...] = rng.standard_normal(x.shape)


@example(((2, 2, 3, 2), (2, 3, 1, 2), 0))
@example(((3, 2), (2, 3), 2))
@given(ring_problems())
def test_reconstruct_matches_full_chain_contraction(problem):
    # the old reconstruction: the chain of cores 1..N-1 against core N
    cores, _ = ring_instance(problem)
    want = _trace_contract(subchain(cores, len(cores)), cores[-1]).reshape(problem[0], order="F")
    got = reconstruct(cores)
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# (4, 2, 2) splits at m = 1, (3, 2, 4) at m = N - 1, and (2, 3) has one
# column per half: there every contraction is a gemv
@example(((2, 2, 3, 2), (2, 3, 1, 2), 0))
@example(((4, 2, 2), (3, 2, 1), 3))
@example(((3, 2, 4), (2, 1, 3), 1))
@example(((2, 3), (2, 3), 2))
@given(ring_problems())
def test_trace_contract_bits_do_not_depend_on_layout(problem):
    # the halves a data sweep ends with, each C-ordered, Fortran-ordered,
    # strided and (the prefix) as the sweep lays it out, and one-column
    # ranges of the suffix, a gemv: the same bits as the C-ordered operands
    cores, x = ring_instance(problem)
    terms = data_sweep(x, cores)
    for _ in cores:
        next(terms)
    prefix, suffix = next(terms)
    # the sweep's layout makes the contraction's left operand a view
    assert prefix.transpose(0, 2, 1).flags.c_contiguous
    ranges = [suffix] + [suffix[:, k:k + 1] for k in range(suffix.shape[1])]
    for last in ranges:
        want = _trace_contract(np.ascontiguousarray(prefix), np.ascontiguousarray(last))
        for acc in (prefix, *layouts(prefix)):
            for lst in layouts(last):
                assert same_bits(_trace_contract(acc, lst), want)


@example(((2, 2, 3, 2), (2, 3, 1, 2), 0))
@example(((3, 2), (2, 3), 2))
@given(ring_problems())
def test_subchain_gram_matches_dense_reference(problem):
    # the transfer route a data sweep reads its Grams from, written out per
    # core: the transfers of cores 1..n-1 and n+1..N multiplied out, against
    # the dense reference subchain_gram
    cores, _ = ring_instance(problem)
    trans = [transfer(c) for c in cores]
    for n in range(1, len(cores) + 1):
        prefix = functools.reduce(np.matmul, trans[:n - 1], np.eye(len(trans[0])))
        suffix = functools.reduce(np.matmul, trans[n:], np.eye(trans[n - 1].shape[1]))
        want = subchain_gram(cores, n)
        got = transfer_gram(prefix, suffix)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def group_penalty(aux, duals, mu):
    # a core update's penalty term as the solver loop forms it, for a shape
    # group of one core: stacks (3, 1, ...) and (k, 1, ...), unfolded stacked
    aux, duals = np.array(aux)[:, None], np.array(duals)[:, None]
    return gamma_unfold(mu * aux.sum(0) + duals.sum(0), 2, stacked=True)[0]


# (5, 6, 4) at rank (2, 3, 2) has three core shapes, a shape group of one
# each in a solver; (50, 2, 2, 2) splits at m = 1 and (2, 2, 2, 50) at
# m = N - 1, so one half is a single core at either end
@example(((2, 2, 3, 2), (2, 3, 1, 2), 0))
@example(((3, 2), (2, 3), 2))
@example(((5, 6, 4), (2, 3, 2), 3))
@example(((50, 2, 2, 2), (2, 3, 2, 2), 4))
@example(((2, 2, 2, 50), (2, 3, 2, 2), 5))
@given(ring_problems())
def test_core_updates_without_chains_equal_the_solver_chains(problem):
    # a core update given the terms a Gauss-Seidel data sweep yields, as the
    # solver loop makes it, agrees with one that builds its system from the
    # dense unfoldings of x and the cores as they now are
    cores, x = ring_instance(problem)
    rng = np.random.default_rng(problem[2] + 1)
    terms = data_sweep(x, cores)
    for n in range(1, len(cores) + 1):
        data, gram = next(terms)
        core = cores[n - 1]
        aux = [rng.standard_normal(core.shape) for _ in range(3)]
        duals = [rng.standard_normal(core.shape) for _ in range(3)]
        assert_close(core_update_llrf(x, cores, aux, duals[0], n, 10.0, 2.0,
                                      sides=(data, gram, group_penalty(aux, duals[:1], 2.0))),
                     core_update_llrf(x, cores, aux, duals[0], n, 10.0, 2.0))
        new = core_update_olrf(x, cores, aux, duals, n, 10.0, 2.0,
                               sides=(data, gram, group_penalty(aux, duals, 2.0)))
        assert_close(new, core_update_olrf(x, cores, aux, duals, n, 10.0, 2.0))
        cores[n - 1] = new


def tensordot_sweep(x, cores, transposed=True):
    # the sides of one data_sweep over x, with every partial carried past a
    # core by np.tensordot: the formulation data_sweep's products replace.
    # Its first gemm, x against the suffix chain as a matrix s, is formed
    # as data_sweep forms it, transposed and laid out C-ordered, or, with
    # transposed=False, in the plain order x_half @ s
    shape, order = x.shape, len(cores)
    m = split_mode(shape)
    r = cores[0].shape[0]
    suffixes = [identity_chain(r)]
    for c in reversed(cores[m:]):
        suffixes.append(c if len(suffixes) == 1 else _merge(c, suffixes[-1]))
    x_half = x.reshape(int(np.prod(shape[:m])), -1, order="F")
    s = suffixes[-1].transpose(1, 2, 0).reshape(x_half.shape[1], -1)
    u = np.ascontiguousarray((s.T @ x_half.T).T) if transposed else x_half @ s
    partials = [u.reshape(shape[m - 1], -1, r, suffixes[-1].shape[0])]
    for n in range(m, 1, -1):
        u = np.tensordot(partials[-1], cores[n - 1], axes=([0, 3], [1, 2]))  # [j, r_1, r_n]
        partials.append(u.reshape(shape[n - 2], -1, *u.shape[1:]))
    prefix = identity_chain(r)
    for n in range(1, m + 1):
        yield prefix, partials.pop()
        prefix = cores[0] if n == 1 else _merge(prefix, cores[n - 1])
    v = x_half.T @ prefix.transpose(1, 0, 2).reshape(x_half.shape[0], -1)
    v = v.reshape(-1, shape[m], r, prefix.shape[2])
    for n in range(m + 1, order + 1):
        yield v, suffixes[order - n]
        if n < order:
            v = np.tensordot(v, cores[n - 1], axes=([1, 3], [1, 0]))  # [k, r_1, r_{n+1}]
            v = v.reshape(-1, shape[n], *v.shape[1:])


def tensordot_data_term(prefix, suffix):
    # the data term of core n with its one contraction written as np.tensordot
    if suffix.ndim == 4:
        t = np.tensordot(suffix, prefix, axes=([1, 2], [1, 0]))  # [i_n, r_{n+1}, r_n]
    else:
        t = np.tensordot(prefix, suffix, axes=([0, 2], [1, 2])).transpose(0, 2, 1)
    return t.reshape(len(t), -1)


# the first gemm's orientation shows at ((2, 2, 4, 4), (2, 1, 1, 1), 0)
@example(((2, 2, 4, 4), (2, 1, 1, 1), 0))
@example(((2, 2, 3, 2), (2, 3, 1, 2), 0))
@example(((3, 2), (2, 3), 2))
@example(((5, 6, 4), (2, 3, 2), 3))
@example(((50, 2, 2, 2), (2, 3, 2, 2), 4))
@example(((2, 2, 2, 50), (2, 3, 2, 2), 5))
@given(ring_problems())
def test_sweep_products_equal_their_tensordot_form(problem):
    # every data term of a Gauss-Seidel data sweep, bit for bit, for x
    # C-ordered, Fortran-ordered and strided
    cores, x = ring_instance(problem)
    rng = np.random.default_rng(problem[2] + 2)
    for xl in layouts(x):
        got_cores, want_cores = list(cores), list(cores)
        got, want = data_sweep(xl, got_cores), tensordot_sweep(xl, want_cores)
        for n in range(1, len(cores) + 1):
            assert same_bits(next(got)[0], tensordot_data_term(*next(want)))
            got_cores[n - 1] = want_cores[n - 1] = rng.standard_normal(cores[n - 1].shape)


def plain_first_data_term(x, cores):
    # core 1's data term with the first gemm in the plain order x_half @ s
    return tensordot_data_term(*next(tensordot_sweep(x, cores, transposed=False)))


# at ((2, 2, 4, 4), (2, 1, 1, 1), 0) the two orientations differ by 1.8e-15
@example(((2, 2, 4, 4), (2, 1, 1, 1), 0))
@example(((2, 2, 3, 2), (2, 3, 1, 2), 0))
@example(((3, 2), (2, 3), 2))
@example(((5, 6, 4), (2, 3, 2), 3))
@example(((50, 2, 2, 2), (2, 3, 2, 2), 4))
@example(((2, 2, 2, 50), (2, 3, 2, 2), 5))
@given(ring_problems())
def test_sweep_first_data_term_is_the_plain_orders(problem):
    # data_sweep's transposed first gemm sums in another order than
    # x_half @ s: core 1's data term, which every partial of the first half
    # carries, is within 1e-13 of the sum of its terms' magnitudes
    cores, x = ring_instance(problem)
    for xl in layouts(x):
        got, want = next(data_sweep(xl, list(cores)))[0], plain_first_data_term(xl, cores)
        bound = plain_first_data_term(np.abs(xl), [np.abs(c) for c in cores])
        assert got.shape == want.shape
        assert (np.abs(got - want) <= 1e-13 * bound).all()


@pytest.mark.parametrize("shape,rank", [((6,) * 8, 3), ((10,) * 4, 6)])
def test_sweep_first_data_term_keeps_the_plain_bits_at_benchmark_shapes(shape, rank):
    # the 6^8 and 10^4 benchmark solves' first sweep, x Fortran-ordered as
    # a solver holds it: there both orders of the first gemm give the same
    # bits, with the numpy/OpenBLAS build the bits were checked on (README,
    # "Determinism")
    rng = np.random.default_rng(18)
    cores = [rng.standard_normal((rank, e, rank)) for e in shape]
    x = np.asfortranarray(rng.standard_normal(shape))
    assert same_bits(next(data_sweep(x, list(cores)))[0], plain_first_data_term(x, cores))


@st.composite
def observed_tensors(draw):
    # finite values with a random NaN (missing) pattern; order 1-4
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=4))
    values = draw(hnp.arrays(np.float64, shape, elements=st.floats(allow_nan=False)))
    mask = draw(hnp.arrays(np.bool_, shape))
    return np.where(mask, values, np.nan), mask


@given(observed_tensors())
def test_write_read_round_trip(tensor_path, observed):
    t, mask = observed
    write_tensor(t, tensor_path)
    back, back_mask = read_tensor(tensor_path)
    np.testing.assert_array_equal(back_mask, mask)
    assert same_bits(back, t)


@settings(max_examples=20)
@given(observed_tensors(), st.integers(0, 255))
def test_every_truncation_and_appended_byte_rejected(tensor_path, observed, extra):
    write_tensor(observed[0], tensor_path)
    good = tensor_path.read_bytes()
    for bad in [good[:k] for k in range(len(good))] + [good + bytes([extra])]:
        tensor_path.write_bytes(bad)
        with pytest.raises(TensorFileError):
            read_tensor(tensor_path)
