"""Property tests: fold/unfold round trips, ring contractions and the .trtc file format."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from trtc import read_tensor, write_tensor, TensorFileError  # noqa: E402
from trtc.tensors import gamma_unfold, gamma_fold, delta_unfold, delta_fold  # noqa: E402
from trtc.ring import _merge, element, prefix_suffix, reconstruct, subchain  # noqa: E402
from trtc.prox import core_update_llrf, core_update_olrf, data_term  # noqa: E402
from trtc.solvers import _suffix_chains  # noqa: E402

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
        assert same_bits(delta_fold(delta_unfold(t, n), n, t.shape), t)


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


# (2, 2, 3, 2) makes both branches certain: mode 2 has A = 2 < B = 6,
# mode 3 has A = 4 >= B = 2; modes 1 and N have no prefix or no suffix
@example(((2, 2, 3, 2), (2, 3, 1, 2), 0))
@given(ring_problems())
def test_data_term_matches_dense_reference(problem):
    cores, x = ring_instance(problem)
    for n in range(1, len(cores) + 1):
        want = delta_unfold(x, n) @ delta_unfold(subchain(cores, n), 2)
        prefix, suffix = prefix_suffix(cores, n)
        for xl in layouts(x):
            got = data_term(xl, n, prefix, suffix)
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@example(((2, 2, 3, 2), (2, 3, 1, 2), 0))
@given(ring_problems())
def test_core_updates_without_chains_equal_the_solver_chains(problem):
    cores, x = ring_instance(problem)
    rng = np.random.default_rng(problem[2] + 1)
    sfx = _suffix_chains(cores)
    prefix = None
    for n in range(1, len(cores) + 1):
        core = cores[n - 1]
        aux = [rng.standard_normal(core.shape) for _ in range(3)]
        duals = [rng.standard_normal(core.shape) for _ in range(3)]
        pair = (prefix, sfx[n])
        np.testing.assert_array_equal(
            core_update_olrf(x, cores, aux, duals, n, 10.0, 2.0),
            core_update_olrf(x, cores, aux, duals, n, 10.0, 2.0, chains=pair),
        )
        np.testing.assert_array_equal(
            core_update_llrf(x, cores, aux, duals[0], n, 10.0, 2.0),
            core_update_llrf(x, cores, aux, duals[0], n, 10.0, 2.0, chains=pair),
        )
        # the sweep extends the prefix as the solver loop does
        prefix = core if prefix is None else _merge(prefix, core)


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
