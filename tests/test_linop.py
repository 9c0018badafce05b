"""Dense and CSR operators: construction, normal form, application."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linopkit import kernels
from linopkit.container import Dim, MatrixData, Ownership, array_view
from linopkit.errors import DimensionError, InvalidArgumentError
from linopkit.batched import BatchCsr, BatchDense, batch_solve
from linopkit.executor import dispatch, executor_from_name
from linopkit.linop import Csr, Dense
from linopkit.solver import Iteration, SolverFactory

from helpers import (
    csr_from_numpy,
    data_from_numpy,
    dense_from_numpy,
    matmul_oracle,
    random_sparse_dense,
    random_spd_dense,
    use_spmv_body,
)


def fromiter_conversion(size, triplets):
    """The per-entry conversion ``Csr.from_data`` made before triplets were
    stored as arrays, kept as the bitwise reference for the array path."""
    rows = size[0]
    nnz = len(triplets)
    if not nnz:
        return np.zeros(rows + 1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    r = np.fromiter((t[0] for t in triplets), dtype=np.int64, count=nnz)
    c = np.fromiter((t[1] for t in triplets), dtype=np.int64, count=nnz)
    v = np.fromiter((t[2] for t in triplets), dtype=np.float64, count=nnz)
    order = np.lexsort((c, r))
    r, c, v = r[order], c[order], v[order]
    first = np.empty(nnz, dtype=bool)
    first[0] = True
    first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    vals = np.bincount(np.cumsum(first) - 1, weights=v)
    row_ptrs = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(r[first], minlength=rows), out=row_ptrs[1:])
    return row_ptrs, c[first], vals


def assert_csr_bits(m, expected):
    row_ptrs, col_idxs, vals = expected
    assert np.array_equal(m.get_row_ptrs().numpy(), row_ptrs)
    assert np.array_equal(m.get_col_idxs().numpy(), col_idxs)
    assert np.array_equal(m.get_values(const=True).numpy().view(np.uint64), vals.view(np.uint64))


class TestArrayConversion:
    """``Csr.from_data`` over the stored arrays, bit for bit the old
    per-entry conversion."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_triplets_in_mixed_batches(self, ref, seed):
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        nnz = int(rng.integers(0, 400))
        r = rng.integers(0, rows, nnz)
        c = rng.integers(0, cols, nnz)
        v = rng.standard_normal(nnz) * 10.0 ** rng.integers(-20, 20, nnz)
        v[rng.random(nnz) < 0.1] = 0.0
        v[rng.random(nnz) < 0.1] = -0.0
        triplets = [(int(i), int(j), float(x)) for i, j, x in zip(r, c, v)]
        data = MatrixData((rows, cols))
        k = 0
        while k < nnz:  # single adds and bulk calls of random lengths
            step = int(rng.integers(1, 30))
            if step == 1:
                data.add(*triplets[k])
            else:
                data.add_entries(r[k : k + step], c[k : k + step], v[k : k + step])
            k += step
        assert list(data) == triplets
        assert_csr_bits(Csr.from_data(ref, data), fromiter_conversion((rows, cols), triplets))

    def test_duplicates_sum_in_insertion_order_across_calls(self, ref):
        triplets = [(1, 0, 1e16), (0, 2, -0.0), (1, 0, 1.0), (1, 0, -1e16), (0, 2, -0.0)]
        data = MatrixData((4, 3))
        data.add(*triplets[0])
        data.add_entries([0, 1], [2, 0], [-0.0, 1.0])
        data.add_entries([1, 0], [0, 2], [-1e16, -0.0])
        m = Csr.from_data(ref, data)
        assert_csr_bits(m, fromiter_conversion((4, 3), triplets))
        # (1e16 + 1) - 1e16 is 0 only when summed in insertion order; two
        # -0.0 entries sum to +0.0 because bincount starts from +0.0
        assert list(m.get_values(const=True).numpy()) == [0.0, 0.0]
        assert list(m.get_row_ptrs().numpy()) == [0, 1, 2, 2, 2]  # empty rows 2, 3

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicate_free_triplets_skip_the_summation(self, ref, seed):
        # every (row, col) once, in random order; the values' bits are kept,
        # except that -0.0 becomes +0.0 as a sum starting from +0.0 makes it
        rng = np.random.default_rng(seed)
        rows, cols = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        nnz = int(rng.integers(1, rows * cols + 1))
        flat = rng.choice(rows * cols, nnz, replace=False)
        v = rng.standard_normal(nnz)
        for special in (0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan):
            v[rng.random(nnz) < 0.1] = special
        data = MatrixData((rows, cols))
        data.add_entries(flat // cols, flat % cols, v)
        m = Csr.from_data(ref, data)
        assert m.num_stored_elements == nnz
        assert_csr_bits(m, fromiter_conversion((rows, cols), list(data)))
        stored = m.get_values(const=True).numpy()
        assert not np.any(np.signbit(stored[stored == 0.0]))

    @pytest.mark.parametrize("duplicates", [False, True])
    def test_already_sorted_input(self, ref, rng, monkeypatch, duplicates):
        dense = rng.standard_normal((7, 5)) * (rng.random((7, 5)) < 0.5)
        r, c = np.nonzero(dense)  # row-major order
        v = dense[r, c]
        if duplicates:
            r, c, v = np.repeat(r, 2), np.repeat(c, 2), np.repeat(v, 2) * 0.5
        data = MatrixData((7, 5))
        data.add_entries(r, c, v)
        calls = []
        real = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or real(*a, **k))
        m = Csr.from_data(ref, data)
        assert calls == ([1] if duplicates else [])  # a strictly increasing key skips the sort
        assert_csr_bits(m, fromiter_conversion((7, 5), list(data)))
        assert np.array_equal(m.to_dense(), dense)

    def test_sorted_input_keeps_its_value_bits_but_the_sign_of_zero(self, ref):
        r, c = np.array([0, 0, 1, 3, 3, 3]), np.array([0, 4, 2, 0, 1, 4])
        v = np.array([-0.0, np.nan, -np.inf, 1e-300, -0.0, 0.0])
        data = MatrixData((5, 5))
        data.add_entries(r, c, v)
        m = Csr.from_data(ref, data)
        assert_csr_bits(m, fromiter_conversion((5, 5), list(data)))
        stored = m.get_values(const=True).numpy()
        assert not np.any(np.signbit(stored[stored == 0.0]))
        assert list(m.get_row_ptrs().numpy()) == [0, 2, 3, 3, 6, 6]
        assert not np.shares_memory(m.get_col_idxs().numpy(), c)

    def test_empty_rows(self, ref):
        # rows 0, 2, 3 and 6 hold nothing, among them the first and the last
        triplets = [(5, 1, 2.0), (1, 3, -1.0), (4, 0, 0.5), (1, 0, 3.0), (5, 0, -0.0)]
        data = MatrixData((7, 4), triplets)
        m = Csr.from_data(ref, data)
        assert_csr_bits(m, fromiter_conversion((7, 4), triplets))
        assert list(m.get_row_ptrs().numpy()) == [0, 0, 2, 2, 2, 3, 5, 5]

    def test_key_overflowing_shape_sorts_by_two_keys(self, ref, monkeypatch):
        # rows * cols >= 2**63, so the row-major key would overflow int64
        size = (3, 2**62)
        triplets = [(2, 5, 1.0), (0, 2**62 - 1, 2.0), (2, 3, -0.0), (0, 7, 4.0), (2, 5, 8.0)]
        expected = fromiter_conversion(size, triplets)
        calls = []
        real = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or real(keys))
        m = Csr.from_data(ref, MatrixData(size, triplets))
        assert calls == [1]
        assert_csr_bits(m, expected)
        assert list(m.get_col_idxs().numpy()) == [7, 2**62 - 1, 3, 5]
        assert list(m.get_values(const=True).numpy()) == [4.0, 2.0, 0.0, 9.0]

    def test_explicit_zeros_stay_stored(self, ref):
        data = MatrixData((3, 3))
        data.add_entries([2, 0, 2], [2, 0, 1], [0.0, 0.0, -0.0])
        m = Csr.from_data(ref, data)
        assert m.num_stored_elements == 3
        assert_csr_bits(m, fromiter_conversion((3, 3), list(data)))

    @pytest.mark.parametrize("size", [(0, 0), (3, 2), (0, 4)])
    def test_empty_matrix(self, ref, size):
        data = MatrixData(size)
        data.add_entries([], [], [])
        assert_csr_bits(Csr.from_data(ref, data), fromiter_conversion(size, []))

    def test_write_data_is_row_major_with_sorted_columns(self, ref, rng):
        data, _ = random_sparse_dense(rng, 9, 6)
        m = Csr.from_data(ref, data)
        rp, ci, v = (a.numpy() for a in (m.get_row_ptrs(), m.get_col_idxs(), m.get_values()))
        expected = [(i, int(ci[p]), float(v[p])) for i in range(9) for p in range(rp[i], rp[i + 1])]
        assert list(m.write_data()) == expected

    def test_write_data_is_a_snapshot(self, ref, rng):
        data, _ = random_sparse_dense(rng, 9, 6)
        m = Csr.from_data(ref, data)
        out = m.write_data()
        before = list(out)
        m.update_values(np.arange(m.num_stored_elements) + 5.0)
        assert list(out) == before
        assert not np.shares_memory(out.arrays()[2], m.get_values().numpy())


class TestCsrNormalForm:
    def test_known_conversion(self, ref):
        # unsorted input; frozen expected arrays
        data = MatrixData((2, 2), [(1, 1, 3.0), (0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0)])
        m = Csr.from_data(ref, data)
        assert list(m.get_row_ptrs().numpy()) == [0, 2, 4]
        assert list(m.get_col_idxs().numpy()) == [0, 1, 0, 1]
        assert list(m.get_values(const=True).numpy()) == [4.0, 1.0, 1.0, 3.0]
        assert m.num_stored_elements == 4

    def test_duplicates_sum_in_insertion_order(self, ref):
        # (1e16 + 1) - 1e16 == 0 in float64, whereas summing any other way
        # gives 1; the stored value pins the accumulation order.
        data = MatrixData((1, 1), [(0, 0, 1e16), (0, 0, 1.0), (0, 0, -1e16)])
        m = Csr.from_data(ref, data)
        assert m.num_stored_elements == 1
        assert m.get_values(const=True).numpy()[0] == 0.0

    def test_zero_sum_entries_stay_stored(self, ref):
        data = MatrixData((2, 2), [(0, 1, 2.0), (0, 1, -2.0)])
        m = Csr.from_data(ref, data)
        assert m.num_stored_elements == 1
        assert list(m.get_col_idxs().numpy()) == [1]

    def test_empty_matrix(self, ref):
        m = Csr.from_data(ref, MatrixData((3, 2)))
        assert m.num_stored_elements == 0
        assert list(m.get_row_ptrs().numpy()) == [0, 0, 0, 0]
        b = Dense.create(ref, (2, 1))
        x = Dense.create(ref, (3, 1))
        b.fill(1.0)
        m.apply(b, x)
        assert (x.view2d() == 0.0).all()

    def test_to_dense(self, ref, rng):
        data, dense = random_sparse_dense(rng, 7, 5)
        assert np.array_equal(Csr.from_data(ref, data).to_dense(), dense)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_write_data_round_trips(self, data):
        exec_ = executor_from_name("reference")
        rows = data.draw(st.integers(1, 6))
        cols = data.draw(st.integers(1, 6))
        entries = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, rows - 1),
                    st.integers(0, cols - 1),
                    st.floats(-10, 10, allow_nan=False),
                ),
                max_size=20,
            )
        )
        first = Csr.from_data(exec_, MatrixData((rows, cols), entries))
        second = Csr.from_data(exec_, first.write_data())
        assert np.array_equal(first.get_row_ptrs().numpy(), second.get_row_ptrs().numpy())
        assert np.array_equal(first.get_col_idxs().numpy(), second.get_col_idxs().numpy())
        assert np.array_equal(
            first.get_values(const=True).numpy(), second.get_values(const=True).numpy()
        )


class TestCsrValidation:
    def test_from_arrays_accepts_normal_form(self, ref):
        m = Csr.from_arrays(ref, (2, 2), [0, 2, 4], [0, 1, 0, 1], [4.0, 1.0, 1.0, 3.0])
        assert m.num_stored_elements == 4

    MALFORMED = [
        ([1, 2, 4], [0, 1, 0, 1], [1.0] * 4, "starting at 0"),
        ([0, 3, 2], [0, 1, 0], [1.0] * 3, "non-decreasing"),
        ([0, 2, 4], [0, 1, 0], [1.0] * 3, "length"),
        ([0, 2, 4], [0, 1, 0, 1], [1.0] * 3, "length"),
        ([0, 2, 4], [0, 1, 0, 1], [1.0] * 5, "length"),
        ([0, 2, 4], [0, 2, 0, 1], [1.0] * 4, "outside"),
        ([0, 2, 4], [1, 0, 0, 1], [1.0] * 4, "increase"),
        ([0, 2, 4], [0, 0, 0, 1], [1.0] * 4, "increase"),
    ]

    @pytest.mark.parametrize("row_ptrs, col_idxs, values, message", MALFORMED)
    def test_malformed_inputs_rejected(self, ref, row_ptrs, col_idxs, values, message):
        with pytest.raises(InvalidArgumentError, match=message):
            Csr.from_arrays(ref, (2, 2), row_ptrs, col_idxs, values)

    @pytest.mark.parametrize("row_ptrs, col_idxs, values, message", MALFORMED)
    def test_public_constructor_checks_the_callers_arrays(self, ref, row_ptrs, col_idxs, values,
                                                          message):
        arrays = (np.array(row_ptrs, dtype=np.int64), np.array(col_idxs, dtype=np.int64),
                  np.array(values))
        with pytest.raises(InvalidArgumentError, match=message):
            Csr(ref, (2, 2), *(array_view(ref, len(a), a) for a in arrays))

    def test_row_boundary_allows_column_reset(self, ref):
        # descending across a row boundary is fine: [., 1 | 0, .]
        m = Csr.from_arrays(ref, (2, 2), [0, 2, 4], [0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(m.to_dense(), [[1.0, 2.0], [3.0, 4.0]])


class TestCsrRawAccess:
    def test_value_writes_hit_the_matrix(self, ref):
        m = csr_from_numpy(ref, [[2.0, 0.0], [0.0, 2.0]])
        m.get_values().numpy()[0] = 5.0
        assert m.to_dense()[0, 0] == 5.0

    def test_structure_handles_are_const(self, ref):
        m = csr_from_numpy(ref, [[2.0, 1.0], [0.0, 2.0]])
        for handle in (m.get_row_ptrs(), m.get_col_idxs()):
            assert handle.ownership is Ownership.BORROWED_CONST
            with pytest.raises(ValueError):
                handle.numpy()[0] = 1

    def test_update_values_keeps_pattern(self, ref):
        m = csr_from_numpy(ref, [[2.0, 1.0], [0.0, 2.0]])
        m.update_values([10.0, 20.0, 30.0])
        assert np.array_equal(m.to_dense(), [[10.0, 20.0], [0.0, 30.0]])

    def test_update_values_checks_length_before_writing(self, ref):
        m = csr_from_numpy(ref, [[2.0, 1.0], [0.0, 2.0]])
        before = m.get_values(const=True).numpy().copy()
        with pytest.raises(DimensionError, match="expected 3 values, got 2"):
            m.update_values([1.0, 2.0])
        assert np.array_equal(m.get_values(const=True).numpy(), before)


class TestApply:
    def test_spmv_matches_triple_loop_oracle(self, ref, par, rng):
        data, dense = random_sparse_dense(rng, 12, 9)
        bmat = rng.normal(size=(9, 3))
        expected = matmul_oracle(dense, bmat)
        for exec_ in (ref, par):
            m = Csr.from_data(exec_, data)
            b = dense_from_numpy(exec_, bmat)
            x = Dense.create(exec_, (12, 3))
            m.apply(b, x)
            assert np.allclose(x.view2d(), expected, rtol=1e-13, atol=1e-15)

    def test_advanced_apply_known_answer(self, ref):
        # x := 2 * I b + 3 * x0 with b=[1,2], x0=[10,20] gives exactly [32,64]
        m = csr_from_numpy(ref, np.eye(2))
        b = dense_from_numpy(ref, [1.0, 2.0])
        x = dense_from_numpy(ref, [10.0, 20.0])
        m.advanced_apply(2.0, b, 3.0, x)
        assert list(x.view2d()[:, 0]) == [32.0, 64.0]

    def test_advanced_apply_beta_zero_overwrites_garbage(self, ref):
        m = csr_from_numpy(ref, [[3.0, 0.0], [0.0, 3.0]])
        b = dense_from_numpy(ref, [1.0, 1.0])
        x = dense_from_numpy(ref, [np.nan, np.inf])
        m.advanced_apply(1.0, b, 0.0, x)
        assert list(x.view2d()[:, 0]) == [3.0, 3.0]

    def test_dense_advanced_apply_beta_zero_overwrites_garbage(self, ref):
        m = dense_from_numpy(ref, np.eye(2))
        b = dense_from_numpy(ref, [1.0, 2.0])
        x = dense_from_numpy(ref, [np.nan, np.nan])
        m.advanced_apply(1.0, b, 0.0, x)
        assert list(x.view2d()[:, 0]) == [1.0, 2.0]

    def test_shape_mismatches_rejected(self, ref):
        m = csr_from_numpy(ref, np.eye(3))
        good_b = Dense.create(ref, (3, 1))
        good_x = Dense.create(ref, (3, 1))
        with pytest.raises(DimensionError, match="expected b with 3 rows"):
            m.apply(Dense.create(ref, (2, 1)), good_x)
        with pytest.raises(DimensionError, match="expected x with 3 rows"):
            m.apply(good_b, Dense.create(ref, (4, 1)))
        with pytest.raises(DimensionError, match="columns"):
            m.apply(good_b, Dense.create(ref, (3, 2)))

    def test_aliased_vectors_rejected(self, ref):
        m = csr_from_numpy(ref, np.eye(2))
        v = Dense.create(ref, (2, 1))
        with pytest.raises(InvalidArgumentError, match="alias"):
            m.apply(v, v)


class TestPatternSafety:
    """An out-of-range or changed pattern raises on both SpMV bodies.

    The compiled body does not bounds-check, so none of these may reach it:
    each case either fails a check or takes the numpy body, which raises.
    """

    def _vectors(self, ref):
        return dense_from_numpy(ref, [1.0, 2.0, 3.0]), Dense.create(ref, (3, 1))

    def test_out_of_range_batch_pattern(self, ref, spmv_body):
        b, x = self._vectors(ref)
        with pytest.raises(InvalidArgumentError, match="outside"):
            batch = BatchCsr(ref, 1, (3, 3), [0, 1, 2, 3], [0, 1, 7], [[1.0, 1.0, 1.0]])
            batch.extract_system(0).apply(b, x)

    def test_raw_dispatch_with_a_column_past_b(self, ref, spmv_body):
        rp, ci, vals = np.array([0, 1, 2, 3]), np.array([0, 1, 7]), np.ones(3)
        row_ids = np.arange(3)
        frozen_rp, frozen_ci = rp.copy(), ci.copy()
        frozen_rp.flags.writeable = frozen_ci.flags.writeable = False  # frozen, never checked
        checked = Csr.from_arrays(ref, (3, 8), rp, ci, vals)
        checked_pattern = (checked.get_row_ptrs().numpy(), checked.get_col_idxs().numpy())
        out = np.zeros((3, 1))
        for pattern in ((rp, ci), (frozen_rp, frozen_ci), checked_pattern):
            with pytest.raises(IndexError):
                dispatch(ref, "spmv")(pattern[0], row_ids, pattern[1], vals, np.ones((3, 1)), out)
        # a checked row_ptrs [0, 1, 2, 4] passed as column indices, 4 >= b.rows
        four = Csr.from_arrays(ref, (3, 3), [0, 1, 2, 4], [0, 1, 0, 2], np.ones(4))
        with pytest.raises(IndexError):
            dispatch(ref, "spmv")(four.get_row_ptrs().numpy(), np.array([0, 1, 2, 2]),
                                  four.get_row_ptrs().numpy(), np.ones(4), np.ones((3, 1)), out)
        # once b is long enough the checked pattern gives A b, by the numpy body:
        # a raw kernel call never runs the compiled loop
        dispatch(ref, "spmv")(*checked_pattern[:1], row_ids, checked_pattern[1], vals,
                              np.ones((8, 1)), out)
        assert list(out[:, 0]) == [1.0, 1.0, 1.0]
        if spmv_body is not None:
            assert spmv_body.calls == 0

    def test_borrowed_pattern_changed_after_construction(self, ref, spmv_body):
        rp = np.array([0, 1, 2, 3], dtype=np.int64)
        ci = np.array([0, 1, 2], dtype=np.int64)
        m = Csr(ref, (3, 3), array_view(ref, 4, rp), array_view(ref, 3, ci),
                array_view(ref, 3, np.ones(3)))
        b, x = self._vectors(ref)
        m.apply(b, x)
        assert list(x.view2d()[:, 0]) == [1.0, 2.0, 3.0]
        ci[1] = 7
        with pytest.raises(IndexError):
            m.apply(b, x)
        ci[1] = 1
        ci[0] = -1  # take and fancy indexing alone would read b[-1]
        with pytest.raises(IndexError):
            m.apply(b, x)
        ci[0] = 0
        rp[3] = 5
        with pytest.raises(DimensionError, match="row_ptrs"):
            m.apply(b, x)
        if spmv_body is not None:
            assert spmv_body.calls == 0

    def test_moved_row_boundary_shows_at_once(self, ref, spmv_body):
        """Row ids are kept only while the index arrays are frozen: a boundary
        moved in a borrowed ``row_ptrs``, or in an owner made writable again,
        changes the next apply and ``to_dense``, as a fresh matrix has them."""
        rp = np.array([0, 1, 2, 3], dtype=np.int64)
        borrowed = Csr(ref, (3, 3), array_view(ref, 4, rp),
                       array_view(ref, 3, np.arange(3, dtype=np.int64)), array_view(ref, 3, np.ones(3)))
        owned = Csr.from_arrays(ref, (3, 3), [0, 1, 2, 3], [0, 1, 2], np.ones(3))
        owner = owned._pattern.row_ptrs
        for m, row_ptrs in ((borrowed, rp), (owned, owner)):
            b, x = self._vectors(ref)
            m.apply(b, x)
            assert list(x.view2d()[:, 0]) == [1.0, 2.0, 3.0]
            assert np.array_equal(m.to_dense(), np.eye(3))
            row_ptrs.flags.writeable = True
            row_ptrs[1] = 0
            m.apply(b, x)
            assert list(x.view2d()[:, 0]) == [0.0, 3.0, 3.0]
            assert np.array_equal(m.to_dense(), [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        if spmv_body is not None:
            assert spmv_body.calls == 1  # the owned matrix's first apply, while frozen

    def test_row_ptrs_past_nnz(self, ref, spmv_body):
        with pytest.raises(InvalidArgumentError, match="length"):
            Csr.from_arrays(ref, (3, 3), [0, 1, 2, 5], [0, 1, 2], [1.0, 1.0, 1.0])
        with pytest.raises(InvalidArgumentError, match="length"):
            BatchCsr(ref, 1, (3, 3), [0, 1, 2, 5], [0, 1, 2], [[1.0, 1.0, 1.0]])
        # two checked patterns mixed: row_ptrs of one, col_idxs of the other
        big = Csr.from_arrays(ref, (3, 3), [0, 2, 4, 5], [0, 1, 0, 1, 2], np.ones(5))
        small = csr_from_numpy(ref, np.eye(3))
        with pytest.raises(DimensionError, match="row_ptrs"):
            dispatch(ref, "spmv")(
                big.get_row_ptrs().numpy(), small._pattern.row_ids(), small.get_col_idxs().numpy(),
                small.get_values(const=True).numpy(), np.ones((3, 1)), np.zeros((3, 1)),
            )
        if spmv_body is not None:
            assert spmv_body.calls == 0

    def test_assembly_buffer_cannot_shrink_after_filling(self, ref):
        """``from_data`` trusts the entries it converts to lie inside ``size``."""
        data = MatrixData((3, 3), [(0, 0, 1.0), (2, 2, 1.0)])
        with pytest.raises(AttributeError):
            data.size = Dim(2, 2)
        assert Csr.from_data(ref, data).size == (3, 3)

    def test_unfrozen_pattern_leaves_the_compiled_body(self, ref, spmv_body):
        m = csr_from_numpy(ref, np.eye(3))
        b, x = self._vectors(ref)
        m.apply(b, x)
        compiled_calls = spmv_body.calls if spmv_body is not None else 0
        rp, ci = m.get_row_ptrs().numpy(), m.get_col_idxs().numpy()  # read-only views
        owner = m._pattern.col_idxs
        owner.flags.writeable = True  # the owner can be unfrozen, and then changed
        owner[2] = 7
        with pytest.raises(IndexError):
            m.apply(b, x)
        with pytest.raises(IndexError):
            dispatch(ref, "spmv")(rp, m._pattern.row_ids(), ci, np.ones(3), np.ones((3, 1)), np.zeros((3, 1)))
        if spmv_body is not None:
            assert compiled_calls == 1 and spmv_body.calls == 1

    def test_misaligned_view_of_a_checked_pattern(self, ref, spmv_body):
        owner = csr_from_numpy(ref, np.eye(3)).get_col_idxs().numpy()
        shifted = np.ndarray((2,), dtype=np.int64, buffer=owner, offset=4)  # straddles entries
        two = Csr.from_arrays(ref, (3, 3), [0, 1, 2, 2], [0, 1], np.ones(2))
        with pytest.raises(IndexError):
            dispatch(ref, "spmv")(two.get_row_ptrs().numpy(), two._pattern.row_ids(), shifted,
                                  np.ones(2), np.ones((3, 1)), np.zeros((3, 1)))
        if spmv_body is not None:
            assert spmv_body.calls == 0


class TestSpmvEntryPoint:
    """Every SpMV of the library goes through ``kernels.block_spmv``.  It runs
    the compiled loop on a checked pattern whose index arrays are still
    read-only, with the numpy body's bits, and the numpy body, which checks
    the indices, everywhere else."""

    N, COLS = 12, 3

    def _padded(self, ref, arr, stride):
        buf = np.full(arr.shape[0] * stride, np.nan)
        d = Dense.from_array(ref, arr.shape, array_view(ref, buf.size, buf), stride=stride)
        d.view2d()[...] = arr
        return d

    def test_which_spmvs_run_compiled(self, ref, rng, monkeypatch):
        spy = use_spmv_body(monkeypatch, "compiled")
        numpy_runs, numpy_body = [], kernels._spmv_numpy
        monkeypatch.setattr(kernels, "_spmv_numpy",
                            lambda *args: numpy_runs.append(1) or numpy_body(*args))

        def runs(call):
            """(compiled calls, numpy-body calls) ``call`` makes."""
            compiled, numpy = spy.calls, len(numpy_runs)
            call()
            return spy.calls - compiled, len(numpy_runs) - numpy

        n, k = self.N, self.COLS
        dense = random_spd_dense(rng, n)
        dense[np.abs(dense) < 0.3] = 0.0
        m = csr_from_numpy(ref, dense)
        rp, ci, vals = (a.numpy() for a in (m.get_row_ptrs(), m.get_col_idxs(), m.get_values()))
        row_ids = np.repeat(np.arange(n), np.diff(rp))
        bmat, x0 = rng.normal(size=(n, k)), rng.normal(size=(n, k))
        bmat[3, 0] = -0.0
        s = np.stack([np.bincount(row_ids, weights=vals * bmat[ci, j], minlength=n)
                      for j in range(k)], axis=1)
        same = lambda d, want: np.array_equal(d.view2d().view(np.uint64), want.view(np.uint64))

        # compiled: a Csr's applies on compact and padded b, one loop call per column
        for layout in ("compact", "padded"):
            b = dense_from_numpy(ref, bmat) if layout == "compact" else self._padded(ref, bmat, 5)
            x = Dense.create(ref, (n, k)) if layout == "compact" else self._padded(ref, x0, 4)
            assert runs(lambda: m.apply(b, x)) == (k, 0) and same(x, s), layout
            x.view2d()[...] = x0
            assert runs(lambda: m.advanced_apply(2.5, b, -1.25, x)) == (k, 0), layout
            assert same(x, 2.5 * s - 1.25 * x0), layout

        # compiled: a Solver's lanes (CG, an initial residual and 3 iterations, k
        # lanes), with the bits of the same solve on the numpy body, which
        # multiplies all lanes in one call
        factory = SolverFactory("cg", (Iteration(3),))
        x = Dense.create(ref, (n, k))
        assert runs(lambda: factory.generate(m).solve(dense_from_numpy(ref, bmat), x)) == (4 * k, 0)
        borrowed = Csr(ref, (n, n), *(array_view(ref, len(a), a.copy()) for a in (rp, ci, vals)))
        y = Dense.create(ref, (n, k))
        assert runs(lambda: factory.generate(borrowed).solve(dense_from_numpy(ref, bmat), y)) == (0, 4)
        assert same(y, x.view2d())

        # compiled: a batched solve, and a system extracted from its batch
        batch = BatchCsr.from_template(ref, 2, data_from_numpy(dense), np.stack([vals, vals]))
        bb = BatchDense.from_values(ref, np.stack([bmat[:, :1]] * 2))
        xb = BatchDense.zeros(ref, 2, (n, 1))
        assert runs(lambda: batch_solve("cg", batch, bb, xb, (Iteration(3),))) == (4, 0)
        assert np.array_equal(xb.values[1].view(np.uint64), x.view2d()[:, :1].view(np.uint64))
        x1 = Dense.create(ref, (n, 1))
        assert runs(lambda: batch.extract_system(1).apply(dense_from_numpy(ref, bmat[:, 0]), x1)) == (1, 0)
        assert same(x1, s[:, :1])

        # numpy body, one call for all columns: a Csr over borrowed arrays, or
        # over another Csr's frozen arrays; an owner made writable again; a raw
        # kernel call
        b = dense_from_numpy(ref, bmat)
        frozen = Csr(ref, (n, n), m.get_row_ptrs(), m.get_col_idxs(), m.get_values(const=True))
        unfrozen = csr_from_numpy(ref, dense)
        unfrozen._pattern.col_idxs.flags.writeable = True
        for name, matrix in (("borrowed", borrowed), ("frozen", frozen), ("unfrozen", unfrozen)):
            x = Dense.create(ref, (n, k))
            assert runs(lambda: matrix.apply(b, x)) == (0, 1) and same(x, s), name
        out = np.empty((n, k))
        raw = dispatch(ref, "spmv")
        assert runs(lambda: raw(rp, row_ids, ci, vals, bmat, out)) == (0, 1)
        assert np.array_equal(out.view(np.uint64), s.view(np.uint64))

        # an out-of-range write raises: in the index, or in the write itself
        with pytest.raises(ValueError):
            m.get_col_idxs().numpy()[0] = n  # the frozen arrays refuse it
        for matrix in (borrowed, unfrozen):
            cols = matrix._pattern.col_idxs
            for bad in (n, -1):
                cols[0] = bad
                with pytest.raises(IndexError):
                    matrix.apply(b, Dense.create(ref, (n, k)))
                with pytest.raises(IndexError):
                    raw(rp, row_ids, cols, vals, bmat, out)
        assert runs(lambda: None) == (0, 0)


class TestDense:
    def test_strided_wrap(self, ref):
        buf = np.arange(10.0)
        d = Dense.from_array(ref, (2, 2), array_view(ref, 10, buf), stride=3)
        assert d.at(0, 0) == 0.0 and d.at(0, 1) == 1.0
        assert d.at(1, 0) == 3.0 and d.at(1, 1) == 4.0
        d.set_at(1, 1, 44.0)
        assert buf[4] == 44.0
        assert buf[2] == 2.0  # padding untouched

    def test_arithmetic_skips_padding(self, ref):
        buf = np.full(6, 100.0)
        d = Dense.from_array(ref, (2, 2), array_view(ref, 6, buf), stride=3)
        d.view2d()[...] = [[1.0, 2.0], [3.0, 4.0]]
        d.add_scaled(1.0, dense_from_numpy(ref, [[1.0, 2.0], [3.0, 4.0]]))
        assert buf[2] == 100.0 and buf[5] == 100.0
        assert d.view2d().tolist() == [[2.0, 4.0], [6.0, 8.0]]

    def test_const_wrap_rejects_writes(self, ref):
        buf = np.arange(4.0)
        d = Dense.create_const(ref, (2, 2), array_view(ref, 4, buf))
        with pytest.raises(ValueError):
            d.set_at(0, 0, 9.0)
        assert d.values.ownership is Ownership.BORROWED_CONST

    def test_copy_is_compact_and_independent(self, ref):
        buf = np.arange(6.0)
        d = Dense.from_array(ref, (2, 2), array_view(ref, 6, buf), stride=3)
        c = d.copy()
        assert c.stride == 2
        assert c.values.ownership is Ownership.OWNING
        c.set_at(0, 0, -1.0)
        assert d.at(0, 0) == 0.0

    def test_geometry_validation(self, ref):
        with pytest.raises(InvalidArgumentError, match="stride"):
            Dense.from_array(ref, (2, 3), array_view(ref, 6, np.zeros(6)), stride=2)
        with pytest.raises(InvalidArgumentError, match="storage"):
            Dense.from_array(ref, (3, 3), array_view(ref, 6, np.zeros(6)))
        with pytest.raises(InvalidArgumentError, match=">= 0"):
            Dense.create(ref, (-1, 2))

    def test_dense_apply_matches_oracle(self, ref, par, rng):
        a = rng.normal(size=(6, 4))
        bmat = rng.normal(size=(4, 2))
        expected = matmul_oracle(a, bmat)
        for exec_ in (ref, par):
            x = Dense.create(exec_, (6, 2))
            dense_from_numpy(exec_, a).apply(dense_from_numpy(exec_, bmat), x)
            assert np.allclose(x.view2d(), expected, rtol=1e-13, atol=1e-15)


def test_data_from_numpy_helper_is_faithful(ref, rng):
    dense = rng.normal(size=(5, 4)) * (rng.random(size=(5, 4)) < 0.5)
    assert np.array_equal(Csr.from_data(ref, data_from_numpy(dense)).to_dense(), dense)
