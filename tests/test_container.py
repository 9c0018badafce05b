"""Storage ownership, view transparency, and the copy counters."""

import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import linopkit
from linopkit.container import (
    Dim,
    MatrixData,
    Ownership,
    array_create,
    array_view,
    copy_stats,
    memory_copy,
    reset_copy_stats,
)
from linopkit.errors import InvalidArgumentError
from linopkit.linop import Csr, Dense


class TestArrayCreate:
    def test_owning_and_zeroed(self, ref):
        a = array_create(ref, 5)
        assert a.ownership is Ownership.OWNING
        assert a.size == 5 and len(a) == 5
        assert (a.numpy() == 0.0).all()
        assert a.dtype == np.float64

    def test_zero_length_allowed(self, ref):
        assert array_create(ref, 0).size == 0

    def test_negative_size_rejected(self, ref):
        with pytest.raises(InvalidArgumentError):
            array_create(ref, -1)


class TestArrayView:
    def test_writes_go_both_ways(self, ref):
        buf = np.arange(4.0)
        view = array_view(ref, 4, buf)
        assert view.ownership is Ownership.BORROWED
        view.numpy()[1] = 9.0
        assert buf[1] == 9.0
        buf[2] = -3.0
        assert view.numpy()[2] == -3.0

    def test_prefix_view(self, ref):
        buf = np.arange(6.0)
        view = array_view(ref, 3, buf)
        assert view.size == 3
        view.fill(7.0)
        assert list(buf) == [7.0, 7.0, 7.0, 3.0, 4.0, 5.0]

    def test_const_view_rejects_writes(self, ref):
        buf = np.arange(3.0)
        view = array_view(ref, 3, buf, const=True)
        assert view.ownership is Ownership.BORROWED_CONST
        with pytest.raises(ValueError):
            view.numpy()[0] = 1.0
        with pytest.raises(InvalidArgumentError, match="const"):
            view.fill(0.0)
        buf[0] = 5.0  # the original stays writable
        assert view.numpy()[0] == 5.0

    def test_refuses_inputs_that_would_need_conversion(self, ref):
        with pytest.raises(InvalidArgumentError, match="ndarray"):
            array_view(ref, 2, [1.0, 2.0])
        with pytest.raises(InvalidArgumentError, match="1-D contiguous"):
            array_view(ref, 2, np.zeros((2, 2)))
        with pytest.raises(InvalidArgumentError, match="1-D contiguous"):
            array_view(ref, 2, np.arange(8.0)[::2])

    def test_size_bounds(self, ref):
        buf = np.zeros(3)
        with pytest.raises(InvalidArgumentError):
            array_view(ref, 4, buf)
        with pytest.raises(InvalidArgumentError):
            array_view(ref, -1, buf)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1, max_size=50))
    def test_view_is_fully_transparent(self, values):
        from linopkit.executor import executor_from_name

        buf = np.array(values, dtype=np.float64)
        view = array_view(executor_from_name("reference"), len(values), buf)
        assert np.array_equal(view.numpy(), buf)
        view.numpy()[...] = view.numpy()[::-1].copy()
        assert np.array_equal(buf, np.array(values[::-1], dtype=np.float64))


class TestCopying:
    def test_memory_copy_is_owning_and_independent(self, ref):
        buf = np.arange(4.0)
        src = array_view(ref, 4, buf)
        dst = memory_copy(src, ref)
        assert dst.ownership is Ownership.OWNING
        assert np.array_equal(dst.numpy(), buf)
        dst.numpy()[0] = 99.0
        assert buf[0] == 0.0

    def test_copy_counters(self, ref, par):
        reset_copy_stats()
        buf = np.arange(8.0)
        view = array_view(ref, 8, buf)  # views are free
        assert copy_stats().element_copies == 0
        memory_copy(view, ref)
        assert copy_stats().element_copies == 8
        view.copy(par)  # explicit cross-backend copy counts too
        assert copy_stats().element_copies == 16
        assert copy_stats().matrix_conversions == 0

    def test_dense_copy_counts_elements(self, ref):
        reset_copy_stats()
        d = Dense.create(ref, (3, 2))
        d.copy()
        assert copy_stats().element_copies == 6

    def test_csr_conversion_counts_once(self, ref):
        reset_copy_stats()
        Csr.from_data(ref, MatrixData((2, 2), [(0, 0, 1.0)]))
        stats = copy_stats()
        assert stats.matrix_conversions == 1
        assert stats.element_copies == 0

    def test_stats_snapshot_is_detached(self, ref):
        reset_copy_stats()
        before = copy_stats()
        memory_copy(array_create(ref, 3), ref)
        assert before.element_copies == 0


class TestMatrixData:
    def test_insertion_order_kept(self):
        data = MatrixData((2, 2), [(1, 1, 3.0), (0, 0, 4.0)])
        data.add(0, 1, 1.0)
        assert list(data) == [(1, 1, 3.0), (0, 0, 4.0), (0, 1, 1.0)]
        assert len(data) == 3

    def test_bounds_checked(self):
        data = MatrixData((2, 3))
        with pytest.raises(InvalidArgumentError, match="outside"):
            data.add(2, 0, 1.0)
        with pytest.raises(InvalidArgumentError, match="outside"):
            data.add(0, -1, 1.0)

    def test_negative_dimensions_rejected(self):
        with pytest.raises(InvalidArgumentError):
            MatrixData((-1, 2))

    @pytest.mark.parametrize("rows, cols, first", [
        ([0, 2, 1, 5], [0, 1, 7, 0], "(2, 1)"),
        ([1, 0, 0], [0, -1, 9], "(0, -1)"),
        ([0, 1, 1], [2, 2, 3], "(1, 3)"),
    ])
    def test_rejected_bulk_add_names_the_first_bad_entry_and_stores_nothing(self, rows, cols,
                                                                          first):
        data = MatrixData((2, 3), [(1, 1, 5.0)])
        with pytest.raises(InvalidArgumentError, match=re.escape(f"entry {first} outside 2x3")):
            data.add_entries(np.array(rows), np.array(cols), np.ones(len(rows)))
        assert list(data) == [(1, 1, 5.0)]

    def test_bounds_check_of_a_bulk_add_allocates_no_mask(self):
        """An in-range append is checked by two reductions, not by masks as long
        as the entries (300 kB for these 100,000)."""
        k = 100_000
        rows, cols, values = np.arange(k) % 300, np.arange(k) % 200, np.ones(k)
        MatrixData((300, 200)).add_entries(rows, cols, values)  # warm-up
        tracemalloc.start()
        try:
            data = MatrixData((300, 200))
            data.add_entries(rows, cols, values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(data) == k and peak < 100_000

    def test_bulk_and_single_adds_interleave_in_order(self):
        data = MatrixData((3, 3))
        data.add(2, 2, 1.5)
        data.add_entries(np.array([0, 1]), [2, 0], np.array([-0.0, 7.0]))
        data.add(1, 1, 3.0)
        data.add_entries([], [], [])
        data.add_entries((2,), (1,), (0.25,))
        expected = [(2, 2, 1.5), (0, 2, -0.0), (1, 0, 7.0), (1, 1, 3.0), (2, 1, 0.25)]
        assert list(data) == expected
        assert len(data) == 5
        rows, cols, values = data.arrays()
        assert rows.dtype == cols.dtype == np.int64 and values.dtype == np.float64
        assert np.signbit(values[1])
        assert not rows.flags.writeable

    def test_bulk_add_grows_past_its_capacity(self):
        data = MatrixData((100, 1))
        for k in range(100):
            data.add_entries([k], [0], [float(k)])
        assert list(data) == [(k, 0, float(k)) for k in range(100)]

    def test_first_bulk_add_borrows_the_callers_arrays(self, ref):
        rows, cols, values = np.array([0, 1, 1]), np.array([1, 0, 1]), np.array([1.0, 2.0, 3.0])
        data = MatrixData((2, 2))
        data.add_entries(rows, cols, values)
        stored = data.arrays()
        for mine, theirs in zip(stored, (rows, cols, values)):
            assert np.shares_memory(mine, theirs) and not mine.flags.writeable
        assert rows.flags.writeable and values.flags.writeable  # the caller's stay writable
        values[0] = 9.0  # a write before the conversion shows in it
        m = Csr.from_data(ref, data)
        assert list(m.get_values(const=True).numpy()) == [9.0, 2.0, 3.0]
        assert not np.shares_memory(m.get_col_idxs().numpy(), cols)

    @pytest.mark.parametrize("case", ["second append", "add", "int32", "list", "strided"])
    def test_bulk_add_copies_what_it_cannot_borrow(self, case):
        rows, cols = np.array([0, 1, 1, 0]), np.array([1, 0, 1, 0])
        values = np.array([1.0, -0.0, 3.0, 4.0])
        data = MatrixData((2, 2))
        if case == "second append":
            first = (rows[:2].copy(), cols[:2].copy(), values[:2].copy())
            data.add_entries(*first)  # borrowed, then copied by the second append
            data.add_entries(rows[2:], cols[2:], values[2:])
            inputs = first + (rows, cols, values)
        elif case == "add":
            inputs = (rows[:3].copy(), cols[:3].copy(), values[:3].copy())
            data.add_entries(*inputs)
            data.add(0, 0, 4.0)
        elif case == "int32":
            inputs = (rows.astype(np.int32), cols, values)
            data.add_entries(*inputs)
        elif case == "list":
            inputs = (rows.tolist(), cols.tolist(), values.tolist())
            data.add_entries(*inputs)
        else:
            inputs = tuple(np.repeat(a, 2)[::2] for a in (rows, cols, values))
            data.add_entries(*inputs)
        stored = data.arrays()
        assert list(data) == [(0, 1, 1.0), (1, 0, -0.0), (1, 1, 3.0), (0, 0, 4.0)]
        assert np.signbit(stored[2][1])
        assert not any(
            np.shares_memory(mine, theirs)
            for mine in stored
            for theirs in inputs
            if isinstance(theirs, np.ndarray)
        )

    @pytest.mark.parametrize("cols", [[0, 2], [0]], ids=["out of range", "lengths"])
    def test_rejected_bulk_add_adopts_nothing(self, cols):
        rows, cols, values = np.array([0, 1]), np.array(cols), np.array([1.0, 2.0])
        data = MatrixData((2, 2))
        with pytest.raises(InvalidArgumentError):
            data.add_entries(rows, cols, values)
        assert len(data) == 0
        data.add(1, 1, 5.0)
        assert list(data) == [(1, 1, 5.0)]
        assert not any(np.shares_memory(a, rows) for a in data.arrays())

    @pytest.mark.parametrize("target, bad", [("c", 10**9), ("c", -1), ("r", 3)])
    def test_write_into_a_borrowed_index_is_caught_before_spmv(self, target, bad):
        # in a child process, so that an unchecked index could only crash the child
        code = textwrap.dedent(f"""
            import numpy as np
            from linopkit import Csr, Dense, executor_from_name
            from linopkit.container import MatrixData
            from linopkit.errors import InvalidArgumentError
            ex = executor_from_name("reference")
            for order in ([0, 1, 2], [2, 1, 0]):  # taken without and with a sort
                r = np.array(order)
                c = r.copy()
                data = MatrixData((3, 3))
                data.add_entries(r, c, np.ones(3))
                {target}[1] = {bad}
                try:
                    m = Csr.from_data(ex, data)
                except InvalidArgumentError as err:
                    print("refused:", err)
                else:
                    m.apply(Dense.create(ex, (3, 1)), Dense.create(ex, (3, 1)))
        """)
        src = str(Path(linopkit.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("refused: an entry lies outside the 3x3 matrix") == 2

    @pytest.mark.parametrize(
        "rows, cols, values",
        [
            ([0, 1], [0], [1.0, 2.0]),
            ([0], [0], [1.0, 2.0]),
            ([[0, 1]], [[0, 1]], [[1.0, 2.0]]),
        ],
    )
    def test_bulk_add_rejects_mismatched_lengths(self, rows, cols, values):
        data = MatrixData((2, 2), [(0, 0, 1.0)])
        with pytest.raises(InvalidArgumentError, match="equal length"):
            data.add_entries(rows, cols, values)
        assert list(data) == [(0, 0, 1.0)]

    @pytest.mark.parametrize(
        "rows, cols, first_bad",
        [
            ([0, 2, 5], [0, 0, 0], "(2, 0)"),
            ([1, 0, 1], [1, -1, 3], "(0, -1)"),
            ([-4, 0], [9, 1], "(-4, 9)"),
        ],
    )
    def test_bulk_add_rejects_the_first_bad_entry_and_stores_nothing(
        self, rows, cols, first_bad
    ):
        data = MatrixData((2, 3), [(1, 2, 5.0)])
        with pytest.raises(InvalidArgumentError, match="outside") as err:
            data.add_entries(rows, cols, np.ones(len(rows)))
        assert f"entry {first_bad} outside 2x3 matrix" in str(err.value)
        assert list(data) == [(1, 2, 5.0)]
        data.add(0, 0, 1.0)  # the buffer is still usable
        assert list(data) == [(1, 2, 5.0), (0, 0, 1.0)]

    def test_dim_fields(self):
        d = Dim(3, 4)
        assert (d.rows, d.cols) == (3, 4)
        assert tuple(d) == (3, 4)
