"""Unit tests for the column helpers (`repro.util.columns`, `repro.util.tables`)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.util.columns import put
from repro.util.tables import fill_column, refill_column


class TestPut:
    def test_put_scatters_one_value(self):
        col = [0, 0, 0, 0]
        put(col, [1, 3], 9)
        assert col == [0, 9, 0, 9]

    def test_put_empty_indices_is_a_noop(self):
        col = [1, 2]
        put(col, [], 5)
        assert col == [1, 2]

    def test_put_keeps_any_payload(self):
        # The CRW-family vector tables keep ``est`` in a plain list, so
        # the scatter must store the payload object itself.
        payload = object()
        col = [None, 1, 2, 3]
        put(col, [1, 3], payload)
        assert col[1] is payload and col[3] is payload and col[2] == 2


class TestRefillHelpers:
    """`refill_column` / `fill_column` rewrite a list column in place."""

    @pytest.fixture
    def column(self):
        return [0, 1, 2, 3]

    def test_refill_rewrites_in_place(self, column):
        before = id(column)
        refill_column(column, [7, 8, 9], offset=1)
        assert id(column) == before
        assert column == [0, 7, 8, 9]

    def test_refill_length_mismatch_raises(self, column):
        with pytest.raises(ConfigurationError, match="slots"):
            refill_column(column, [7, 8], offset=1)
        with pytest.raises(ConfigurationError, match="slots"):
            refill_column(column, [7, 8, 9, 10], offset=1)
        assert column == [0, 1, 2, 3]  # untouched on error

    def test_fill_column_constant(self, column):
        before = id(column)
        fill_column(column, 5, offset=2)
        assert id(column) == before
        assert column == [0, 1, 5, 5]

    def test_refill_at_offset_zero_rewrites_every_slot(self, column):
        # Asynchronous tables are 0-indexed: no unused slot 0.
        refill_column(column, [4, 5, 6, 7])
        assert column == [4, 5, 6, 7]

    def test_holders_of_the_column_see_the_refill(self, column):
        holder = {"est": column}
        refill_column(column, [7, 8, 9], offset=1)
        fill_column(column, 1, offset=3)
        assert holder["est"] is column and holder["est"] == [0, 7, 8, 1]
