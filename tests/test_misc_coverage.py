"""Small tests for remaining helpers (datatypes, endpoint flush, tables)."""

import numpy as np
import pytest

from repro.mpi.datatypes import copy_payload, payload_nbytes
from repro.sim import Engine
from repro.topology import systems
from repro.ucx import UCXContext
from repro.units import MiB
from repro.util.tables import Table


class TestDatatypes:
    def test_payload_nbytes_from_payload(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64), None) == 80

    def test_payload_nbytes_agreement(self):
        assert payload_nbytes(np.zeros(4, dtype=np.int32), 16) == 16

    def test_disagreement_rejected(self):
        with pytest.raises(ValueError):
            payload_nbytes(np.zeros(4, dtype=np.int32), 17)

    def test_neither_rejected(self):
        with pytest.raises(ValueError):
            payload_nbytes(None, None)
        with pytest.raises(ValueError):
            payload_nbytes(None, -1)

    def test_copy_payload_is_independent(self):
        src = np.zeros(4)
        dup = copy_payload(src)
        src[0] = 9
        assert dup[0] == 0
        assert copy_payload(None) is None


class TestEndpointFlush:
    def test_flush_waits_for_pipeline_streams(self):
        eng = Engine()
        ctx = UCXContext(eng, systems.beluga())
        ep = ctx.endpoint(0, 1)
        ep.put(32 * MiB)
        eng.run(until=ep.flush())
        # flush drained everything: one more flush is immediate
        ev = ep.flush()
        eng.run(until=ev)
        assert ev.triggered


class TestTableExtend:
    def test_extend_from_rows(self):
        t = Table(["a", "b"])
        t.extend([{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        assert t.column("a") == [1, 3]

    def test_extend_validates_columns(self):
        t = Table(["a"])
        with pytest.raises(KeyError):
            t.extend([{"zzz": 1}])
