"""Unit tests for the DRAM model."""

import pytest

from repro.memsys.dram import Dram


def test_fixed_latency():
    dram = Dram(latency=200)
    assert dram.access(0) == 200
    assert dram.access(12345) == 200


def test_counts_accesses_and_writebacks():
    dram = Dram(latency=100)
    dram.access(1)
    dram.writeback(2)
    assert dram.stats.get("accesses") == 2
    assert dram.stats.get("writebacks") == 1


def test_rejects_bad_latency():
    with pytest.raises(ValueError):
        Dram(latency=0)

