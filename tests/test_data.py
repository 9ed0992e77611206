"""The benchmark runs verbatim copies of the running-example fixtures."""

from pathlib import Path

import pytest

from conftest import EXAMPLES

BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"


@pytest.mark.parametrize("name", ["phi_f3.map", "g_phi.2gen"])
def test_bench_data_matches_package_data(name):
    assert (BENCH_DATA / name).read_bytes() == (EXAMPLES / name).read_bytes()
