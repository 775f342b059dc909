"""Shared fixtures for the figure/table benchmarks.

Each ``bench_*`` file regenerates one table or figure from the paper's
evaluation and prints the rows/series for side-by-side comparison.  The
expensive macro-workload comparisons are computed once per session and
shared.

Scale knobs (environment):

* ``REPRO_BENCH_OPS``   — ops per workload run (default 3000)
* ``REPRO_BENCH_TRIALS`` — trials for the Table 2 t-tests (default 4)
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import pytest

from repro.harness.experiments import compare_workload
from repro.workloads import MACRO_WORKLOADS

BENCH_OPS = int(os.environ.get("REPRO_BENCH_OPS", "3000"))
BENCH_TRIALS = int(os.environ.get("REPRO_BENCH_TRIALS", "4"))

#: Order the paper's figures list workloads in (bottom-up in the bar charts).
WORKLOAD_ORDER = [
    "400.perlbench",
    "465.tonto",
    "471.omnetpp",
    "483.xalancbmk",
    "masstree.same",
    "masstree.wcol1",
    "xapian.abstracts",
    "xapian.pages",
]


@pytest.fixture(scope="session")
def macro_comparisons():
    """Baseline-vs-Mallacc comparisons for all eight macro workloads,
    32-entry malloc cache (the paper's headline configuration)."""
    return {
        name: compare_workload(MACRO_WORKLOADS[name], num_ops=BENCH_OPS, seed=1)
        for name in WORKLOAD_ORDER
    }


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
