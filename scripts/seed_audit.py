"""Run chosen tests under remapped random seeds and count their failures.

A test that passes only for the seeds it happens to use tests the seed, not
the code.  For k = 1..K this script remaps the seed s of every Philox key
the package builds to ``(s * 0x9E3779B97F4A7C15 + k) mod 2**64`` and runs
the given pytest node IDs once per remap.  Every draw changes, but no seed
that the API reports does.  It prints, per test, the number of remaps under
which it failed.  Tests that pin exact draws or exact row counts fail under
every remap by design.

Run from the repository root, for example::

    PYTHONPATH=src python scripts/seed_audit.py --remaps 200 \\
        tests/test_variance.py::TestLowerSobol::test_linear_equals_upper

All remaps run in this one process, one after another.  Nothing here is
part of the test suite or the benchmark.
"""

from __future__ import annotations

import argparse
import collections
import sys

import pytest

from sensyn import randkit

_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class _Failures:
    """pytest plugin: the node IDs of the tests that failed in one run."""

    def __init__(self):
        self.failed: set[str] = set()
        self.ran: set[str] = set()

    def pytest_runtest_logreport(self, report):
        if report.when == "call" or report.failed:
            self.ran.add(report.nodeid)
        if report.failed:
            self.failed.add(report.nodeid)


def run_remapped(node_ids: list[str], k: int) -> _Failures:
    """Run ``node_ids`` once with every Philox seed s keyed as
    ``(s * 0x9E3779B97F4A7C15 + k) mod 2**64``."""
    philox = randkit._philox

    def remapped(seed: int, stream_id: int):
        return philox((seed * _GOLDEN + k) & _MASK64, stream_id)

    plugin = _Failures()
    randkit._philox = remapped
    try:
        pytest.main(["-p", "no:cacheprovider", "-p", "no:terminal",
                     *node_ids], plugins=[plugin])
    finally:
        randkit._philox = philox
    return plugin


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("node_ids", nargs="+", help="pytest node IDs to run")
    parser.add_argument("--remaps", type=int, default=16,
                        help="number K of seed remaps, k = 1..K (default 16)")
    args = parser.parse_args(argv)
    if args.remaps < 1:
        parser.error("--remaps must be at least 1")

    failures: collections.Counter = collections.Counter()
    ran: set[str] = set()
    for k in range(1, args.remaps + 1):
        result = run_remapped(args.node_ids, k)
        failures.update(result.failed)
        ran |= result.ran
        print(f"remap {k}: {len(result.failed)} of {len(result.ran)} failed",
              file=sys.stderr)
    if not ran:
        print("no test ran", file=sys.stderr)
        return 1
    width = max(len(t) for t in ran)
    print(f"{'test':<{width}}  failed / remaps")
    for test in sorted(ran):
        print(f"{test:<{width}}  {failures[test]} / {args.remaps}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
