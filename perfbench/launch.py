"""Thin ``mixpbench`` launcher that sets every program's input seed.

    python3 perfbench/launch.py SEED MIXPBENCH-ARGS...

The seed becomes ``Benchmark.seed`` before ``repro.harness.cli.main``
runs, so it reaches every program the command runs: those the CLI
process builds, the daemon's shard workers, and forked pool workers.
"""

import sys

from repro.benchmarks.base import Benchmark

if __name__ == "__main__":
    Benchmark.seed = int(sys.argv[1])
    from repro.harness.cli import main

    sys.exit(main(sys.argv[2:]))
