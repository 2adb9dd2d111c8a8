"""Run one haar-coherence CLI command in a fresh interpreter.

Usage: python3 perfbench/launch.py [CLI ARGS...]

Equivalent to the `haar-coherence` console script, except that the first
line on stderr reports, on the system-wide monotonic clock, when the import
of `haar_coherence.cli` finished, so the caller can split set-up time from
the command's own work. With no arguments it only imports.
"""

import sys
import time

from haar_coherence import cli

sys.stderr.write(f"perfbench-ready {time.monotonic()!r}\n")
sys.stderr.flush()
if len(sys.argv) > 1:
    sys.exit(cli.main(sys.argv[1:]))
