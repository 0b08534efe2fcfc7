"""The repository's end-to-end and per-layer benchmark.

Run it from the repository root with ``python -m bench --seed N``;
``bench/README.md`` documents the workloads and metrics. Importing the
package puts this checkout's ``src/`` first on ``sys.path``, so the
benchmark always measures the tree it sits in.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
