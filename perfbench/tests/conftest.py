"""Import the benchmark package and the program under test from this checkout."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
CHECKOUT = BENCH_DIR.parent
for path in (CHECKOUT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
