import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))
# as in run.py: the harness reads any answer back as an int
sys.set_int_max_str_digits(0)
