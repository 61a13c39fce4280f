import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The benchmark's modules import each other as top-level modules, and the
# package comes from the checkout's src/, as in the benchmark's children.
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]
