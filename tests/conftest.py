"""Run the suite from a plain checkout: `src` goes first on sys.path for
this process and first on PYTHONPATH for the `python -m bellforge`
subprocesses that some tests start."""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
