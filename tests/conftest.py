"""Let child interpreters started by tests import sfp from this checkout.

`pythonpath = ["src"]` in pyproject.toml puts src/ on the path of the
pytest process only; tests that run `python -m sfp.cli` in a subprocess
need it in PYTHONPATH as well.
"""
import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
