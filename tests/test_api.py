"""The public API holds no name that only tests use, and importing it
loads no module that no request uses."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import omzv

ROOT = Path(__file__).resolve().parents[1]


def code_references(paths):
    """Names that code reads, as a bare name or an attribute.  Import
    lists, def and class names, docstrings and __all__ strings are not
    references."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_is_used_by_the_package_or_the_bench():
    package = Path(omzv.__file__).parent
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    used = code_references(paths + sorted((ROOT / "bench").glob("*.py")))
    unused = sorted(set(omzv.__all__) - {"__version__"} - used)
    assert not unused, "public names that only tests use: %s" % unused


COLD_START = """
import json, sys
import numpy as np
import omzv
loaded = [m for m in ("hashlib", "_hashlib", "omzv.verify", "omzv.qseries")
          if m in sys.modules]
ctx = omzv.GammaContext(omzv.OmegaParam(0.8))
z = np.array([0.3, -1.2 + 0.2j, 2.5 + 0.2j, 0.7 - 0.4j, 9.0 + 3.25j])
omzv.log_G(z, ctx)
ob = ctx.omega_bar
omzv.saalschutz_check(0.20 + 0.55j * ob, -0.15 + 0.70j * ob,
                      -0.05 + 0.80j * ob, 0.12 + 0.78j * ob, ctx)
print(json.dumps([loaded, "numpy.ma" in sys.modules]))
"""


def test_cold_start_loads_only_what_a_request_uses():
    """In a fresh interpreter, `import omzv` loads neither OpenSSL's
    hash module nor the suites or the q-series model, and log G at
    several heights and a Saalschutz check load no masked arrays."""
    package = Path(omzv.__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(package.parent)]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    res = subprocess.run([sys.executable, "-c", COLD_START], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    loaded, masked = json.loads(res.stdout)
    assert loaded == []
    assert masked is False
