import os
import subprocess
import sys
from pathlib import Path

import ptgrid


def test_import_does_not_load_scipy():
    # numpy is the only numerical dependency; importing the package must not
    # pull scipy back in
    src = str(Path(ptgrid.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, ptgrid; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
