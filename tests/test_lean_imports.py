"""The runtime imports numpy and nothing heavier.

scipy once cost every process about 72 MB and 1.3 s at ``import repro``
for a single Student-t quantile, and networkx is only an export format
(``Network.to_networkx``).  A fresh interpreter imports the package, the
CLI and the linter, and neither library may be loaded afterwards.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_entry_points_load_neither_scipy_nor_networkx():
    code = (
        "import sys\n"
        "import repro, repro.experiments.cli, repro.lint\n"
        "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
