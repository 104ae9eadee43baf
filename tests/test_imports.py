import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats alone adds about 20 MB and half a second to every run
    probe = "import gridprep.cli, sys; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, cwd=SRC)
    assert out.stdout.strip() == "False"
