import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_package_import_leaves_io_and_exact_fraction_modules_unloaded():
    # The CLI and file IO load csv, json and argparse on their own import;
    # exact sums are integers, so neither fractions nor decimal is needed.
    probe = ("import sys, survconcord; print(' '.join(m for m in "
             "('fractions', 'decimal', 'csv', 'json', 'argparse') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)}, check=True)
    assert result.stdout.split() == []
