"""Set-up probe: a fresh interpreter imports schedkf from this checkout and
loads every config in a directory through ``cli.load_config`` (threshold
inversion and ``LinearSystem`` checks).  ``run.py`` times it from start
to exit.

    python3 bench/probe_setup.py CONFIG_DIR
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from schedkf import cli  # noqa: E402

for path in sorted(Path(sys.argv[1]).glob("*.json")):
    cli.load_config(path)
