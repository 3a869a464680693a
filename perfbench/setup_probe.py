"""Set-up probe: import toricsum from the checkout and parse the given files.

Run in a fresh process by ``run.py`` to time what every CLI call pays
before it does any work.  Prints the number of ideals parsed.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from toricsum.cli import parse_ideal_file  # noqa: E402

count = 0
for name in sys.argv[1:]:
    count += len(parse_ideal_file(Path(name).read_text(encoding="utf-8")))
print(count)
