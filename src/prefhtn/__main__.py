"""The prefhtn command line as `python -m prefhtn ...` (see prefhtn.cli),
for a checkout on PYTHONPATH where no console script is installed."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
