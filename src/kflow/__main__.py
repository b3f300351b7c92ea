"""``python -m kflow``: the ``kflow`` command without an installed console script."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
