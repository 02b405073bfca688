"""``python -m stosub``: the ``stosub`` command line from a checkout."""

import sys

from .cli import main

sys.exit(main())
