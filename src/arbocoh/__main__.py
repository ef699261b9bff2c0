"""`python -m arbocoh ...`: the same command line as the arbocoh script."""

import sys

from .cli import main

sys.exit(main())
