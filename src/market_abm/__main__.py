"""`python -m market_abm ...` runs the command-line interface."""

import sys

from .cli import main

sys.exit(main())
