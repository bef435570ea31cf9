"""`python -m gibbs_stein`: the same command line as the `gibbs-stein` script."""

import sys

from .cli import main

sys.exit(main())
