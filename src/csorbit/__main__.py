"""``python -m csorbit``: the command-line interface of :mod:`csorbit.cli`."""

import sys

from .cli import main

sys.exit(main())
