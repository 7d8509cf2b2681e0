"""``python -m cvcluster``: the same command line as ``cvcluster``."""

from .cli import main

raise SystemExit(main())
