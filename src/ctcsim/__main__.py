"""`python -m ctcsim`: the `ctcsim` command line."""
from .cli import main

raise SystemExit(main())
