"""`python -m polarcl`: the command line of the `polarcl` script."""
from .cli import main

raise SystemExit(main())
