"""python -m pathscat <command> ...: the command-line interface."""
from .cli import main
raise SystemExit(main())
