"""Run the command line tool as `python -m mdskit`."""

from .cli import main

main()
