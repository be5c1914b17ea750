"""``python -m ipidlab``: the ``ipidlab`` command."""
from .cli import main

main()
