"""``python -m fragility``: the ``fragility`` command."""

from .cli import entry

if __name__ == "__main__":
    entry()
