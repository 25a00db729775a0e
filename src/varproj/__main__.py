"""The benchmark command line as ``python -m varproj``; see ``varproj.cli``."""
from .cli import main_entry

if __name__ == "__main__":
    main_entry()
