"""`python -m hfstrata`: the same entry point as the `hfstrata` script."""

from .cli import main

if __name__ == "__main__":
    main()
