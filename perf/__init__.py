"""Wall-clock benchmark of the repro package, measured from outside (see README.md)."""
