"""Weighted l1 and least-squares approximation from scattered 1-D samples."""

__version__ = "0.1.0"
