"""Benchmark of the ocr_ray extraction engine (see README.md)."""
