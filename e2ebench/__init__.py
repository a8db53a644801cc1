"""End-to-end, layer-by-layer benchmark (see README.md and run.py)."""
