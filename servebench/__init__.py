"""Serving benchmark for the spanner fleet; entry point ``run.py``."""
