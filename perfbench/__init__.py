"""Seeded end-to-end and per-layer benchmark of salient; see run.py."""
