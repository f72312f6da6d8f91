"""Desk-scale, seed-deterministic simulator of a hybrid digital-analog
task-oriented semantic link: linear analog feature transmission refined by
parity-only distributed source coding, a joint rate/power allocator, a
parity-based model-update protocol, and a Monte-Carlo sweep harness."""

__version__ = "0.1.0"
