"""Driven three-level cascade emitter: steady states, two-photon entanglement,
and the mixed-state geometric phase over control-parameter paths."""

__version__ = "0.1.0"
