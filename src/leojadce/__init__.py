"""Tensor-based Bayesian joint activity detection and channel estimation
for LEO-satellite grant-free random access."""

__version__ = "0.1.0"
