"""Infer restaurant cuisine types from payment-card transaction logs."""

__version__ = "0.1.0"
