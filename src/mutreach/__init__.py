"""Mutual-reachability certificates for Petri nets and their compilation
into quantifier-free Presburger formulas."""

__version__ = "0.1.0"
