"""Exact Lie-theoretic calculator and auditor for centralizer tables."""
