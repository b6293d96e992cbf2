"""Deterministic simulator for refund-based block-building auctions.

The modules are the Python API (`from blockmech import mechanism`); the
package namespace re-exports nothing.
"""
