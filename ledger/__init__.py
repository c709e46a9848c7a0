"""The repository's benchmark: one ledger of end-to-end and per-layer cost.

Run ``python3 ledger/run.py --help`` from the repository root.
"""
