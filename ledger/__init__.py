"""The perf ledger: the repo's benchmark (see ledger/README.md).

Everything here measures ``src/repro`` from outside, through its public
API; nothing under ``src/`` imports this package.
"""
