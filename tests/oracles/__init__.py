"""Scalar reference implementations of the pipeline's batch kernels.

Each module holds the plain per-point / per-gap / per-candidate loop a
NumPy kernel in ``src/repro`` replaced.  They are not shipped: the
equivalence suites run them side by side with the production kernels
(or monkeypatch them in) and require identical results.
"""
