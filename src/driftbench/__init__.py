"""Benchmark harness comparing drift-handling strategies for batched sensor data.

Each public name is imported from the module that owns it: ``data_io`` (batch
files, the parse cache, synthetic data), ``preprocess`` (normalization),
``subspace`` (PCA, LDA, DRCA, LDSP), ``classifier`` (logistic regression),
``metrics``, ``adaptation`` (the five strategies), ``config``, ``harness``
(the grid and its report files) and ``cli`` (the ``driftbench`` command).
"""

__version__ = "0.1.0"
