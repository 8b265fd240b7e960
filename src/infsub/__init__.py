"""Influence-driven subsampling for sparse L2-regularized logistic regression.

Layers, bottom up: ``data`` (libsvm ingestion, splits, label noise),
``model`` (the classifier, its Hessian-free curvature operator and the
conjugate-gradient solver), ``influence`` (per-sample influence via
Jacobi-preconditioned solves), ``sampling`` (influence-to-probability maps
and stratified subset draws), ``risk`` (worst-case risk and robustness
diagnostics), ``experiment`` and ``cli`` (the train/validate/test harness).
The modules are the API: names are imported from them, not from the package
root.
"""

__version__ = "0.1.0"
