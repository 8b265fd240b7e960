"""Influence-driven subsampling for sparse L2-regularized logistic regression.

Layers, bottom up: ``data`` (libsvm ingestion, splits, label noise),
``model`` (the classifier, its Hessian-free curvature operator and the
conjugate-gradient solver), ``influence`` (per-sample influence via
preconditioned solves),
``sampling`` (influence-to-probability maps and stratified subset draws),
``risk`` (worst-case risk and robustness diagnostics), ``experiment`` and
``cli`` (the train/validate/test harness).
"""

from .data import (DataError, SparseDataset, SplitSpec, flip_labels,
                   load_libsvm, parse_libsvm, split, write_libsvm)
from .influence import (ConvergenceError, InfluenceReport, PcgConfig,
                        compute_phi, compute_psi_norms, inverse_hvp_pcg)
# model.risk stays namespaced to avoid shadowing the risk module.
from .model import (Curvature, ModelError, ModelParams, PcgInfo, accuracy,
                    curvature, gradient, hessian_diag, hvp, load_params,
                    mean_logloss, pcg, per_sample_loss, predict_proba,
                    save_params, train)
from .risk import (RobustnessReport, cov_phi_eps, evaluate_robustness,
                   gamma_shift, worst_case_curve, worst_case_risk)
from .sampling import (SamplingError, SamplingPlan, draw_subset, dropout_probs,
                       linear_probs, optlr_probs, probs_for, random_probs,
                       sigmoid_probs, subset_risk_weighted)

__version__ = "0.1.0"
