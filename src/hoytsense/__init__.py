"""Energy-detection performance over Hoyt (Nakagami-q) fading.

Closed-form AUC/CAUC for an energy detector observing a Hoyt-faded signal,
together with the scaffolding needed to trust those forms: an independent
quadrature route, a Monte-Carlo estimator with reproducible streams, and
executable validation suites that also quantify the defects in the published
expressions this package corrects.
"""

from .detector import (DetectorConfig, MetricValue, auc_awgn,
                       auc_awgn_1f1_variant, auc_awgn_series, auc_quadrature,
                       cauc_awgn, pd, pf, roc_points_awgn, threshold_for_pf)
from .hoyt import HoytFading, sample_snr, snr_cdf, snr_mgf, snr_pdf
from .average import (avg_auc_closed, avg_auc_quadrature, avg_cauc_closed,
                      avg_pd_closed, avg_pd_closed_curve, avg_pd_quadrature)
from .montecarlo import (McConfig, McEstimate, batch_rng, estimate_auc,
                         estimate_pd, sample_statistic)
from .quadrature import (EvalPolicy, QuadratureError, integrate_half_line,
                         integrate_unit_interval)
from .specfun import ConvergenceError
from .validate import run_suite

__version__ = "0.1.0"

__all__ = [
    "DetectorConfig", "MetricValue", "HoytFading", "EvalPolicy",
    "McConfig", "McEstimate",
    "ConvergenceError", "QuadratureError",
    "pf", "pd", "threshold_for_pf",
    "auc_awgn", "auc_awgn_series", "auc_awgn_1f1_variant", "cauc_awgn",
    "auc_quadrature", "roc_points_awgn",
    "snr_pdf", "snr_cdf", "snr_mgf", "sample_snr",
    "avg_auc_closed", "avg_cauc_closed", "avg_auc_quadrature",
    "avg_pd_closed", "avg_pd_closed_curve",
    "avg_pd_quadrature",
    "batch_rng", "sample_statistic", "estimate_auc", "estimate_pd",
    "integrate_unit_interval", "integrate_half_line",
    "run_suite",
    "__version__",
]
