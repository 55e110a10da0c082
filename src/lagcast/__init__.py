"""lagcast: small one-step time-series forecasting toolkit.

Two model families over sliding lag windows (a closed-form polynomial
regressor and a Gaussian RBF network with a trained output layer),
forecast error metrics, paired significance tests, and an experiment
harness with a CLI.
"""

from .data import (
    SplitSpec,
    TimeSeries,
    WindowedDataset,
    load_csv,
    make_windows,
    split_train_test,
    synth_ar,
    synth_random_walk,
    synth_seasonal,
)
from .errors import (
    ConfigError,
    DataError,
    DegenerateSampleError,
    FitError,
    UndefinedMetricError,
)
from .harness import (
    ComparisonReport,
    ComparisonSuite,
    CsvSource,
    ExperimentConfig,
    SweepResult,
    SynthSource,
    render_report,
    run_comparison,
    run_comparison_suite,
    run_degree_sweep,
    windowed_split,
)
from .metrics import MetricReport, TimedResult, cv_rmse, mae, metric_report, rmse, timed
from .polynomial import (
    MonomialBasis,
    PolynomialModel,
    basis_size,
    enumerate_monomials,
    expand,
    fit,
    predict,
    rolling_forecast,
)
from .rbf import (
    RbfNetwork,
    RbfTrainConfig,
    TrainTrace,
    batch_forward,
    fit_fixed,
    forward,
    grow_until_target,
    hidden_activations,
    init_centers,
    set_widths,
    train,
)
from .stats import (
    PairedTestResult,
    paired_t_test,
    significance_verdict,
    student_t_sf,
    wilcoxon_signed_rank,
)

__version__ = "0.1.0"
