"""Measurement-analysis toolkit used by experiments and benches."""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "CDF": "repro.analysis.cdf",
    "empirical_cdf": "repro.analysis.cdf",
    "FitResult": "repro.analysis.fitting",
    "fit_zipf": "repro.analysis.fitting",
    "fit_se": "repro.analysis.fitting",
    "average_relative_error": "repro.analysis.fitting",
    "SummaryStats": "repro.analysis.stats",
    "summarize": "repro.analysis.stats",
    "bin_rate_series": "repro.analysis.timeseries",
    "peak_of_series": "repro.analysis.timeseries",
    "TextTable": "repro.analysis.tables",
    "ks_distance": "repro.analysis.compare",
    "quantile_ratios": "repro.analysis.compare",
    "compare": "repro.analysis.compare",
    "SimilarityVerdict": "repro.analysis.compare",
    "SvgFigure": "repro.analysis.svg",
})
