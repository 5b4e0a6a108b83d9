"""Experiment drivers and reporting.

:mod:`repro.analysis.experiments` regenerates every table and figure of
the paper's evaluation; :mod:`repro.analysis.tables` renders them in the
paper's layout; ``python -m repro.analysis.report`` runs the whole
evaluation and prints paper-vs-measured for everything.
"""

from repro.analysis.experiments import (
    MeasuredRow,
    figure1_address_space,
    figure2_fault_trace,
    table1_primitives,
    table2_and_3_applications,
    table4_transactions,
)
from repro.analysis.sweeps import (
    SweepPoint,
    render_series,
    sweep_arrival_rate,
    sweep_eviction_period,
    sweep_fault_service,
)
from repro.analysis.tables import format_table

__all__ = [
    "SweepPoint",
    "render_series",
    "sweep_arrival_rate",
    "sweep_eviction_period",
    "sweep_fault_service",
    "MeasuredRow",
    "figure1_address_space",
    "figure2_fault_trace",
    "table1_primitives",
    "table2_and_3_applications",
    "table4_transactions",
    "format_table",
]
