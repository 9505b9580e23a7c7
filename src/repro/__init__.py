"""repro — reproduction of "Revealing reliable information from taxi
traces: from raw data to information discovery" (ICDE 2022).

The package rebuilds the paper's full pipeline on synthetic substrates:

* :mod:`repro.geo` — geodesy and planar geometry;
* :mod:`repro.store` — the sharded, content-addressed study store that
  recomputes only dirty (city, day) shards on a rerun;
* :mod:`repro.roadnet` — the Digiroad-style map database (PostGIS
  substitute), map preparation, routing, and the synthetic downtown-Oulu
  generator;
* :mod:`repro.traces` — the taxi fleet simulator (Driveco substitute) and
  trace data model;
* :mod:`repro.cleaning` — ordering repair, filters and Table 2
  segmentation;
* :mod:`repro.matching` — incremental and HMM map matching with Dijkstra
  gap filling;
* :mod:`repro.od` — thick-geometry gates and transition extraction;
* :mod:`repro.features` — map-attribute fusion, route statistics and the
  200 m analysis grid;
* :mod:`repro.stats` — descriptive stats, OLS and the REML random
  intercept mixed model;
* :mod:`repro.weather` — seasons and the FMI road-weather substitute;
* :mod:`repro.experiments` — the end-to-end study plus generators for
  every table and figure of the evaluation;
* :mod:`repro.obs` — structured logging, the metrics registry and stage
  tracing that make every pipeline run auditable.

Quickstart::

    from repro.experiments import OuluStudy, render_funnel

    result = OuluStudy().run()
    print(render_funnel(result))          # paper Table 3
"""

from repro.experiments.study import OuluStudy, StudyConfig, StudyResult

__version__ = "1.0.0"

__all__ = ["OuluStudy", "StudyConfig", "StudyResult", "__version__"]
