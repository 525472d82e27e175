"""Job profiling and cluster measurement (paper Sec. 4.2).

The prototype obtains Algorithm 1's inputs by (a) running the job on a
~10 % sample of its input data on a single executor and parsing the
Spark event log for the DAG, the shuffle volumes ``s``/``d``, and the
data-processing rate ``R_k``; and (b) periodically measuring network
and disk bandwidth with ``netperf``/``iotop``.  Both paths are
reproduced here against the simulator: the profiling run is a real
(simulated) execution of the sampled job, and measurement returns the
cluster spec with configurable observation noise — the source of the
model error quantified in Appendix A.2.
"""

from repro.profiling.profiler import ProfileReport, profile_job
from repro.profiling.measurement import measure_cluster

__all__ = [
    "ProfileReport",
    "profile_job",
    "measure_cluster",
]
