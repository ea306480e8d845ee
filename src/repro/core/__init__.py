"""ModelarDB+ core: model types, GOLEMM compression, segments.

Importing this package registers the built-in model types (paper
§III-A): PMC-Mean, Swing, Gorilla, the raw fallback, and PMC-MR (kept
for the ModelarDB-v1 baseline).  User-defined model types register via
:func:`repro.core.model_types.register` without changing the system.
"""
from .fallback import GorillaModel, RawFallback
from .model_types import register
from .pmc_mean import PMCMean, PMCMidrange
from .swing import Swing

for _mt in (PMCMean(), Swing(), GorillaModel(), RawFallback(), PMCMidrange()):
    register(_mt)
