"""Continuous-variable cluster/graph-state toolkit.

Two engines over one gate vocabulary:

* :mod:`cvcluster.ledger` — exact symbolic Heisenberg-picture bookkeeping
  with a symbolic squeezing parameter;
* :mod:`cvcluster.covariance` — numeric Gaussian means/covariances with
  homodyne conditioning and entanglement witnesses.

On top: graph topologies (:mod:`cvcluster.graphs`), entanglement protocols
(:mod:`cvcluster.protocols`), a line-oriented scenario DSL
(:mod:`cvcluster.scenario`), a compiled-in claims suite
(:mod:`cvcluster.claims`) and a command line front end
(:mod:`cvcluster.cli`, imported on its own so ``python -m cvcluster.cli``
runs it cleanly).
"""

from . import claims, covariance, gates, graphs, ledger, protocols, scenario
from .errors import CvClusterError

__all__ = [
    "CvClusterError",
    "claims",
    "covariance",
    "gates",
    "graphs",
    "ledger",
    "protocols",
    "scenario",
]

__version__ = "0.1.0"
