"""Volatility-asymmetry and multifractality analysis toolkit.

Modules: ingest (ticks -> returns), stats (descriptive + jackknife),
tgarch (AR(1)+TGARCH MLE), kernels (TGARCH likelihood and score), mfdfa
(multifractal DFA), synth (oracles), rolling (sliding-window tracks), cli
(batch front end); private helpers _linfit (least-squares line) and
_validate (input checks).
"""

from . import ingest, kernels, mfdfa, rolling, stats, synth, tgarch

__version__ = "0.8.0"

__all__ = ["ingest", "kernels", "mfdfa", "rolling", "stats", "synth", "tgarch", "__version__"]
