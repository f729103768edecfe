"""Volatility-asymmetry and multifractality analysis toolkit.

Modules: ingest (ticks -> returns), stats (descriptive + jackknife),
tgarch (AR(1)+TGARCH MLE), mfdfa (multifractal DFA), synth (oracles),
rolling (sliding-window tracks), cli (batch front end).
"""

from . import ingest, kernels, mfdfa, rolling, stats, synth, tgarch

__version__ = "0.2.0"

__all__ = ["ingest", "kernels", "mfdfa", "rolling", "stats", "synth", "tgarch", "__version__"]
