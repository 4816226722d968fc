"""Agent-based continuous double-auction market simulator with regime analytics."""

__version__ = "0.1.0"

from .book import OrderBook, OrderIntent, Side, Trade
from .config import SimConfig, load_config
from .engine import RunOutput, run_seeds, run_simulation
from .population import Population

__all__ = [
    "OrderBook",
    "OrderIntent",
    "Population",
    "RunOutput",
    "Side",
    "SimConfig",
    "Trade",
    "load_config",
    "run_seeds",
    "run_simulation",
    "__version__",
]
