"""swapsim: simulator and analysis toolkit for photonic entanglement swapping
from a quantum-dot biexciton-exciton cascade source."""

__version__ = "0.1.0"
