"""lego-forge: SWE-agent task construction and trajectory curation toolkit."""

import math

from .errors import ForgeError

__version__ = "0.1.0"

# The paper's turn budget and easy/medium/hard bin edges, shared by the
# record layer, the curriculum and the config without loading either.
DEFAULT_MAX_TURNS = 100
EASY_UPPER = 50
MEDIUM_UPPER = 70


def finite(text: str) -> float:
    """A JSON number; ValueError for NaN, Infinity and past the float range."""
    if math.isfinite(value := float(text)):
        return value
    raise ValueError(f"{text} is not a finite number")
