"""lego-forge: SWE-agent task construction and trajectory curation toolkit."""

from .errors import ForgeError

__version__ = "0.1.0"

# The paper's turn budget and easy/medium/hard bin edges, shared by the
# record layer, the curriculum and the config without loading either.
DEFAULT_MAX_TURNS = 100
EASY_UPPER = 50
MEDIUM_UPPER = 70
