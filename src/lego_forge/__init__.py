"""lego-forge: SWE-agent task construction and trajectory curation toolkit."""

from .errors import ForgeError

__version__ = "0.1.0"
