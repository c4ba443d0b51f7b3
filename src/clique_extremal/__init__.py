"""Exact clique counting, immersion and subdivision certificates, extremal
parameters, and the clique-count bound engine, all at desk scale.

The package re-exports each module's ``__all__``; ``cli`` and ``suite``
stay out of its namespace."""

from .bounds import *
from .cliques import *
from .constructions import *
from .embed import *
from .errors import *
from .formats import *
from .graph import *
from .params import *

__version__ = "0.1.0"
