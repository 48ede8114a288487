"""Soft sets over truth/indeterminacy/falsity grade triples.

The package splits into:

- ``grades``: exact decimal grades and the validated triple type
- ``algebra``: parameters, soft sets and the operation suite
- ``decision``: the comparison-matrix selection procedure
- ``documents``: JSON documents, canonical serialization, table rendering
- ``oracle``: a deliberately naive second implementation used to audit the
  fast paths and to check algebraic laws
- ``cli``: the ``inss`` command

``import inss`` re-exports the ``__all__`` of ``errors`` and of the first four.
"""

from . import algebra, decision, documents, errors, grades
from .algebra import *
from .decision import *
from .documents import *
from .errors import *
from .grades import *

__version__ = "0.1.0"

__all__ = ["__version__", *grades.__all__, *algebra.__all__, *decision.__all__, *documents.__all__, *errors.__all__]
