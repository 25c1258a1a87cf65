"""Exact closed-form determinants of generalized binary band Toeplitz
matrices, brute-force oracles to check them with, and even/odd censuses
of the restricted-permutation classes they count."""

from .band import *
from .errors import *
from .oracle import *
from .permcount import *
from .rings import *

__version__ = "0.1.0"
