"""Learning structurally recursive rewrite definitions from i/o equations.

The package root exports the library entry points; everything else is
imported from its module (`terms`, `antiunify`, `rewrite`, `codegen`,
`learner`, `simplify`, `dsl`, `cli`).
"""

from .dsl import ParseError, parse_problem
from .learner import InduceConfig, induce
from .simplify import prune_irrelevant_args

__version__ = "0.1.0"
