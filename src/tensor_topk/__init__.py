"""Top-k entry retrieval from CP-format tensors.

Import the submodules directly, e.g. ``from tensor_topk import cp, solver``.
"""

__version__ = "0.1.0"
