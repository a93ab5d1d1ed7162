"""Relation-augmented transformer set-prediction detector, desk scale.

A small object detector trained end to end with bipartite matching: float64
autodiff core, kNN relation graph in the decoder, Hungarian loss with GIoU
plus L1 box regression, a deterministic synthetic scene generator, and
average-precision evaluation.
"""

__version__ = "0.1.0"

from .numeric import Tape, Tensor, backward

__all__ = ["Tape", "Tensor", "backward", "__version__"]
