"""Exact enumeration of squared Markov equations, fake weighted projective
planes of integral degree, their singularities and adjacency graphs.

Each public name lives in exactly one module, and is read from there:
:mod:`fwpp.markov` (the equations and their mutation trees),
:mod:`fwpp.abelian` (arithmetic in ``K = Z + Z/mu``), :mod:`fwpp.planes`
(degree matrices, classes and singularities) and :mod:`fwpp.adjacency`
(K*-surfaces and adjacency graphs).  The command line lives in
:mod:`fwpp.cli`, which ``import fwpp`` does not load."""

from . import abelian, adjacency, markov, planes

__all__ = ["abelian", "adjacency", "markov", "planes"]
__version__ = "0.1.0"
