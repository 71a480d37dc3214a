"""Bound states and thermodynamics of a 1-d Klein-Gordon particle in the
scalar potential a1 + a2*|x| + a3/|x|, via biconfluent-Heun series solutions
and Euler-MacLaurin summation.

Import the submodules: ``params``, ``spectrum``, ``heun``, ``thermo``,
``cli`` and ``errors``."""

__version__ = "0.1.0"
