"""Exact-integer model of the Hofstadter-butterfly skeleton.

The spectrum's self-similar hierarchy is organized as an octonary tree of
"butterflies with tails": each butterfly is a Farey triplet of flux
values plus a pair of central Chern numbers, eight unimodular generators
move between them, and the whole structure ties into Pythagorean triples,
Apollonian circle packings, quadratic-surd scaling exponents, and a
drawable Wannier-diagram skeleton.  Everything is arbitrary-precision
integer arithmetic; floats appear only as display views.

Each public name is imported from the submodule that defines it, such as
`from butterfly_tree.tree import node_at`; importing the package itself
loads no submodule.
"""

__version__ = "0.1.0"
