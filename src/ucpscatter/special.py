"""An empty layer with no public name: the q-Pochhammer product is a test
reference in tests/paper.py, and no module of the package calls it.

The module stays only because perfbench/tracer.py imports it as a layer
(LAYERS), until the benchmark drops that layer.
"""
