"""Inverse-closedness experiments for convolution-dominated operators.

The package builds up in layers: weighted sequence algebras and their
torus symbols; nuclear (trace-class) machinery for small dense blocks,
including Neumann-series and path-continuation inversion; banded block
operators dominated by summable envelopes, with dense-LU inversion and
envelope decay fits; the blocking isometry to sampled functions and
integral kernels; and a deterministic experiment harness, the one owner
of the report tables, with a CLI (``decayalg``).

Names are imported from the modules that define them (``decayalg.cd_operator``
and so on); the package root exports only ``__version__``.
"""

__version__ = "0.1.0"
