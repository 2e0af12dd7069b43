"""flowmc: contract-based model extraction for annotated programs.

Pipeline: parse a ``.apg`` annotated program, abstract it into a flow
graph by substituting verified contracts for code, explore the induced
pushdown system explicitly, and emit equivalent TLA+ and nuXmv models.
Import the layers from their modules (``flowmc.pds``, ``flowmc.sts``,
...); the package itself defines only ``__version__``.
"""

__version__ = "0.1.0"
