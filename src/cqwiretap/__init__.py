"""Semantic-security coding and leakage certification for classical-quantum
wiretap channels, at explicitly finite, desk-scale dimensions.

Modules
-------
operators   Hermitian operator core: entropies, divergences, norms.
channels    cq channels, Holevo quantities, leakage, capacity search.
bri         biregular functions, section matrices, spectral gaps.
codes       wiretap codes, modular assembly, derandomization.
bounds      numeric certification of the leakage bound chain.
typicality  typical sets, typicality reports, subnormalized channels.
serialize   JSON/CSV formats for channels, functions, codes, reports.
cli         reproducible experiment runner.
"""

__version__ = "0.1.0"
