"""gridseal: privacy-preserving meter aggregation and decentralized
attribute-based access control for grid telemetry.

Meters encrypt readings additively so gateways aggregate ciphertexts without
seeing values; the substation terminal stores records in an untrusted
repository under attribute policies, with keys issued by independent
authorities and revocation by secret rotation.
"""

__version__ = "0.1.0"
