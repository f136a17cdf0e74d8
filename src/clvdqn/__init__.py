"""Deep Q-learning over RFM-I customer states for direct-marketing control."""

__version__ = "0.1.0"
