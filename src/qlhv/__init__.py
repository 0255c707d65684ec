"""Local hidden-variable models with complex and quaternion-valued
outcomes, verified against exact enumeration and a small quantum oracle."""

__version__ = "0.6.0"
