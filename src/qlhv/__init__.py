"""Local hidden-variable models with complex and quaternion-valued
outcomes, verified against exact enumeration and a small quantum oracle.

Each public name has one import path, qlhv.<module>.<name>, so import the
modules (from qlhv import chsh).  The package itself binds only
__version__, the one home of the version, which pyproject.toml reads."""

__version__ = "0.8.0"
