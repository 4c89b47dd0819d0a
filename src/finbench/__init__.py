"""finbench: executable witnesses and counterexample certificates for
finiteness properties of functors on computable categories."""

from .core import Mor, Obj, category_of, lookup_category
from .cats import FINSET, GRA, UN, gset_cat

__all__ = [
    "Mor",
    "Obj",
    "category_of",
    "lookup_category",
    "FINSET",
    "GRA",
    "UN",
    "VEC2",
    "VEC3",
    "gset_cat",
]


def __getattr__(name):
    # the F_q spaces load with finbench.vec, on first use
    if name in ("VEC2", "VEC3"):
        from . import vec

        return getattr(vec, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
