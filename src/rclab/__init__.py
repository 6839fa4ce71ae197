"""rclab: exact Rankin-Cohen bracket laboratory.

Exact-arithmetic modular forms, the pi-free sl2 lowest-weight machinery
behind the brackets, the one-parameter families of deformed products built
on them, and machine verification of the associativity / uniqueness /
positivity claims the construction rests on.

Each name is imported from the module that defines it.
"""

from . import coeffsolve, exactcore, forms, nearlyholo, rep, starprod, uniq

__version__ = "0.1.0"
