"""Helpers shared by the test modules, so that no test module imports another.

Oracles kept from earlier implementations, a planted defect that more than
one module plants, and the patch that reaches every binding of a function.
"""

import sys

from rclab import nearlyholo
from rclab.exactcore import QSeries, pochhammer
from rclab.forms import ModularForm
from rclab.nearlyholo import NearlyHoloForm


def _patch_every_binding(monkeypatch, original, replacement) -> int:
    """Rebind every rclab module attribute that is `original`; returns the count."""
    modules = [m for name, m in sys.modules.items() if name == "rclab" or name.startswith("rclab.")]
    bound = 0
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)
                bound += 1
    return bound


_shimura_X = nearlyholo.shimura_X


def _shimura_X_y_term_off_by_one(F):
    # (j - w) c_j Y^(j+1) becomes (j - w - 1) c_j Y^(j+1) for j >= 1, so only X^2 and above are wrong
    out = _shimura_X(F)
    if len(F.ypoly) == 1:
        return out
    return out - NearlyHoloForm.make(F.weight + 2, [QSeries.zero(F.prec)] * 2 + list(F.ypoly[1:]))


# shimura_pow and dtil_power as they were before one raising chain replaced
# them, kept as oracles.  The raise is looked up on the module, as it was,
# so that a raise patched there reaches the oracle too.


def shimura_pow(F: NearlyHoloForm, n: int) -> NearlyHoloForm:
    for _ in range(n):
        F = nearlyholo.shimura_X(F)
    return F


def dtil_power(f: ModularForm, r: int) -> NearlyHoloForm:
    """Normalized raising chain: X^r f / (weight)_r, the phi_r basis element."""
    denom = pochhammer(f.weight, r)
    if denom == 0:
        raise ValueError(f"normalized raising undefined: ({f.weight})_{r} = 0")
    return shimura_pow(NearlyHoloForm.from_modular(f), r).scale(1 / denom)
