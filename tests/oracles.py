"""Helpers shared by the test modules, so that no test module imports another.

Oracles kept from earlier implementations, the quoted level-2 family, shared
planted defects and the patch that reaches every binding of a function.
"""

import math
import sys
from fractions import Fraction as F

from rclab import nearlyholo, rep
from rclab.exactcore import QSeries, pochhammer, rat
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


def a2_family(c):
    """The quoted level-2 family A_2(x, y) = x(x+1) y(y+1) / 2 + c x y / (x+y+1)."""
    return lambda x, y: F(x * (x + 1) * y * (y + 1), 2) + rat(c) * F(x * y, x + y + 1)


def sigma_oracle(n, power):
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def _pochhammer_doubled_at_five(a, n):
    # det2x2_direct reads (.)_{n-1} and the closed form (.)_{n-2}: they first disagree at n = 6
    value = pochhammer(a, n)
    return 2 * value if n == 5 else value


_lowest_weight_tensor = rep.lowest_weight_tensor


def _lowest_weight_tensor_times_n_factorial(x, y, n):
    # without the 1/n!: act_lower still kills it, so only the realization sees the scale
    return _lowest_weight_tensor(x, y, n).scale(math.factorial(n))


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
