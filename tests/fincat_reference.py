"""Replay reference for the tensor's functoriality, kept as a test oracle.

This is the direct reading of the law that `sheafsep.fincat`'s
thinness certificate replaces: every entry (f, g) of the tensor table
is composed with every composable pair (f2, g2), and
(f2.f) (x) (g2.g) is compared with (f2 (x) g2).(f (x) g).  The
differential tests compare reports on well-typed, corrupted and
non-thin tensors.
"""

from sheafsep.report import Report


def validate_monoidal(cat, mon):
    """Unit, symmetry and identity laws, then every composable quadruple."""
    rep = Report("monoidal structure")
    for a in cat.objects:
        if mon.tensor_defined(a, mon.unit):
            if mon.tensor(a, mon.unit) != a or mon.tensor(mon.unit, a) != a:
                rep.flag("unit", f"unit law fails at {a!r}")
    if mon.symmetric:
        for (a, b), ab in mon.tensor_obj.items():
            if mon.tensor_obj.get((b, a)) != ab:
                rep.flag("symmetry", f"tensor not symmetric on ({a!r}, {b!r})")
    for a in cat.objects:
        for b in cat.objects:
            if not mon.tensor_defined(a, b):
                continue
            ia, ib = cat.id(a), cat.id(b)
            if (ia, ib) in mon.tensor_mor:
                if mon.tensor_m(ia, ib) != cat.id(mon.tensor(a, b)):
                    rep.flag("functoriality", f"id tensor id != id at ({a!r}, {b!r})")
    for (f, g), fg in mon.tensor_mor.items():
        for f2 in cat.mors_from(cat.dst(f)):
            for g2 in cat.mors_from(cat.dst(g)):
                f2g2 = mon.tensor_mor.get((f2, g2))
                if f2g2 is None or (f2g2, fg) not in cat.compose_table:
                    continue
                lhs = mon.tensor_mor.get((cat.compose(f2, f), cat.compose(g2, g)))
                if lhs != cat.compose(f2g2, fg):
                    rep.flag(
                        "functoriality",
                        f"(f2.f) tensor (g2.g) != (f2 tensor g2).(f tensor g) at ({f!r},{g!r})",
                    )
    return rep
