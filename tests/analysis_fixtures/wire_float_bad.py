"""WIRE-FLOAT fixture: wire-hostile values in payload construction."""


def encode(canonical, view):
    return canonical(("probe", view, 1.25, {"retries": 3}, {1, 2}))
