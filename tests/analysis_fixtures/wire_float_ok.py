"""WIRE-FLOAT fixture (clean): payloads are ints/strs/bytes/tuples.

Fixed-point integers carry fractional quantities across the wire.
"""


def encode(canonical, view):
    return canonical(("probe", view, 1250, (("retries", 3),)))
