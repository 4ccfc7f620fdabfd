"""DET-CLOCK fixture: wall-clock and entropy reads."""

import datetime
import os
import time
import uuid


def stamp():
    a = time.time()
    b = time.monotonic()
    c = datetime.datetime.now()
    d = uuid.uuid4()
    e = os.urandom(4)
    return a, b, c, d, e


def stamp_through_aliases():
    """The same reads spelled through aliased and from-imports."""
    import time as t
    import uuid as u
    from datetime import date
    from os import urandom
    from time import time

    return date.today(), u.uuid4(), time(), t.time(), urandom(2)
