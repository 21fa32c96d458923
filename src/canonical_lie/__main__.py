import gc

gc.disable()  # before `cli` loads, as `cli.run` would; see there

from .cli import run  # noqa: E402

run()
