"""The package runs on the standard library alone (``dependencies = []``).

A fresh interpreter whose import system refuses ``numpy`` imports
``repro``, runs early-stopping's vector table through ``execute()``,
and runs a 2-shard sharded sweep (so the shared-memory slab round trip
is exercised) — and numpy never lands in ``sys.modules``.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap

SCRIPT = textwrap.dedent(
    """
    import sys

    class BlockNumpy:
        def find_spec(self, name, path=None, target=None):
            if name == "numpy" or name.startswith("numpy."):
                raise ModuleNotFoundError(f"No module named {name!r}", name=name)
            return None

    sys.meta_path.insert(0, BlockNumpy())

    import repro
    from repro.scenarios import Scenario, SweepRunner, execute, expand_grid

    cell = Scenario(algorithm="early-stopping", n=8, f=2, adversary="staggered",
                    seed=3)
    vector = execute(cell, batched=True)  # raises unless the table engages
    assert vector.to_dict() == execute(cell, batched=False).to_dict()

    cells = expand_grid(["early-stopping", "crw", "floodset"], [5],
                        adversaries=("staggered",), seeds=2)
    serial = SweepRunner(cells, executor="serial").run()
    sharded = SweepRunner(cells, executor="sharded", jsonl_path=sys.argv[1],
                          shards=2, processes=1).run()
    assert [r.to_dict() for r in sharded] == [r.to_dict() for r in serial]

    assert "numpy" not in sys.modules, "numpy was imported"
    print("ok", len(cells))
    """
)


def test_package_runs_without_numpy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "shards")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("ok ")
