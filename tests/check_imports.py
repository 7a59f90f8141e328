"""Check that each gdz command loads only the modules it runs.

Run it as a script, ``python tests/check_imports.py``; it exits nonzero
with the command and the modules at fault. It checks whichever gdrazin
its interpreter imports: the source tree under ``PYTHONPATH=src``, or the
installed package when run from outside the checkout.

``import gdrazin.cli`` and the commands ``drazin``, ``sum``, ``block`` and
``verify`` must leave the generator (``gdrazin.casegen``), the Pierce
splitting (``gdrazin.pierce``) and ``numpy.random`` unloaded; ``gen`` loads
the generator. The instances that the commands read are written first by
``gdz gen`` in a child interpreter, so that this one has not run the
generator when the checks are made.
"""

import contextlib
import os
import subprocess
import sys
import tempfile

UNUSED = ("gdrazin.casegen", "gdrazin.pierce", "numpy.random")


def loaded() -> list[str]:
    return [name for name in UNUSED if name in sys.modules]


def main() -> int:
    faults = []
    with tempfile.TemporaryDirectory() as work:
        pair, block = os.path.join(work, "pair"), os.path.join(work, "block")
        for flags, out in (  # the paper's examples 2.5 and 4.4
            (["--target", "2.4", "--dim", "3", "--lambda", "1/2"], pair),
            (["--target", "4.3", "--dim", "4", "--lambda", "3"], block),
        ):
            subprocess.run(
                [sys.executable, "-m", "gdrazin.cli", "gen", *flags, "--out", out],
                check=True, stdout=subprocess.DEVNULL,
            )

        import gdrazin.cli

        if loaded():
            faults.append(f"import gdrazin.cli loads {loaded()}")
        runs = (  # (argv, the modules of UNUSED it loads)
            (["drazin", os.path.join(pair, "a.json")], []),
            (["sum", *(os.path.join(pair, f"{n}.json") for n in "ab"), "--theorem", "2.4"], []),
            (["block", *(os.path.join(block, f"{n}.json") for n in "abcd"), "--theorem", "4.3"], []),
            (["verify", work], []),
            (["gen", "--target", "3.1", "--dim", "4", "--out", os.path.join(work, "gen")],
             ["gdrazin.casegen", "numpy.random"]),
        )
        for argv, loads in runs:
            with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
                code = gdrazin.cli.main(argv)
            if code != gdrazin.cli.EXIT_OK:
                faults.append(f"gdz {argv[0]} exits {code}")
            if loaded() != loads:
                faults.append(f"after gdz {argv[0]}, {loaded()} are loaded, not {loads}")
    if faults:
        print("; ".join(faults), file=sys.stderr)
        return 1
    print(f"each gdz command loads only what it runs ({os.path.dirname(gdrazin.cli.__file__)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
