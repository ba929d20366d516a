"""Regenerate the serialized fixture corpus, by default under tests/fixtures/.

Run from the repository root:

    python3 tests/make_fixtures.py [OUT_DIR]

Every file is produced deterministically from fixed seeds through the same
construction paths the CLI uses.  ``tests/test_fixture_verdicts.py`` writes
the corpus into a temporary directory and compares it with the checked-in
files.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from cstarcat.category import AdditiveHull, matrix_algebra
from cstarcat.bimodules import tensor_bimodule_bimodule, tensor_module_bimodule, yoneda_bimodule
from cstarcat.generators import (
    FiniteGroupoid,
    bimodule_from_functor,
    groupoid_category,
    random_block_category,
    random_module,
    unitary_twist_functor,
)
from cstarcat.morita import check_imprimitivity, conjugate_bimodule
from cstarcat.io import save_specfile, specfile_for

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"


def main(out_dir=FIXTURES) -> None:
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(exist_ok=True)
    out = []

    cats = {}
    for seed in range(6):
        cat, _ = random_block_category(seed, n_objects=2)
        cats[seed] = cat
        out.append((f"category_block_{seed}", cat))

    for n in (2, 3):
        out.append((f"groupoid_cyclic_{n}", FiniteGroupoid.cyclic(n)))
        out.append((f"groupoid_codiscrete_{n}", FiniteGroupoid.codiscrete(n)))
    out.append(("category_groupoid_pair2", groupoid_category(FiniteGroupoid.codiscrete(2))))

    for seed in (0, 1, 2, 3):
        out.append((f"module_{seed}", random_module(300 + seed, cats[seed])))

    bimodules = {}
    for seed in (0, 1, 2):
        E = bimodule_from_functor(unitary_twist_functor(cats[seed], seed=400 + seed))
        bimodules[seed] = E
        out.append((f"bimodule_twist_{seed}", E))
    out.append(("bimodule_yoneda_0", yoneda_bimodule(cats[0])))

    out.append(("category_hull_0", AdditiveHull(cats[0]).cat))
    out.append(("category_matalg_1", matrix_algebra(cats[1]).cat))

    data, _ = check_imprimitivity(bimodules[0])
    out.append(("bimodule_conjugate_0", conjugate_bimodule(data)))
    out.append((
        "module_tensor_0",
        tensor_module_bimodule(random_module(300, cats[0]), bimodules[0]).module,
    ))
    out.append((
        "bimodule_tensor_00",
        tensor_bimodule_bimodule(bimodules[0], yoneda_bimodule(cats[0])),
    ))

    for name, obj in out:
        save_specfile(out_dir / f"{name}.cstar.json", specfile_for(obj))
    print(f"wrote {len(out)} fixtures to {out_dir}")


if __name__ == "__main__":
    main(*sys.argv[1:])
