"""Every CLI artifact, pinned: the five commands on the four shipped configs
(``RUNS`` of ``scripts/artifact_drift.py``, at each config's own seed) run in
process, and each file's sha256 must match the table below.

A change that moves artifacts on purpose re-pins the table and pastes the
output of ``python3 scripts/artifact_drift.py <parent>`` into CHANGES.md,
which names every moved file and its largest change per column.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "scripts" / "artifact_drift.py"

# pinned under numpy 2.4.6 and its OpenBLAS; the 40-step configs do not
# depend on the BLAS thread count
DIGESTS = {
    "fractional/control.csv": "e33eb79c5d858b39d56a1b9ac9f11482cf8c7c6dba5df232c17398fcc279ec0f",
    "fractional/control.json": "acc6e3f660f06921e61d965ac013d1bc0d09b55243f2fca934981927ffd71901",
    "fractional/convergence.csv": "c5034e2f5c02b5cc12c4c1899a7d6773b0504a6de7c0d9ee75fbec51989cef0d",
    "fractional/kernel_approx.csv": "5ee689ea2e3dfebfeeea5c73ba864440db69ef28db376524b5fbee71bd0032d8",
    "fractional/kernel_approx_summary.json": "a02c76225eebb9d81904735c26e460e95d829f25edb87e92656a3c5f2b79c2dd",
    "fractional/oracle.csv": "9df2ec1be47e991938b8704154fc1e94d66511030d777db2c23093043837c412",
    "fractional/oracle_summary.json": "5dd21768339e182c5d28b3fced44ad7aa569c5a7f48aa3199998a759a3c12792",
    "fractional/paths_controlled.csv": "6e26be8bc2c8992401b30fc3a4cdcc368a3ad5b1aa56cf91da0ef8d888b13685",
    "fractional/paths_uncontrolled.csv": "a30dacb9019603efce49e537b2145b93975ef198a1f1955e820c8821cc4626b5",
    "fractional/simulate_summary.json": "471bc4dfae61f992a979af1a08a8f39f9db820467d9d9c123db3a733620813a9",
    "gamma/control.csv": "ad70755e0228a47fa559fbcce9f26960a67fb935fb13e18a75e7d31b0ff48d21",
    "gamma/control.json": "f98474abd1f53e1cb867d1dc0b903f94689e8d9306921fbc43ea1b5e74a0f253",
    "gamma/convergence.csv": "3d915d921233f2336e83004fd2b7a739207451c805b83f3b185b6226453a77e3",
    "gamma/kernel_approx.csv": "872c6ceaedf2282102cbab4ad16ca3e643d9f94a34f00b4923fc45e0b73cdc4b",
    "gamma/kernel_approx_summary.json": "71fb721acd0686f4375cb56f61c76b340ea8ed0daf21e8e17c25c016fffb06b5",
    "gamma/oracle.csv": "61da06d2b9fe197ba7305125522dc7239e5f15c5247bce5d52ea019b8aeb5d1d",
    "gamma/oracle_summary.json": "e0fed1522e6792d044fc390992157ad4d7241214ca1c57437707efe7a278f9d7",
    "gamma/paths_controlled.csv": "df521acc9d254cae8928a25cd319e648dc85f588e483ca0240ad3b3abdcb3483",
    "gamma/paths_uncontrolled.csv": "fc7f257ef47f283a2e9e28ea9d93a8b0d000340b7019ed7ff210c9dac5d562e0",
    "gamma/simulate_summary.json": "7764857cb92491f69f101623c5514b4096c436ab558b368a8d11051b6da630c1",
    "monomial_sweep/control_n1.csv": "38c7c768d8dc3bae1f17d691aba1a4e22abe9be73fe1a574172cb51ad20fae9f",
    "monomial_sweep/control_n1.json": "c0ef56e21892cea4e176a1374cd1bd128eacc9a1fa8af12ea517fd797069b42b",
    "monomial_sweep/control_n10.csv": "4764d94a7f725f05ddba7f7eb3022d7db36888be7e71bc623ab70029d93ed454",
    "monomial_sweep/control_n10.json": "f8bdb30fc7e4bc67eeae8cf36dfe04a8cf0b3503afaff1c2f5069d80deec91ef",
    "monomial_sweep/control_n2.csv": "491ca01d99038d4b08674c2e5a9537b08ae21da56324926e16f831c8a8fd0995",
    "monomial_sweep/control_n2.json": "f6e0e42b9f1dc20e2f85bb94ce83b90393ad8396e59ad89d7afc21d13c5c09d4",
    "monomial_sweep/control_n5.csv": "d4b8e1dcc9778e699a3f12284fbef5da45adbf825604ed19caf562467e1c6e5d",
    "monomial_sweep/control_n5.json": "46f0357d587793419498488f6fc62942fd001d5a58c994dbf6f775bc57a5b41e",
    "monomial_sweep/control_reference.csv": "eb68ce6f782949f5bf2351bfcfbcbb789f4d1a8f84b04ff7909b30753f14a855",
    "monomial_sweep/convergence.csv": "0f976305cd9b1118f362dd96a06b6673eeec0446c5549d8d31b9e77eb835345b",
    "monomial_sweep/kernel_approx.csv": "8d7bb1dbd25cb6c228b830bbfb3fe7f387909d7b1ac10be586e86ad5de0b5936",
    "monomial_sweep/kernel_approx_summary.json": "156d7b5ded2ccfb0168f116384187a48b3de9060977f155c1967c1cd4a1797ef",
    "monomial_sweep/oracle.csv": "42e3cd010b73684629668242688f00133635e35825f247f1d55d45970781feb4",
    "monomial_sweep/oracle_summary.json": "4b9a0e6292976ad3178301ff04fa8582d092785f6591686410efd603acfd22ba",
    "monomial_sweep/paths_controlled.csv": "fb7685575cc56e2bf2693f6cd132c84bf9b12fc72b10ece40ff1ca9c2856f9bf",
    "monomial_sweep/paths_uncontrolled.csv": "222604e963728f4b5b44c8ce1cb9eaca4a7ced04a4f2233e2c214e5f22cd23cd",
    "monomial_sweep/simulate_summary.json": "f13ce44e41b9b74455ce50f3040f1a33b337482d1d6f2327c5e157b56995a8d1",
    "smooth/control.csv": "f6df3a0378726662784b75bb382e43b8ee19db36d393d9045012f9a8558ba13d",
    "smooth/control.json": "f0bae280a35346864156396966dbd4c7da54082b81731659363c84709ce5fa3a",
    "smooth/convergence.csv": "9de4c583402ab0e0ab02e197cf6ad064201e6b0bc28acfd09d1fb8484bacc02b",
    "smooth/kernel_approx.csv": "16c4a7d44d1a437a95251008283073cd708b04fb667d58a016c17a1a825a3ead",
    "smooth/kernel_approx_summary.json": "b4a1b88ba25cf8ce3eeb62dc0af1b33da3171656935c029969a8dcf3aaa66e2a",
    "smooth/oracle.csv": "8401daec514a10ba2349e2039ec1eaaf24955c352232406d23f8c7344951c062",
    "smooth/oracle_summary.json": "41096fa9bd51d80a081a2a8be1f61ea46b38f96680cfe2dee35932d2a7153ec7",
    "smooth/paths_controlled.csv": "65cc64746d98ad1f39b2779971649072acaf77365b62029f6db86a2fa7833976",
    "smooth/paths_uncontrolled.csv": "f55ce5cf67cf6de8d4c9f0df11645b9dca03e8bc8f2a580f17f74e4bdfaaacb6",
    "smooth/simulate_summary.json": "e701925623e91e063d7024610ce54f08f16295859ef8c51da928cc18acd90b5c",
}


def _load_drift():
    spec = importlib.util.spec_from_file_location("artifact_drift", SOURCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_artifacts_are_pinned(tmp_path):
    artifacts = _load_drift().run_all(ROOT / "configs", tmp_path)
    got = {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()}
    moved = sorted(name for name in got.keys() | DIGESTS.keys() if got.get(name) != DIGESTS.get(name))
    assert not moved, (
        f"{len(moved)} of {len(DIGESTS)} CLI artifacts differ under numpy {np.__version__} from "
        f"the digests pinned under numpy 2.4.6: {', '.join(moved)}; "
        f"python3 scripts/artifact_drift.py <parent> reports how far each moved"
    )
