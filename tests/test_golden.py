"""Golden outputs: sha256 of the generated sequences on pinned cells.

A refactor of the step numerics must keep every hash here unchanged, so
these tests show bit-identity with the code the hashes were taken from.
If a change alters a reduction order on purpose, re-pin the hashes in the
same change and record why in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import divdiff
from conftest import random_state
from divdiff.dpp import dpp_step
from divdiff.engine import GenerationConfig, run_generation
from divdiff.models import PlantedDenoiser, default_problem
from divdiff.odd import odd_step
from divdiff.trace import ReplayDenoiser

ALPHA = 16.0


def _planted_cells():
    cells = {}
    for problem in (0, 3):
        for guidance in ("none", "odd", "dpp"):
            for theta in (0.0, 1.0):
                for batch in (8, 16):
                    name = f"planted-p{problem}-{guidance}-t{theta:g}-b{batch}"
                    cells[name] = dict(kind="planted", problem=problem, guidance=guidance,
                                       theta=theta, batch=batch)
    cells["planted-p0-odd-t1-b16-top5"] = dict(kind="planted", problem=0, guidance="odd",
                                               theta=1.0, batch=16, top_k=5)
    for guidance in ("none", "odd", "dpp"):
        cells[f"replay-{guidance}-t1-b16"] = dict(kind="replay", guidance=guidance,
                                                  theta=1.0, batch=16)
    return cells


CELLS = _planted_cells()

GOLDEN = {
    "planted-p0-dpp-t0-b16":
        "e49e84f2a2cfa99ebd082cf53a73b7d465995e595a742de1c3f3a64088f9e878",
    "planted-p0-dpp-t0-b8":
        "b15447395028026b67d65426f78e6d5c408e1345aa71cd0bf77e47e87146d931",
    "planted-p0-dpp-t1-b16":
        "eec72bd5b0d766157b1513edc28990153d66ea824722afb87e41fcf74c5c97af",
    "planted-p0-dpp-t1-b8":
        "495263afc03c0cd0bdac32b2440f51f4d75560157f828290ef17b3fdf5604558",
    "planted-p0-none-t0-b16":
        "e49e84f2a2cfa99ebd082cf53a73b7d465995e595a742de1c3f3a64088f9e878",
    "planted-p0-none-t0-b8":
        "b15447395028026b67d65426f78e6d5c408e1345aa71cd0bf77e47e87146d931",
    "planted-p0-none-t1-b16":
        "1cfd4827e990af64de373226184dbf5b1c13b7bf9ab43589e69f60e12edeee2f",
    "planted-p0-none-t1-b8":
        "02d7b1edb330363a64796204bed8dcacb478ecc502929f1887129b75cf3f3245",
    "planted-p0-odd-t0-b16":
        "e49e84f2a2cfa99ebd082cf53a73b7d465995e595a742de1c3f3a64088f9e878",
    "planted-p0-odd-t0-b8":
        "b15447395028026b67d65426f78e6d5c408e1345aa71cd0bf77e47e87146d931",
    "planted-p0-odd-t1-b16":
        "91f7b21cde166d095e015939ec323e002c2fd2a1f71bc8d5e2b371ee1b7dd722",
    "planted-p0-odd-t1-b16-top5":
        "91f7b21cde166d095e015939ec323e002c2fd2a1f71bc8d5e2b371ee1b7dd722",
    "planted-p0-odd-t1-b8":
        "b1ced6347d2eed91288067959b67086d09e20f7ab18f44ebaacc0e8408a6cd92",
    "planted-p3-dpp-t0-b16":
        "4ee17fc19dc2de92e0458ffa5f8b8de94763af030a586a53565c72fc82124691",
    "planted-p3-dpp-t0-b8":
        "c908d0386996d47841ed651da410729fe175d0ed8961431cc260e2473b311fb7",
    "planted-p3-dpp-t1-b16":
        "b27712947b87134e8f21941e0a466bc59e6380f995fd07a5d591faa23b4414d2",
    "planted-p3-dpp-t1-b8":
        "56df532a048d87bf60b0bee9075d24483d54046ff98ed161f5e80e949532e476",
    "planted-p3-none-t0-b16":
        "4ee17fc19dc2de92e0458ffa5f8b8de94763af030a586a53565c72fc82124691",
    "planted-p3-none-t0-b8":
        "c908d0386996d47841ed651da410729fe175d0ed8961431cc260e2473b311fb7",
    "planted-p3-none-t1-b16":
        "ab28b111fd80a87685ae2b0b3e795f4be85bd44bd316f88df31090ae066dba14",
    "planted-p3-none-t1-b8":
        "d534b9b24efd58c60cf21c0d1efc933ff6614c88bc990871c893c22a528f017e",
    "planted-p3-odd-t0-b16":
        "4ee17fc19dc2de92e0458ffa5f8b8de94763af030a586a53565c72fc82124691",
    "planted-p3-odd-t0-b8":
        "c908d0386996d47841ed651da410729fe175d0ed8961431cc260e2473b311fb7",
    "planted-p3-odd-t1-b16":
        "8cfe9d9934856cb4e28068c2f66e9e2f48aa8e99bac600dbd5e6e35d1c39e5a8",
    "planted-p3-odd-t1-b8":
        "af5ae2264282349f2ba91e8ac5d9419c1394f4a0cb4b8b1c9c59707e15caa49a",
    "replay-dpp-t1-b16":
        "9ab4a7ff8bb6cad4e1ac4bb8ab6a790f58047505e633be8c972f6078b4507e18",
    "replay-none-t1-b16":
        "b0ebe8088ab80c4c95ff3f545cd2fa6c9c8e14e803d6a9eb784638f627bbc3bc",
    "replay-odd-t1-b16":
        "617879d9d14c5c380b33a787f3c46892d78914e1961f72442ac9bd8676ebce78",
}


def cell_outputs(name: str) -> np.ndarray:
    """Run one golden cell and return its (B, S) int64 sequences."""
    cell = CELLS[name]
    if cell["kind"] == "planted":
        task, prompt = default_problem(cell["problem"])
        model = PlantedDenoiser(task)
        length, steps = task.length, task.length - prompt.size
    else:
        # B16 S16 V64, eight recorded steps held in memory
        gen = np.random.default_rng(7)
        blocks = (2.0 * gen.standard_normal((8, 16, 16, 64))).astype(np.float32)
        model, prompt = ReplayDenoiser(blocks), None
        length, steps = 16, 8
    config = GenerationConfig(
        temperature=cell["theta"], steps=steps, length=length, batch=cell["batch"],
        seed=0, guidance=cell["guidance"], alpha=ALPHA,
        feature_top_k=cell.get("top_k"),
    )
    return np.stack(run_generation(model, config, prompt=prompt).sequences)


def cell_digest(name: str) -> str:
    outputs = cell_outputs(name)
    return hashlib.sha256(np.ascontiguousarray(outputs, dtype="<i8").tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CELLS))
def test_golden_sequences(name):
    assert cell_digest(name) == GOLDEN[name]


@pytest.mark.parametrize("threads", ["1", "2"])
def test_blas_thread_count_does_not_change_outputs(threads):
    names = [n for n in sorted(CELLS) if CELLS[n]["guidance"] != "none"
             and CELLS[n]["batch"] == 16]
    src = Path(divdiff.__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([str(Path(__file__).parent), str(src)]))
    code = ("import json, sys, test_golden as g; "
            "print(json.dumps({n: g.cell_digest(n) for n in sys.argv[1:]}))")
    out = subprocess.run([sys.executable, "-c", code, *names], env=env,
                         capture_output=True, text=True, timeout=300, check=True)
    assert json.loads(out.stdout) == {n: GOLDEN[n] for n in names}


def _guided_inputs():
    gen = np.random.default_rng(5)
    state = random_state(gen, 6, 9, 11, masked_fraction=0.5)
    return gen.normal(0.0, 2.0, size=(6, 9, 11)), state


@pytest.mark.parametrize("step", [
    lambda x, st: odd_step(x, st, GenerationConfig(alpha=ALPHA), t=4),
    lambda x, st: dpp_step(x, st, GenerationConfig(alpha=ALPHA), t=4),
], ids=["odd", "dpp"])
def test_guidance_leaves_input_logits_untouched(step):
    logits, state = _guided_inputs()
    before = logits.copy()
    out = step(logits, state)
    assert out is not logits and not np.array_equal(out, logits)
    np.testing.assert_array_equal(logits, before)
