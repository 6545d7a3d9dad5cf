"""Golden schedules: the compiler's output is pinned bit for bit.

Every Table-3 generator, at a small scale, is compiled under the five
configurations of the compile sweep (base, LT-NTT, LT-Aut, half scratchpad,
CSR order), plus two N=16K half-scratchpad programs that spill and refill.
For each, the makespan, the traffic counters, the FU and HBM busy cycles
and a sha256 over the phase-2 event stream, every scheduled instruction's
(id, start, end, cluster, unit, fu, occupancy) and every transfer are
pinned.  A rewrite of the schedulers must reproduce all of them exactly.

Regenerate the table with ``PYTHONPATH=src python tests/test_schedule_golden.py``
(only when a change to the schedules is intended).
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.bench import workloads as W
from repro.compiler.data_scheduler import TrafficStats
from repro.compiler.pipeline import compile_program
from repro.core.config import F1Config

_BASE = F1Config()
CONFIGS = {
    "base": (_BASE, "f1"),
    "lt_ntt": (_BASE.with_low_throughput_ntt(), "f1"),
    "lt_aut": (_BASE.with_low_throughput_aut(), "f1"),
    "half": (_BASE.scaled(banks=8), "f1"),
    "csr": (_BASE, "csr"),
}

PROGRAMS = {
    "logistic_regression": lambda n: W.logistic_regression(scale=0.005, n=n),
    "lola_cifar": lambda n: W.lola_cifar(scale=0.005, n=n),
    "lola_mnist_uw": lambda n: W.lola_mnist(scale=0.02, n=n),
    "lola_mnist_ew": lambda n: W.lola_mnist(scale=0.02, encrypted_weights=True, n=n),
    "db_lookup": lambda n: W.db_lookup(scale=0.01, level=6, n=n),
    "bgv_bootstrapping": lambda n: W.bgv_bootstrapping(scale=0.02, l_max=12, n=n),
    "ckks_bootstrapping": lambda n: W.ckks_bootstrapping(scale=0.02, l_max=8, n=n),
}

#: N=16K with half the scratchpad: these spill intermediates and refill them
SPILLING = {
    "db_lookup_spill": lambda n: W.db_lookup(scale=0.02, level=14, n=n),
    "bgv_bootstrapping_spill": lambda n: W.bgv_bootstrapping(scale=0.02, l_max=16, n=n),
}

CASES = [(g, c, 4096) for g in PROGRAMS for c in CONFIGS] + [
    (g, "half", 16384) for g in SPILLING
]


def _compile(generator: str, config_name: str, n: int):
    make = PROGRAMS.get(generator) or SPILLING[generator]
    config, scheduler = CONFIGS[config_name]
    return compile_program(make(n), config, scheduler=scheduler)


def fingerprint(compiled) -> dict:
    """Everything a schedule decides, reduced to comparable values."""
    movement, schedule = compiled.movement, compiled.schedule
    digest = hashlib.sha256()
    for e in movement.events:
        free = -1 if e.frees_slot_of is None else e.frees_slot_of
        digest.update(repr((e.kind, int(e.target), int(free))).encode())
    digest.update(b"|instrs|")
    for s in schedule.instrs:
        digest.update(repr((int(s.instr_id), int(s.start), int(s.end),
                            int(s.cluster), int(s.unit), s.fu,
                            int(s.occupancy))).encode())
    digest.update(b"|transfers|")
    for tr in schedule.transfers:
        digest.update(repr((tr.kind, int(tr.value_id), float(tr.start),
                            float(tr.end))).encode())
    return {
        "instructions": len(schedule.instrs),
        "makespan": schedule.makespan,
        "traffic": dataclasses.astuple(movement.traffic),
        "fu_busy": tuple(sorted(schedule.fu_busy_cycles.items())),
        "hbm_busy": float(schedule.hbm_busy_cycles),
        "sha256": digest.hexdigest(),
    }


#: recorded from the reference implementation; see the module docstring
GOLDEN = {
    ('logistic_regression', 'base', 4096): {'instructions': 33138, 'makespan': 101920, 'traffic': (6132, 0, 160, 0, 34, 0, 0, 0, 44), 'fu_busy': (('add', 414464), ('aut', 19968), ('mul', 411584), ('ntt', 214400)), 'hbm_busy': 101920.0, 'sha256': 'c40746ed7d7f16dfe114b25fc16fa0bb236971aa39286571d51e4bb3c24ca006'},
    ('logistic_regression', 'lt_ntt', 4096): {'instructions': 33138, 'makespan': 101920, 'traffic': (6132, 0, 160, 0, 34, 0, 0, 0, 44), 'fu_busy': (('add', 414464), ('aut', 19968), ('mul', 411584), ('ntt', 1500800)), 'hbm_busy': 101920.0, 'sha256': '23416a16fcf26e8e54cdb45b55d88c11d93b5c7e1ddafc26efcecab3e510269c'},
    ('logistic_regression', 'lt_aut', 4096): {'instructions': 33138, 'makespan': 101920, 'traffic': (6132, 0, 160, 0, 34, 0, 0, 0, 44), 'fu_busy': (('add', 414464), ('aut', 159744), ('mul', 411584), ('ntt', 214400)), 'hbm_busy': 101920.0, 'sha256': '30aefd84b49d583c510fff42337085d3185c4dbfab0d3272976f2af3b43a7b12'},
    ('logistic_regression', 'half', 4096): {'instructions': 33138, 'makespan': 101920, 'traffic': (6132, 0, 160, 0, 34, 0, 0, 0, 44), 'fu_busy': (('add', 414464), ('aut', 19968), ('mul', 411584), ('ntt', 214400)), 'hbm_busy': 101920.0, 'sha256': 'c40746ed7d7f16dfe114b25fc16fa0bb236971aa39286571d51e4bb3c24ca006'},
    ('logistic_regression', 'csr', 4096): {'instructions': 33138, 'makespan': 102060, 'traffic': (6132, 0, 160, 0, 34, 0, 0, 0, 44), 'fu_busy': (('add', 414464), ('aut', 19968), ('mul', 411584), ('ntt', 214400)), 'hbm_busy': 101920.0, 'sha256': '622a2613df49cad9b1908e7f0c2317955a990b1b50987b225f2c522bfab04dfb'},
    ('lola_cifar', 'base', 4096): {'instructions': 15068, 'makespan': 34670, 'traffic': (1660, 0, 32, 0, 168, 0, 0, 0, 20), 'fu_busy': (('add', 187712), ('aut', 21248), ('mul', 186496), ('ntt', 86720)), 'hbm_busy': 30080.0, 'sha256': 'bc4712945619f8d13dcf74873d1e008d2d90561663e5255537c227ae08a7fdd9'},
    ('lola_cifar', 'lt_ntt', 4096): {'instructions': 15068, 'makespan': 43880, 'traffic': (1660, 0, 32, 0, 168, 0, 0, 0, 20), 'fu_busy': (('add', 187712), ('aut', 21248), ('mul', 186496), ('ntt', 607040)), 'hbm_busy': 30080.0, 'sha256': '451b0b3831ae660bf8aaf20e7430d1de9c308e62ed22322ece8da3dbb15e7d3f'},
    ('lola_cifar', 'lt_aut', 4096): {'instructions': 15068, 'makespan': 37358, 'traffic': (1660, 0, 32, 0, 168, 0, 0, 0, 20), 'fu_busy': (('add', 187712), ('aut', 169984), ('mul', 186496), ('ntt', 86720)), 'hbm_busy': 30080.0, 'sha256': '012ca3433a4599f0a762c7634577089163b898c3aa0531d51f7d4a745a6c1e5b'},
    ('lola_cifar', 'half', 4096): {'instructions': 15068, 'makespan': 34670, 'traffic': (1660, 0, 32, 0, 168, 0, 0, 0, 20), 'fu_busy': (('add', 187712), ('aut', 21248), ('mul', 186496), ('ntt', 86720)), 'hbm_busy': 30080.0, 'sha256': 'bc4712945619f8d13dcf74873d1e008d2d90561663e5255537c227ae08a7fdd9'},
    ('lola_cifar', 'csr', 4096): {'instructions': 15068, 'makespan': 34670, 'traffic': (1660, 0, 32, 0, 168, 0, 0, 0, 20), 'fu_busy': (('add', 187712), ('aut', 21248), ('mul', 186496), ('ntt', 86720)), 'hbm_busy': 30080.0, 'sha256': '38306347964359e0f4378c3c7a6a816aa445b748df61dc8ee892c82119677fde'},
    ('lola_mnist_uw', 'base', 4096): {'instructions': 1102, 'makespan': 10168, 'traffic': (230, 0, 8, 0, 16, 0, 0, 0, 4), 'fu_busy': (('add', 13152), ('aut', 3200), ('mul', 13056), ('ntt', 5856)), 'hbm_busy': 4128.0, 'sha256': 'd2870f79561ffb53047f7e9c14b34e540be52cac6b7a93c75507e6dc52ec5fc1'},
    ('lola_mnist_uw', 'lt_ntt', 4096): {'instructions': 1102, 'makespan': 16224, 'traffic': (230, 0, 8, 0, 16, 0, 0, 0, 4), 'fu_busy': (('add', 13152), ('aut', 3200), ('mul', 13056), ('ntt', 40992)), 'hbm_busy': 4128.0, 'sha256': '461e08f0e510c387a390ef2487fb43cf4f1925c709868cbcd6a48e19e1110709'},
    ('lola_mnist_uw', 'lt_aut', 4096): {'instructions': 1102, 'makespan': 12768, 'traffic': (230, 0, 8, 0, 16, 0, 0, 0, 4), 'fu_busy': (('add', 13152), ('aut', 25600), ('mul', 13056), ('ntt', 5856)), 'hbm_busy': 4128.0, 'sha256': '5328a3baf2b98b831f1468f14f2a9759d89a424080593dfe5b2bc3f2b9fb9ad1'},
    ('lola_mnist_uw', 'half', 4096): {'instructions': 1102, 'makespan': 10168, 'traffic': (230, 0, 8, 0, 16, 0, 0, 0, 4), 'fu_busy': (('add', 13152), ('aut', 3200), ('mul', 13056), ('ntt', 5856)), 'hbm_busy': 4128.0, 'sha256': 'd2870f79561ffb53047f7e9c14b34e540be52cac6b7a93c75507e6dc52ec5fc1'},
    ('lola_mnist_uw', 'csr', 4096): {'instructions': 1102, 'makespan': 10232, 'traffic': (230, 0, 8, 0, 16, 0, 0, 0, 4), 'fu_busy': (('add', 13152), ('aut', 3200), ('mul', 13056), ('ntt', 5856)), 'hbm_busy': 4128.0, 'sha256': '8a720ef356f8a45fb9bcdc6304e7b41ef879d20685e049ce93dedbed95f73197'},
    ('lola_mnist_ew', 'base', 4096): {'instructions': 1902, 'makespan': 13560, 'traffic': (370, 0, 56, 0, 0, 0, 0, 0, 2), 'fu_busy': (('add', 22688), ('aut', 3008), ('mul', 23936), ('ntt', 11232)), 'hbm_busy': 6848.0, 'sha256': 'ea2a9ddfc835af5150174262879fcfc60d32a17a5b981a0400081187a9695232'},
    ('lola_mnist_ew', 'lt_ntt', 4096): {'instructions': 1902, 'makespan': 19786, 'traffic': (370, 0, 56, 0, 0, 0, 0, 0, 2), 'fu_busy': (('add', 22688), ('aut', 3008), ('mul', 23936), ('ntt', 78624)), 'hbm_busy': 6848.0, 'sha256': 'c852c76d3115be8b139f83baa09694b376727da27582883af7c08145245b2a4d'},
    ('lola_mnist_ew', 'lt_aut', 4096): {'instructions': 1902, 'makespan': 16024, 'traffic': (370, 0, 56, 0, 0, 0, 0, 0, 2), 'fu_busy': (('add', 22688), ('aut', 24064), ('mul', 23936), ('ntt', 11232)), 'hbm_busy': 6848.0, 'sha256': '1aea6f1c3f7b6d8d4107a9aaef1366fe863c068bae41fad90ab9395bda5834df'},
    ('lola_mnist_ew', 'half', 4096): {'instructions': 1902, 'makespan': 13560, 'traffic': (370, 0, 56, 0, 0, 0, 0, 0, 2), 'fu_busy': (('add', 22688), ('aut', 3008), ('mul', 23936), ('ntt', 11232)), 'hbm_busy': 6848.0, 'sha256': 'ea2a9ddfc835af5150174262879fcfc60d32a17a5b981a0400081187a9695232'},
    ('lola_mnist_ew', 'csr', 4096): {'instructions': 1902, 'makespan': 13576, 'traffic': (370, 0, 56, 0, 0, 0, 0, 0, 2), 'fu_busy': (('add', 22688), ('aut', 3008), ('mul', 23936), ('ntt', 11232)), 'hbm_busy': 6848.0, 'sha256': 'ae8670abfbed2eaa870a0a82a7f15c28676f6680cfe65e6c89c14414ea1c12fb'},
    ('db_lookup', 'base', 4096): {'instructions': 2652, 'makespan': 11468, 'traffic': (292, 0, 48, 0, 6, 0, 0, 0, 4), 'fu_busy': (('add', 31424), ('aut', 1536), ('mul', 35712), ('ntt', 16192)), 'hbm_busy': 5600.0, 'sha256': '5e145ddcf46d8eb1e8fafb4295a5400e5bc96f58263f2fbbd826bff50e15be13'},
    ('db_lookup', 'lt_ntt', 4096): {'instructions': 2652, 'makespan': 17612, 'traffic': (292, 0, 48, 0, 6, 0, 0, 0, 4), 'fu_busy': (('add', 31424), ('aut', 1536), ('mul', 35712), ('ntt', 113344)), 'hbm_busy': 5600.0, 'sha256': '26f4cddb2c389089838df1a413ebfe15ca9fa0e3e914f8722eda00426a29c05e'},
    ('db_lookup', 'lt_aut', 4096): {'instructions': 2652, 'makespan': 12812, 'traffic': (292, 0, 48, 0, 6, 0, 0, 0, 4), 'fu_busy': (('add', 31424), ('aut', 12288), ('mul', 35712), ('ntt', 16192)), 'hbm_busy': 5600.0, 'sha256': '4c9f940a09ebcc8e084e1a1fe35193b04e9e539cd086ab140a9ce476e2220e92'},
    ('db_lookup', 'half', 4096): {'instructions': 2652, 'makespan': 11468, 'traffic': (292, 0, 48, 0, 6, 0, 0, 0, 4), 'fu_busy': (('add', 31424), ('aut', 1536), ('mul', 35712), ('ntt', 16192)), 'hbm_busy': 5600.0, 'sha256': '5e145ddcf46d8eb1e8fafb4295a5400e5bc96f58263f2fbbd826bff50e15be13'},
    ('db_lookup', 'csr', 4096): {'instructions': 2652, 'makespan': 11152, 'traffic': (292, 0, 48, 0, 6, 0, 0, 0, 4), 'fu_busy': (('add', 31424), ('aut', 1536), ('mul', 35712), ('ntt', 16192)), 'hbm_busy': 5600.0, 'sha256': '37b0b6a3c8cec43bc58f0dd70ff25fa93fc9147998fc7374a9aebd570e67dd1f'},
    ('bgv_bootstrapping', 'base', 4096): {'instructions': 7476, 'makespan': 32644, 'traffic': (1882, 0, 24, 0, 54, 0, 0, 0, 18), 'fu_busy': (('add', 92288), ('aut', 3072), ('mul', 97280), ('ntt', 46592)), 'hbm_busy': 31648.0, 'sha256': '5ea12fa7fd74c4785170084b9e11c9c375d4a8f37dc64639a11c768d6fa462a3'},
    ('bgv_bootstrapping', 'lt_ntt', 4096): {'instructions': 7476, 'makespan': 33376, 'traffic': (1882, 0, 24, 0, 54, 0, 0, 0, 18), 'fu_busy': (('add', 92288), ('aut', 3072), ('mul', 97280), ('ntt', 326144)), 'hbm_busy': 31648.0, 'sha256': '5c1a47fa3681123ce03bf3fe91413488666decb426228a92e0bfb83545fdde0d'},
    ('bgv_bootstrapping', 'lt_aut', 4096): {'instructions': 7476, 'makespan': 32644, 'traffic': (1882, 0, 24, 0, 54, 0, 0, 0, 18), 'fu_busy': (('add', 92288), ('aut', 24576), ('mul', 97280), ('ntt', 46592)), 'hbm_busy': 31648.0, 'sha256': '6272404ea4ab3f846f4ed9c4fc71ff85f25598d6d2819678afd2ba2bb9712b3f'},
    ('bgv_bootstrapping', 'half', 4096): {'instructions': 7476, 'makespan': 32644, 'traffic': (1882, 0, 24, 0, 54, 0, 0, 0, 18), 'fu_busy': (('add', 92288), ('aut', 3072), ('mul', 97280), ('ntt', 46592)), 'hbm_busy': 31648.0, 'sha256': '5ea12fa7fd74c4785170084b9e11c9c375d4a8f37dc64639a11c768d6fa462a3'},
    ('bgv_bootstrapping', 'csr', 4096): {'instructions': 7476, 'makespan': 32408, 'traffic': (1882, 0, 24, 0, 54, 0, 0, 0, 18), 'fu_busy': (('add', 92288), ('aut', 3072), ('mul', 97280), ('ntt', 46592)), 'hbm_busy': 31648.0, 'sha256': '0963c4bb7494b09428a4d4f9406039127d6e51c21a9fc85877cb4e05f53efead'},
    ('ckks_bootstrapping', 'base', 4096): {'instructions': 2963, 'makespan': 18112, 'traffic': (924, 0, 16, 0, 110, 0, 0, 0, 8), 'fu_busy': (('add', 34464), ('aut', 2560), ('mul', 40832), ('ntt', 16960)), 'hbm_busy': 16928.0, 'sha256': '58a6c177b497b5b61074aeb46a11906ba0036750e27fefe8a472e27fd0b6f610'},
    ('ckks_bootstrapping', 'lt_ntt', 4096): {'instructions': 2963, 'makespan': 21204, 'traffic': (924, 0, 16, 0, 110, 0, 0, 0, 8), 'fu_busy': (('add', 34464), ('aut', 2560), ('mul', 40832), ('ntt', 118720)), 'hbm_busy': 16928.0, 'sha256': 'e3c9a4d02b6da14ccca9e01ec83cffdb940e1e8d34754b8eebb2f53a3d4ee119'},
    ('ckks_bootstrapping', 'lt_aut', 4096): {'instructions': 2963, 'makespan': 18560, 'traffic': (924, 0, 16, 0, 110, 0, 0, 0, 8), 'fu_busy': (('add', 34464), ('aut', 20480), ('mul', 40832), ('ntt', 16960)), 'hbm_busy': 16928.0, 'sha256': '19d0bd930f600f0e771ba2962afc0eb913ce183c7b587660bb9a175e8ffac123'},
    ('ckks_bootstrapping', 'half', 4096): {'instructions': 2963, 'makespan': 18112, 'traffic': (924, 0, 16, 0, 110, 0, 0, 0, 8), 'fu_busy': (('add', 34464), ('aut', 2560), ('mul', 40832), ('ntt', 16960)), 'hbm_busy': 16928.0, 'sha256': '58a6c177b497b5b61074aeb46a11906ba0036750e27fefe8a472e27fd0b6f610'},
    ('ckks_bootstrapping', 'csr', 4096): {'instructions': 2963, 'makespan': 18020, 'traffic': (924, 0, 16, 0, 110, 0, 0, 0, 8), 'fu_busy': (('add', 34464), ('aut', 2560), ('mul', 40832), ('ntt', 16960)), 'hbm_busy': 16928.0, 'sha256': 'e752f0a211e82110b060ea4533bf3f20dd79bb191c14371ca41c6e712f2b0e9a'},
    ('db_lookup_spill', 'half', 16384): {'instructions': 26406, 'makespan': 210720, 'traffic': (2468, 21, 96, 9, 6, 0, 101, 101, 4), 'fu_busy': (('add', 1282048), ('aut', 10752), ('mul', 1421824), ('ntt', 665344)), 'hbm_busy': 179584.0, 'sha256': 'ad1e1b4bac801382e19adfee7bae5e18825577d2b4440f773e75e0f7afb89d13'},
    ('bgv_bootstrapping_spill', 'half', 16384): {'instructions': 13200, 'makespan': 245928, 'traffic': (3402, 52, 32, 0, 74, 0, 54, 54, 26), 'fu_busy': (('add', 657408), ('aut', 16384), ('mul', 685056), ('ntt', 330752)), 'hbm_busy': 236416.0, 'sha256': '5ec12ae4a9cb7e72582ed4a759220c4ac0846e0c42de76f15ac9bce23b64512f'},
}


@pytest.mark.parametrize("generator,config_name,n", CASES,
                         ids=[f"{g}-{c}-{n}" for g, c, n in CASES])
def test_schedule_matches_golden(generator, config_name, n):
    got = fingerprint(_compile(generator, config_name, n))
    assert got == GOLDEN[(generator, config_name, n)]


def test_spilling_cases_refill():
    """The golden set exercises spills and refills, not only compulsory loads."""
    names = [f.name for f in dataclasses.fields(TrafficStats)]
    for generator in SPILLING:
        traffic = dict(zip(names, GOLDEN[(generator, "half", 16384)]["traffic"]))
        assert traffic["intermediate_loads"] > 0
        assert traffic["intermediate_stores"] > 0


if __name__ == "__main__":
    print("GOLDEN = {")
    for case in CASES:
        print(f"    {case!r}: {fingerprint(_compile(*case))!r},")
    print("}")
