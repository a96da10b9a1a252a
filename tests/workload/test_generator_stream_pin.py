"""Pins of the synthetic generator's output, bit for bit.

Each digest is the SHA-256 of a workload's exact values (floats by
``repr``, which round-trips every bit), so any change to what the
generator draws, in which order or from which substream, fails here:

- ``generate``: the jobs and ECCs of ``generate(default_rng(seed))``;
- ``stream``: the :class:`SyntheticWorkloadStream` items in stream
  order, each job as its ``SWFRecord.from_job(job).to_line()`` text;
- ``lublin``: the raw Lublin–Feitelson trace behind the SDSC-like
  workload (``LublinModel.sample``);
- ``probe``: :meth:`CWFWorkloadGenerator.load_probe` loads at three
  ``beta_arr`` values.

The digests were computed before the draw was block-drawn and
flattened, and must never be re-pinned to follow a code change: a
seed's workload is part of every reproduced figure.  Run this module
as a script (``PYTHONPATH=src python -m tests.workload.test_generator_stream_pin``)
to print the digests of the checkout it runs in.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Dict, Iterable, Iterator

import numpy as np
import pytest

from repro.workload.ecc import ECC
from repro.workload.generator import CWFWorkloadGenerator, GeneratorConfig
from repro.workload.job import Job
from repro.workload.lublin import DRAW_BLOCK, LublinConfig, LublinModel
from repro.workload.streaming import SyntheticWorkloadStream
from repro.workload.swf import SWFRecord
from repro.workload.twostage import TwoStageSizeConfig

N_JOBS = 400
SEEDS = (0, 17)

_BASE = GeneratorConfig(n_jobs=N_JOBS)

CONFIGS: Dict[str, GeneratorConfig] = {
    "default": _BASE,
    "p_small_0.2": _BASE.with_p_small(0.2),
    "p_small_0.8": _BASE.with_p_small(0.8),
    "dedicated_0.5": replace(_BASE, p_dedicated=0.5),
    "elastic": replace(_BASE, p_extend=0.2, p_reduce=0.1),
    "cancel_0.2": replace(_BASE, p_cancel=0.2),
    "quota": replace(_BASE, lublin=replace(LublinConfig(), quota_enabled=True)),
    "non_integral": replace(_BASE, integral_times=False),
    "estimate_factor_2": replace(_BASE, estimate_factor=2.0),
    "everything": replace(
        _BASE,
        size=TwoStageSizeConfig(p_small=0.3),
        p_dedicated=0.3,
        p_extend=0.2,
        p_reduce=0.1,
        p_cancel=0.1,
        integral_times=False,
        estimate_factor=1.5,
    ),
    "n_jobs_0": replace(_BASE, n_jobs=0),
    "n_jobs_1": replace(_BASE, n_jobs=1),
    # Longer than a draw block of the gap stream, ending mid-block.
    "long": replace(_BASE, n_jobs=2500),
    # Gaps of hours: about one quota per job, so the quota stream also
    # crosses a block boundary.
    "long_quota": replace(
        _BASE, n_jobs=1500, lublin=LublinConfig(beta_arr=1.0, quota_enabled=True)
    ),
}

#: Configs whose load probe is pinned too.
PROBED = ("default", "quota", "non_integral", "long_quota")

PINNED: Dict[str, Dict[str, str]] = {
    "default": {
        "generate": "2c70e422b6070be2c5770a8f712a21f1a67496e5e4454aa400ac69a53ffe8658",
        "stream": "4e74e0951289ac77c060a077fcb82937081a3f6b55fa8ac3eb4118ebfe510c26",
        "lublin": "609e8640610e7d306fc6361fd8c36449526b1f64e02dda6954885dd66ebb4a7c",
        "probe": "536862e4aa254cb8e68a36bd62f8617cf178005c4232f7e99d5244a4e7f2e6ec",
    },
    "p_small_0.2": {
        "generate": "c73f452f3f0b612b5b2b5d982726b3015f75d6707dd2d24e6a3e4117a3dc19d8",
        "stream": "2beb01b1cff7df4d465fb95a0b6da75316a94c66e94820f2d636a23d87efb00e",
    },
    "p_small_0.8": {
        "generate": "306ec93e49b3d1f8cdba0583b23b12e79d7eb53f8973aaa6bf0f0b542954bb61",
        "stream": "f35be4cf147b59a962ea3c16e43d66f0e05341ffbdc5366d261f14f24c0381b6",
    },
    "dedicated_0.5": {
        "generate": "0cf6a711763628e27005238dd78902685e5876c041993e1a5a5722e564d297d6",
        "stream": "8d020a5ea34d5a33458b3a53d2d2a14b176f3d330f4f947aae2d818fa4d8979b",
    },
    "elastic": {
        "generate": "1feadb4af131e7ca875fbe908595fcb7b3050314481c329a61cc945c0ac59636",
        "stream": "94b87e46c55a6ea77b1fd4c97a379d981bc884758d551b385b94b58cac4e07df",
    },
    "cancel_0.2": {
        "generate": "eea96c1613ca57d7ce533be866dbd3daa8400639a17e4cc5aeaf90746b4a804a",
        "stream": "2696f63746a264fd6a11cf5fcbc107bef6595dc8575af4d9c456c18b55c88c3e",
    },
    "quota": {
        "generate": "f8390df9ca4556e2863f1abfd4177861f63a19d6bc873a8f999450be9894c3db",
        "stream": "14ec4b598198c1a7676709db6a9cb4ab6a6a7c297e4d93e8646fad3ba1d6881a",
        "probe": "5a07d88968035432aa680dbf6d7b835be56d221dbb6d55ab7a444592806d6391",
    },
    "non_integral": {
        "generate": "be7301e6cc1bd60d7092bbb68a67dc188b1a2a11eebae5798bb23e152baac5dc",
        "stream": "de6835ca1c491756e51f06c9789990f4163bb8f12419986b140a5bc53a3769f1",
        "probe": "78f0e89071b0955f8cd149c5e4c2fa315fc80331be19f8cc2e65f33f70561c91",
    },
    "estimate_factor_2": {
        "generate": "b1c402f648008d272aa5d7ae19eee9ddc4f0ef63d294f1ba6ff98bed798da36a",
        "stream": "c8fd0b9f689314162ff61f487922ee659ccf7c755497ce9ad5fc63a696fb3a2e",
    },
    "everything": {
        "generate": "3b568c04598aafbb607492a2107c1e80290394db20ff5b8b1fdfc87d303b334d",
        "stream": "0a28b7eeee005292ab9a4f80e8b1b232d4b13dea0b776a63a14c68754bd5db1f",
    },
    "n_jobs_0": {
        "generate": "d51533a8fd996c03e3cef955a6923655ffda316bfae2f0823a787670257a145f",
        "stream": "d51533a8fd996c03e3cef955a6923655ffda316bfae2f0823a787670257a145f",
    },
    "n_jobs_1": {
        "generate": "98ea67e538207d8021365f64ab9dab6f996514622b50e408d10ab48850ffda37",
        "stream": "c0c1e45357ea12dce3af7e88eef235cb542c2cad76582b9f13f920fdae0c938e",
    },
    "long": {
        "generate": "a9f4ec5115a9b28942765d3747aeec97edd74be74cf9ef006c9f5ff67b5580d3",
        "stream": "02251246c776958100763e567204c201da954b15f9440c91f7a830d379cbec76",
    },
    "long_quota": {
        "generate": "bebe498649e40c4f2344c69509496d7e8aa79533627e0ab8cb0d7a26e294da2c",
        "stream": "ff48aa16e21bafe070f19366acd0438974dda3258b358830a1a87c67c8987c84",
        "probe": "34fed7db7368fc66181714f148889d2e32af5a153fe631bba136d1c4451bf1d2",
    },
}


def _job_row(job: Job) -> str:
    return repr((
        job.job_id, job.submit, job.num, job.estimate, job.actual, job.kind.value,
        job.requested_start, job.cancel_at, job.min_procs, job.pref_procs, job.max_procs,
    ))


def _ecc_row(ecc: ECC) -> str:
    return repr((ecc.job_id, ecc.issue_time, ecc.kind.value, ecc.amount))


def _sha(lines: Iterable[str]) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _generate_rows(config: GeneratorConfig) -> Iterator[str]:
    for seed in SEEDS:
        workload = CWFWorkloadGenerator(config).generate(np.random.default_rng(seed))
        yield f"seed {seed}"
        yield from map(_job_row, workload.jobs)
        yield from map(_ecc_row, workload.eccs)


def _stream_rows(config: GeneratorConfig) -> Iterator[str]:
    for seed in SEEDS:
        yield f"seed {seed}"
        for item in SyntheticWorkloadStream(config, seed=seed).stream():
            if isinstance(item, ECC):
                yield _ecc_row(item)
            else:
                yield SWFRecord.from_job(item).to_line()


def _lublin_rows() -> Iterator[str]:
    for seed in SEEDS:
        for sample in LublinModel().sample(N_JOBS, np.random.default_rng(seed)):
            yield repr((sample.arrival, sample.size, sample.runtime))


def _probe_rows(config: GeneratorConfig) -> Iterator[str]:
    for seed in SEEDS:
        probe = CWFWorkloadGenerator(config).load_probe(np.random.default_rng(seed))
        yield repr([probe.load(beta) for beta in (0.35, 0.5101, 0.7)])


def current_digests() -> Dict[str, Dict[str, str]]:
    """Every pinned digest, computed from the code under test."""
    digests = {
        name: {"generate": _sha(_generate_rows(config)), "stream": _sha(_stream_rows(config))}
        for name, config in CONFIGS.items()
    }
    digests["default"]["lublin"] = _sha(_lublin_rows())
    for name in PROBED:
        digests[name]["probe"] = _sha(_probe_rows(CONFIGS[name]))
    return digests


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_generate_is_pinned(name):
    assert _sha(_generate_rows(CONFIGS[name])) == PINNED[name]["generate"]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_stream_swf_text_is_pinned(name):
    assert _sha(_stream_rows(CONFIGS[name])) == PINNED[name]["stream"]


def test_lublin_trace_is_pinned():
    assert _sha(_lublin_rows()) == PINNED["default"]["lublin"]


@pytest.mark.parametrize("name", PROBED)
def test_load_probe_is_pinned(name):
    assert _sha(_probe_rows(CONFIGS[name])) == PINNED[name]["probe"]


class _CountingGenerator(np.random.Generator):
    """Records the ``(shape, size)`` of every block Gamma draw made on it
    or on the generators it spawns (``spawn`` keeps the subclass)."""

    blocks: list = []

    def gamma(self, shape, scale=1.0, size=None):
        if size is not None:
            self.blocks.append((shape, size))
        return super().gamma(shape, scale, size)


def _drawn(shape: float) -> int:
    return sum(size for drawn_shape, size in _CountingGenerator.blocks if drawn_shape == shape)


def test_arrival_draws_read_at_most_one_block_ahead(monkeypatch):
    """A stream holds at most one block of pending draws, so a streamed
    workload's memory does not grow with its length."""
    monkeypatch.setattr(_CountingGenerator, "blocks", [])
    config = LublinConfig()
    count = 3 * DRAW_BLOCK + 10
    gaps, quotas = LublinModel(config).arrival_draws(count, _CountingGenerator(np.random.PCG64(1)))
    assert _CountingGenerator.blocks == []
    for pulled in range(1, count + 1):
        next(gaps)
        assert pulled <= _drawn(config.alpha_arr) < pulled + DRAW_BLOCK
    assert next(gaps, None) is None
    assert _drawn(config.alpha_arr) == count
    for pulled in range(1, 2 * DRAW_BLOCK + 2):
        next(quotas)
        assert pulled <= _drawn(config.alpha_num) < pulled + DRAW_BLOCK


def test_generator_draw_reads_at_most_one_block_ahead(monkeypatch):
    """The per-job draw pulls its arrivals lazily: after ``k`` jobs, fewer
    than ``k + DRAW_BLOCK`` gaps and one block of quotas are drawn."""
    monkeypatch.setattr(_CountingGenerator, "blocks", [])
    config = replace(_BASE, n_jobs=3 * DRAW_BLOCK)
    draw = CWFWorkloadGenerator(config)._draw(_CountingGenerator(np.random.PCG64(2)))
    for pulled in range(1, config.n_jobs + 1):
        next(draw)
        assert pulled <= _drawn(config.lublin.alpha_arr) < pulled + DRAW_BLOCK
    assert _drawn(config.lublin.alpha_num) == DRAW_BLOCK


if __name__ == "__main__":  # pragma: no cover - prints the digests to pin
    import pprint

    pprint.pprint(current_digests(), width=100, sort_dicts=False)
