"""Per-rule unit tests: each family fires on a broken fixture and
stays silent on a correct one."""

import textwrap

from repro.analysis import AnalysisConfig, analyze_source

#: virtual paths placing fixtures in each scoping class
HOT = "repro/core/fixture.py"        # hot + modeled
SHADERS = "repro/core/shaders.py"    # hot + modeled + shader module
COLD = "repro/experiments/fixture.py"


def ids(findings):
    return [f.rule_id for f in findings]


def run(source, rel_path=HOT, **cfg):
    return analyze_source(
        textwrap.dedent(source), rel_path, AnalysisConfig(**cfg)
    )


# ----------------------------------------------------------------------
# SHD — shader contracts
# ----------------------------------------------------------------------
GOOD_SHADER = """
    class GoodShader:
        def __init__(self, query_ids, acc):
            self.query_ids = query_ids
            self.acc = acc

        def __call__(self, ray_ids, prim_ids):
            self.acc.insert(self.query_ids[ray_ids], prim_ids)
            return None
"""


def test_shd001_fires_on_wrong_signature():
    findings = run(
        """
        class BadShader:
            def __call__(self, single_ray, prim):
                return None
        """,
        rel_path=SHADERS,
    )
    assert "SHD001" in ids(findings)


def test_shd001_fires_on_missing_call():
    findings = run(
        """
        class NoCallShader:
            def process(self, ray_ids, prim_ids):
                return None
        """
    )
    assert "SHD001" in ids(findings)


def test_shd001_silent_on_contract_signature():
    assert ids(run(GOOD_SHADER, rel_path=SHADERS)) == []


def test_shd002_fires_on_geometry_write():
    findings = run(
        """
        class MutatingShader:
            def __init__(self, points, query_ids):
                self.points = points
                self.query_ids = query_ids

            def __call__(self, ray_ids, prim_ids):
                self.points[prim_ids] = 0.0
                q = self.query_ids[ray_ids]
                return None
        """
    )
    assert "SHD002" in ids(findings)


def test_shd002_silent_on_accumulator_writes():
    findings = run(
        """
        import numpy as np

        class AccumShader:
            def __init__(self, n, query_ids):
                self.first_hit = np.full(n, -1)
                self.query_ids = query_ids

            def __call__(self, ray_ids, prim_ids):
                self.first_hit[self.query_ids[ray_ids]] = prim_ids
                return ray_ids
        """
    )
    assert "SHD002" not in ids(findings)


def test_shd003_fires_when_ray_ids_used_untranslated():
    findings = run(
        """
        class UntranslatedShader:
            def __init__(self, query_ids, acc):
                self.query_ids = query_ids
                self.acc = acc

            def __call__(self, ray_ids, prim_ids):
                self.acc.insert(ray_ids, prim_ids)
                return None
        """
    )
    assert "SHD003" in ids(findings)


FUSED_SHADER = """
    class FusedShader:
        def __init__(self, points, query_ids, acc):
            self.points = points
            self.query_ids = query_ids
            self.acc = acc

        def __call__(self, ray_ids, prim_ids):
            cut = self.flat_hits(ray_ids, prim_ids)
            return None if cut is None else cut[0]

        def flat_hits(self, ray_ids, prim_ids):
            {body}
            return None
"""


def test_shd_rules_follow_the_fused_entry_point():
    """A shader whose ``__call__`` delegates to ``flat_hits`` is held to
    the contract in ``flat_hits``."""
    translated = "self.acc.insert(self.query_ids[ray_ids], prim_ids)"
    assert ids(run(FUSED_SHADER.format(body=translated))) == []
    untranslated = "self.acc.insert(ray_ids, prim_ids)"
    assert "SHD003" in ids(run(FUSED_SHADER.format(body=untranslated)))
    mutating = "self.points[prim_ids] = 0.0; " + translated
    assert "SHD002" in ids(run(FUSED_SHADER.format(body=mutating)))


def test_shd003_silent_without_query_state():
    findings = run(
        """
        import numpy as np

        class CountingShader:
            def __init__(self, n_rays):
                self.calls = np.zeros(n_rays)

            def __call__(self, ray_ids, prim_ids):
                self.calls[ray_ids] += 1
                return None
        """
    )
    assert "SHD003" not in ids(findings)


# ----------------------------------------------------------------------
# VEC — lockstep / vectorization
# ----------------------------------------------------------------------
def test_vec001_fires_on_scalar_ray_loop():
    findings = run(
        """
        def slow(ray_ids, out):
            for r in ray_ids:
                out[r] += 1
        """
    )
    assert "VEC001" in ids(findings)


def test_vec001_fires_on_range_len_and_tolist():
    src = """
        def slow(points, queries):
            total = 0.0
            for i in range(len(points)):
                total += points[i][0]
            return [q for q in queries.tolist()] and total
    """
    assert ids(run(src)).count("VEC001") == 2


def test_vec001_silent_outside_hot_modules_and_on_batches():
    src = """
        def fine(ray_ids, out):
            out[ray_ids] += 1
            for chunk in range(0, 10, 2):
                out[chunk:] *= 2
    """
    assert ids(run(src)) == []
    slow = """
        def slow(ray_ids, out):
            for r in ray_ids:
                out[r] += 1
    """
    assert ids(run(slow, rel_path=COLD)) == []


def test_vec002_fires_on_np_append():
    findings = run(
        """
        import numpy as np

        def grow(acc, more):
            return np.append(acc, more)
        """
    )
    assert "VEC002" in ids(findings)


def test_vec002_silent_on_concatenate():
    findings = run(
        """
        import numpy as np

        def grow(parts):
            return np.concatenate(parts)
        """
    )
    assert ids(findings) == []


def test_vec003_fires_on_mixed_dtypes():
    findings = run(
        """
        import numpy as np

        def mixed(n):
            a = np.zeros(n, dtype=np.float32)
            b = np.ones(n, dtype=np.float64)
            return a + b
        """
    )
    assert "VEC003" in ids(findings)


def test_vec003_silent_on_uniform_dtype():
    findings = run(
        """
        import numpy as np

        def uniform(n):
            a = np.zeros(n, dtype=np.float64)
            b = np.ones(n, dtype=np.float64)
            return a + b
        """
    )
    assert ids(findings) == []


# ----------------------------------------------------------------------
# COST — accounting
# ----------------------------------------------------------------------
def test_cost001_fires_on_raw_trace_batch():
    findings = run(
        """
        from repro.bvh.traverse import trace_batch

        def free_work(bvh, o, d, shader):
            return trace_batch(bvh, o, d, 0.0, 1e-16, shader)
        """
    )
    assert "COST001" in ids(findings)


def test_cost001_fires_on_raw_trace_forest():
    findings = run(
        """
        from repro.bvh import traverse

        def free_pass(mbr, widths, sizes, o, d, shader):
            return traverse.trace_forest(mbr, widths, sizes, o, d, 0.0, 1e-16, shader)
        """
    )
    assert [f.message.split(":")[0] for f in findings if f.rule_id == "COST001"] == [
        "direct traverse.trace_forest call"
    ]


def test_cost001_silent_in_pipeline_module():
    findings = run(
        """
        from repro.bvh.traverse import trace_batch

        def launch(bvh, o, d, shader):
            return trace_batch(bvh, o, d, 0.0, 1e-16, shader)
        """,
        rel_path="repro/optix/pipeline.py",
    )
    assert ids(findings) == []


def test_cost002_fires_on_discarded_launch():
    findings = run(
        """
        def run(pipeline, gas, rays, shader, kind):
            pipeline.launch(gas, rays, shader, kind)
        """
    )
    assert "COST002" in ids(findings)


def test_cost002_silent_when_cost_captured():
    findings = run(
        """
        def run(pipeline, gas, rays, shader, kind, breakdown):
            launch = pipeline.launch(gas, rays, shader, kind)
            breakdown.search += launch.modeled_time
            return launch
        """
    )
    assert ids(findings) == []


def test_cost003_fires_on_distance_outside_shaders():
    findings = run(
        """
        import numpy as np

        def free_distance(a, b):
            d = a - b
            return np.einsum("ij,ij->i", d, d)
        """
    )
    assert "COST003" in ids(findings)


def test_cost003_silent_in_shader_module_and_cold_code():
    src = """
        import numpy as np

        def _pair_sq_dist(a, b):
            d = a - b
            return np.einsum("ij,ij->i", d, d)
    """
    assert ids(run(src, rel_path=SHADERS)) == []
    assert ids(run(src, rel_path=COLD)) == []


# ----------------------------------------------------------------------
# API — hygiene
# ----------------------------------------------------------------------
def test_api001_fires_on_direct_rng():
    findings = run(
        """
        import numpy as np

        def jitter(points):
            return points + np.random.default_rng().normal()
        """,
        rel_path=COLD,
    )
    assert "API001" in ids(findings)


def test_api001_silent_in_rng_module_and_on_plumbing():
    src = """
        import numpy as np

        def default_rng(seed=None):
            if isinstance(seed, np.random.Generator):
                return seed
            return np.random.default_rng(seed)
    """
    assert ids(run(src, rel_path="repro/utils/rng.py")) == []
    plumbed = """
        from repro.utils.rng import default_rng

        def jitter(points, seed=None):
            return points + default_rng(seed).normal()
    """
    assert ids(run(plumbed, rel_path=COLD)) == []


def test_api002_fires_on_wall_clock_in_modeled_code():
    findings = run(
        """
        import time

        def modeled(trace):
            return time.perf_counter()
        """
    )
    assert "API002" in ids(findings)


def test_api002_silent_outside_modeled_modules():
    findings = run(
        """
        import time

        def wall():
            return time.perf_counter()
        """,
        rel_path=COLD,
    )
    assert ids(findings) == []


def test_api003_fires_on_unused_import():
    findings = run(
        """
        import os
        import sys

        def cwd():
            return os.getcwd()
        """,
        rel_path=COLD,
    )
    assert [f.rule_id for f in findings] == ["API003"]
    assert "sys" in findings[0].message


def test_api003_silent_on_future_reexport_and_used():
    findings = run(
        """
        from __future__ import annotations

        import os
        from os import path

        __all__ = ["path"]

        def cwd():
            return os.getcwd()
        """,
        rel_path=COLD,
    )
    assert ids(findings) == []


# ----------------------------------------------------------------------
# engine mechanics
# ----------------------------------------------------------------------
def test_inline_noqa_suppresses_only_named_rule():
    src = """
        def slow(ray_ids, out):
            for r in ray_ids:  # noqa: VEC001
                out[r] += 1
    """
    assert ids(run(src)) == []
    other = """
        def slow(ray_ids, out):
            for r in ray_ids:  # noqa: SHD001
                out[r] += 1
    """
    assert ids(run(other)) == ["VEC001"]


def test_bare_noqa_suppresses_everything_on_line():
    src = """
        import numpy as np

        def grow(acc, more):
            return np.append(acc, more)  # noqa
    """
    assert ids(run(src)) == []


def test_select_and_ignore_prefixes():
    src = """
        import numpy as np

        def grow(ray_ids, acc):
            for r in ray_ids:
                acc = np.append(acc, r)
            return acc
    """
    assert set(ids(run(src))) == {"VEC001", "VEC002"}
    assert ids(run(src, select=("VEC002",))) == ["VEC002"]
    assert ids(run(src, ignore=("VEC",))) == []


# ----------------------------------------------------------------------
# exempt-modules — observability code rides beside the hot loop
# ----------------------------------------------------------------------
#: a tracer callback that walks ray_ids scalar-wise AND defines a class
#: the shader-contract rules would flag — legal in repro/obs/, not in
#: hot code.
OBS_STYLE_SOURCE = """
    class TimelineShader:
        def __call__(self, ray_ids):
            for r in ray_ids:
                self.events.append(r)
"""

OBS = "repro/obs/tracer_fixture.py"


def test_exempt_module_skips_vec_and_shd():
    findings = run(
        OBS_STYLE_SOURCE,
        rel_path=OBS,
        hot_modules=("repro/",),       # would otherwise cover repro/obs/
        exempt_modules=("repro/obs/",),
    )
    assert ids(findings) == []


def test_same_source_still_fires_outside_exempt_modules():
    findings = run(
        OBS_STYLE_SOURCE,
        rel_path=HOT,
        exempt_modules=("repro/obs/",),
    )
    assert "VEC001" in ids(findings)
    assert "SHD001" in ids(findings)


def test_default_config_exempts_repro_obs():
    from repro.analysis.config import AnalysisConfig as _Cfg

    cfg = _Cfg()
    assert cfg.is_exempt("repro/obs/bench.py")
    assert not cfg.is_hot("repro/obs/bench.py")
    assert not cfg.is_exempt(HOT)


def test_exempt_modules_loads_from_pyproject(tmp_path):
    from repro.analysis.config import load_config

    (tmp_path / "pyproject.toml").write_text(
        '[tool.repro-analysis]\nexempt-modules = ["repro/custom_obs/"]\n'
    )
    cfg = load_config(tmp_path)
    assert cfg.exempt_modules == ("repro/custom_obs/",)
