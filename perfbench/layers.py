"""Where the benchmark wraps the package, and the per-layer metrics it derives.

Every span is named ``<module>.<what>`` after the package module that
owns the code, so self time can be summed per module.  A function that
callers import by name is wrapped in each importing module, because that
is where the call resolves; methods are wrapped on their class.
"""

from __future__ import annotations

import vkribbon.io as vk_io
from vkribbon import cli, config, fem, flow, forms, plate, ribbon, studies

from metrics import count_within, group_stats, module_self_times
from tracing import ModuleView, Patches, Tracer

MODULES = ("forms", "fem", "ribbon", "plate", "flow", "studies", "config", "io", "cli")

_SYSTEM_METHODS = (
    "energy",
    "sqdist",
    "grad_energy",
    "grad_halfsqdist",
    "hess_energy",
    "hess_halfsqdist",
    "weak_residual_vector",
    "interpolate",
)
_SPACES = (fem.P1Space, fem.Hermite3Space, fem.Q1Space, fem.BFSSpace)


def _sites():
    """(span name, owner, attribute) for every wrapped call site."""
    sites = [
        ("forms.material_pair", forms.MaterialPair, "__init__"),
        ("forms.viscous_matrix", forms.MaterialPair, "viscous_matrix"),
        ("fem.quadrature", fem.Quadrature1D, "__init__"),
        ("fem.quadrature", fem.Quadrature2D, "__init__"),
        ("fem.dirichlet", ribbon, "dirichlet_1d"),
        ("fem.dirichlet", plate, "dirichlet_2d"),
        ("ribbon.init", ribbon.RibbonSystem, "__init__"),
        ("ribbon.local_slope", ribbon.RibbonSystem, "local_slope"),
        ("plate.init", plate.PlateSystem, "__init__"),
        ("flow.incremental_step", flow, "incremental_step"),
        ("io.write_csv", vk_io, "write_csv"),
        ("cli.main", cli, "main"),
    ]
    for owner in (fem, plate, ribbon):
        sites.append(("fem.triple_product", owner, "triple_product"))
    for space in _SPACES:
        for attr in ("sample_matrix", "interpolate", "evaluate"):
            sites.append((f"fem.{attr}", space, attr))
    for method in _SYSTEM_METHODS:
        sites.append((f"ribbon.{method}", ribbon.RibbonSystem, method))
        sites.append((f"plate.{method}", plate.PlateSystem, method))
    for owner in (plate, studies, cli):
        sites.append(("plate.build_recovery", owner, "build_recovery"))
    for owner in (flow, studies, cli):
        sites.append(("flow.run_trajectory", owner, "run_trajectory"))
    for owner in (flow, studies):
        sites.append(("flow.dissipation_ledger", owner, "dissipation_ledger"))
    for owner in (studies, cli):
        sites.append(("studies.tau_study", owner, "tau_study"))
        sites.append(("studies.gamma_check", owner, "gamma_check"))
    for owner in (config, cli):
        sites.append(("config.load_scenario", owner, "load_scenario"))
    for owner in (vk_io, cli):
        sites.append(("io.write_manifest", owner, "write_manifest"))
    return sites


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every call site; ``patches`` undoes it."""
    for name, owner, attr in _sites():
        patches.set(owner, attr, tracer.wrap(name, getattr(owner, attr)))
    # scipy's splu, traced only as the flow module reaches it
    patches.set(flow, "spla", ModuleView(flow.spla, splu=tracer.wrap("flow.splu", flow.spla.splu)))
    # the leaf writer also counts the bytes it is handed
    traced_write = tracer.wrap("io.atomic_write", vk_io.atomic_write)

    def atomic_write(path, text):
        tracer.add("io.bytes_written", len(text.encode("utf-8")))
        return traced_write(path, text)

    patches.set(vk_io, "atomic_write", atomic_write)


# ---------------------------------------------------------------------------
# per-layer metrics

GROUPS = {
    "plate.hess": ("plate.hess_energy", "plate.hess_halfsqdist"),
    "plate.grad": ("plate.grad_energy", "plate.grad_halfsqdist"),
    "plate.eval": ("plate.energy", "plate.sqdist"),
    "plate.kkt": ("plate.weak_residual_vector",),
    "plate.init": ("plate.init",),
    "plate.recovery": ("plate.build_recovery",),
    "ribbon.hess": ("ribbon.hess_energy", "ribbon.hess_halfsqdist"),
    "ribbon.grad": ("ribbon.grad_energy", "ribbon.grad_halfsqdist"),
    "ribbon.eval": ("ribbon.energy", "ribbon.sqdist"),
    "ribbon.slope": ("ribbon.local_slope",),
    "ribbon.kkt": ("ribbon.weak_residual_vector",),
    "ribbon.init": ("ribbon.init",),
    "fem.triple_product": ("fem.triple_product",),
    "fem.sample_matrix": ("fem.sample_matrix",),
    "forms.material": ("forms.material_pair", "forms.viscous_matrix"),
    "flow.lu": ("flow.splu",),
    "flow.step": ("flow.incremental_step",),
    "config.load": ("config.load_scenario",),
    "io.write": ("io.write_csv", "io.write_manifest", "io.atomic_write"),
}

_STEP = ("flow.incremental_step",)
_ASSEMBLY = ("plate.hess_energy", "ribbon.hess_energy")
_PHI_EVAL = ("plate.sqdist", "ribbon.sqdist")
# every accepted step evaluates the incremental functional twice after its
# Newton loop: the one-step inequality check and the step distance
_FIXED_EVALS_PER_STEP = 2

# (name, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = (
    [(f"{g}.calls", "count", "lower") for g in GROUPS]
    + [(f"{g}.s", "s", "lower") for g in GROUPS]
    + [(f"{m}.self.s", "s", "lower") for m in MODULES]
    + [
        ("flow.steps", "count", "higher"),
        ("flow.newton_iters", "count", "lower"),
        ("flow.hess_assemblies", "count", "lower"),
        ("flow.hess_useful_ratio", "ratio", "higher"),
        ("flow.evals_per_iter", "ratio", "lower"),
        ("flow.fallback_steps", "count", "lower"),
        ("flow.step_failures", "count", "lower"),
        ("io.bytes_written", "bytes", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def layer_metrics(spans, counters, steps, step_failures) -> dict:
    """Per-layer values of one traced repeat, all of PER_LAYER but the
    tracing overhead, which needs an untraced repeat to compare with.

    ``steps`` are the StepReports of the accepted incremental steps and
    ``step_failures`` the StepFailures raised, both from the operation clock.
    """
    out = {}
    for g, names in GROUPS.items():
        out[f"{g}.calls"], out[f"{g}.s"] = group_stats(spans, names)
    selfs = module_self_times(spans)
    for m in MODULES:
        out[f"{m}.self.s"] = selfs.get(m, 0.0)
    newton = sum(r.newton_iters for r in steps)
    assemblies = count_within(spans, _ASSEMBLY, _STEP)
    evals = count_within(spans, _PHI_EVAL, _STEP) - _FIXED_EVALS_PER_STEP * len(steps)
    out.update(
        {
            "flow.steps": len(steps),
            "flow.newton_iters": newton,
            "flow.hess_assemblies": assemblies,
            "flow.hess_useful_ratio": newton / assemblies if assemblies else 0.0,
            "flow.evals_per_iter": evals / newton if newton else 0.0,
            "flow.fallback_steps": sum(1 for r in steps if r.used_fallback),
            "flow.step_failures": step_failures,
            "io.bytes_written": counters.get("io.bytes_written", 0),
        }
    )
    return out
