"""Per-layer tracing by timing wrappers installed from outside the program.

``Tracer.install()`` replaces the public functions at each layer boundary of
``genieblue`` with timing wrappers: the module attribute and every name
imported into another module of the package (``training.collate``,
``adaptation.decode`` and so on), plus a few methods on their classes.
``uninstall()`` puts the originals back. Wrappers change no argument or
result, so a traced run computes bit for bit what an untraced run computes.

Spans nest: each records its duration and the time its child spans cover,
so self time is the one minus the other. ``block_forward`` spans note the
tape length before and after the call; ``backward`` then wraps every tape
node's vjp, tagged with its op and the block kind that recorded it, so
backward time is attributed to ops and to layers.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from genieblue import adaptation, autograd, data, model, optim, training, util

# every op the tape may record; any other op is counted under "other"
OPS = (
    "linear",
    "attention",
    "gelu",
    "rms_norm",
    "add",
    "mul",
    "embed",
    "concat_seq",
    "routed_linear",
    "routed_lora",
    "masked_nll",
)
BLOCK_KINDS = ("base", "adapted", "replicated", "expert", "routed", "vision")

FUNCTIONS = {
    **{(autograd, op): f"autograd.{op}.fwd" for op in OPS},
    (model, "decode"): "model.decode",
    (adaptation, "build_genieblue"): "adaptation.build",
    (adaptation, "build_cogvlm"): "adaptation.build",
    (adaptation, "freeze_mask"): "adaptation.freeze_mask",
    (data, "synth_dataset"): "data.synth",
    (data, "collate"): "data.collate",
    (optim, "adamw_step"): "optim.adamw_step",
    (util, "digest_tensors"): "util.digest",
    (training, "run_stage"): "training.run_stage",
}
METHODS = {
    (model, "VisionEncoder", "encode"): "model.encode",
    (model, "Projector", "project"): "model.project",
    (model, "LanguageModel", "block_weights"): "model.block_weights",
    (adaptation, "HybridModel", "bindings"): "adaptation.bindings",
    (adaptation, "VisualExpertModel", "bindings"): "adaptation.bindings",
}
# spans whose direct children count towards trace coverage
ROOTS = ("training.run_stage", "serve.request")


def _package_modules():
    return [m for name, m in sys.modules.items() if name == "genieblue" or name.startswith("genieblue.")]


class Tracer:
    """Collects span totals in memory: name -> [inclusive s, self s, calls]."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0.0, 0.0, 0])
        self.covered = 0.0  # time of spans whose parent is a root span
        self.layer_bwd = defaultdict(float)
        self.ops_seen = set()
        self.missing = []  # wrap targets the package no longer has
        self.tape_nodes = 0
        self.tape_out_bytes = 0
        self.vjps_run = 0
        self.replicated_ids: set[int] = set()
        self.first_start: dict[str, float] = {}
        self._stack: list[list] = []  # [name, child seconds]
        self._tapes: list = []
        self._ranges: list[tuple[int, int, str]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def timed(self, name: str, fn, *args, **kwargs):
        frame = [name, 0.0]
        stack = self._stack
        stack.append(frame)
        t0 = perf_counter()
        self.first_start.setdefault(name, t0)
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            if stack:
                parent = stack[-1]
                parent[1] += dt
                if parent[0] in ROOTS:
                    self.covered += dt
            s = self.stats[name]
            s[0] += dt
            s[1] += dt - frame[1]
            s[2] += 1

    def _wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.timed(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- layer attribution -------------------------------------------------

    def note_model(self, m) -> None:
        """Remember which tensors are replicated blocks, to tell them from base."""
        self.replicated_ids = {
            id(t) for n, t in m.named_parameters().items() if n.startswith("replicated.")
        }

    def _block_kind(self, binding, causal: bool) -> str:
        if not causal:
            return "vision"
        if getattr(binding, "experts", None):
            return "expert"
        if getattr(binding, "adapters", None):
            return "routed" if getattr(binding, "route_adapters", False) else "adapted"
        if any(id(t) in self.replicated_ids for t in binding.weights.values()):
            return "replicated"
        return "base"

    def _block_forward(self, fn):
        def wrapper(*args, **kwargs):
            binding = kwargs.get("binding", args[1] if len(args) > 1 else None)
            causal = kwargs.get("causal", args[3] if len(args) > 3 else True)
            kind = self._block_kind(binding, causal)
            tape = self._tapes[-1] if self._tapes else None
            n0 = len(tape) if tape is not None else 0
            out = self.timed(f"model.block.{kind}.fwd", fn, *args, **kwargs)
            if tape is not None:
                self._ranges.append((n0, len(tape), kind))
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _vjp(self, op: str, kind: str | None, fn):
        def wrapper(g):
            self.vjps_run += 1
            t0 = perf_counter()
            out = self.timed(f"autograd.{op}.bwd", fn, g)
            if kind is not None:
                self.layer_bwd[kind] += perf_counter() - t0
            return out

        return wrapper

    def _backward(self, fn):
        def wrapper(tape, loss, *args, **kwargs):
            kinds = [None] * len(tape.nodes)  # nodes outside any block stay None
            for n0, n1, kind in self._ranges:
                kinds[n0:n1] = [kind] * (n1 - n0)
            for node, kind in zip(tape.nodes, kinds):
                op = node.op if node.op in OPS else "other"
                self.ops_seen.add(node.op)
                node.vjp = self._vjp(op, kind, node.vjp)
                self.tape_out_bytes += node.out.data.nbytes
            self.tape_nodes += len(tape.nodes)
            return self.timed("autograd.backward", fn, tape, loss, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = [(mod, attr, lambda fn, n=name: self._wrapper(n, fn)) for (mod, attr), name in FUNCTIONS.items()]
        targets.append((model, "block_forward", self._block_forward))
        targets.append((autograd, "backward", self._backward))
        for mod, attr, make in targets:
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(f"{mod.__name__}.{attr}")
                continue
            self._replace_everywhere(original, make(original))
        for (mod, cls_name, attr), name in METHODS.items():
            cls = getattr(mod, cls_name, None)
            if cls is None or not hasattr(cls, attr):
                self.missing.append(f"{cls_name}.{attr}")
                continue
            self._set(cls, attr, self._wrapper(name, getattr(cls, attr)))
        tape_cls = autograd.GradTape
        enter, exit_ = tape_cls.__enter__, tape_cls.__exit__

        def traced_enter(tape):
            self._tapes.append(tape)
            self._ranges = []
            return enter(tape)

        def traced_exit(tape, *exc):
            self._tapes.pop()
            return exit_(tape, *exc)

        self._set(tape_cls, "__enter__", traced_enter)
        self._set(tape_cls, "__exit__", traced_exit)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reporting ---------------------------------------------------------

    def total_ms(self, name: str) -> float:
        return 1e3 * self.stats[name][0] if name in self.stats else 0.0

    def self_ms(self, name: str) -> float:
        return 1e3 * self.stats[name][1] if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name][2] if name in self.stats else 0

    def unattributed(self) -> list[str]:
        """Ops recorded on a tape that have no named bucket."""
        return sorted(op for op in self.ops_seen if op not in OPS)

    def layer_metrics(self, units: int) -> dict[str, float]:
        """Per-layer metrics of a traced pass with one setup. Times and counts
        are per unit (optimizer step or request); build and synth times are
        those of the setup."""
        per = 1.0 / max(units, 1)
        out = {}
        for op in OPS:
            out[f"autograd.{op}.fwd_ms"] = self.total_ms(f"autograd.{op}.fwd") * per
            out[f"autograd.{op}.bwd_ms"] = self.total_ms(f"autograd.{op}.bwd") * per
            out[f"autograd.{op}.calls"] = self.calls(f"autograd.{op}.fwd") * per
        out["autograd.backward_ms"] = self.total_ms("autograd.backward") * per
        out["autograd.backward_self_ms"] = self.self_ms("autograd.backward") * per
        out["autograd.tape_nodes"] = self.tape_nodes * per
        out["autograd.tape_out_mb"] = self.tape_out_bytes / 1e6 * per
        out["autograd.nodes_used_frac"] = self.vjps_run / self.tape_nodes if self.tape_nodes else 0.0
        for name in ("encode", "project", "decode", "block_weights"):
            out[f"model.{name}_ms"] = self.total_ms(f"model.{name}") * per
        for kind in BLOCK_KINDS:
            out[f"model.block.{kind}.fwd_ms"] = self.total_ms(f"model.block.{kind}.fwd") * per
            out[f"model.block.{kind}.bwd_ms"] = 1e3 * self.layer_bwd[kind] * per
        out["adaptation.bindings_ms"] = self.total_ms("adaptation.bindings") * per
        out["adaptation.freeze_mask_ms"] = self.total_ms("adaptation.freeze_mask") * per
        out["adaptation.build_ms"] = self.total_ms("adaptation.build")
        out["optim.adamw_step_ms"] = self.total_ms("optim.adamw_step") * per
        out["data.collate_ms"] = self.total_ms("data.collate") * per
        out["data.synth_ms"] = self.total_ms("data.synth")
        out["util.digest_ms"] = self.total_ms("util.digest") * per
        root_s = sum(self.stats[r][0] for r in ROOTS if r in self.stats)
        out["trace.coverage"] = self.covered / root_s if root_s else 0.0
        return out

